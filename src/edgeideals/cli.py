"""Command-line front end: Betti tables, duals, witnesses, and campaigns.

Graph arguments take a file path (text format: vertex count on the first
data line, then one `u v` edge per line, `#` comments; or JSON
{"labels": [...], "edges": [...]}) or a catalog name such as `cycle_4`,
`path_5`, `complete_bipartite_2_3`, `ferrers_3_2_1`.

Ideal files are JSON {"variables": [...], "generators": [[e1,...,eN], ...]}.
Families are JSON {"blocks": [{"left": [...], "right": [...]}, ...],
"representatives": [[u, v], ...]} with vertices given as labels or indices.

The default coefficient field is GF(2); `--field` accepts `gf<p>` for any
prime p or `rat` for the rationals.  Single-graph commands cap inputs at
14 vertices and campaigns at 7 unless `--max-n` raises the cap explicitly.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext, redirect_stdout

# each command imports the modules it runs, so a cold start compiles only those
from .errors import ResourceLimitError
from .linalg import FieldSpec

SINGLE_GRAPH_CAP = 14


def _fail(msg: str):
    raise SystemExit(f"edgeideals: error: {msg}")


def _enforce_cap(n: int, max_n, default_cap: int, what: str):
    if max_n is not None and max_n < 1:
        _fail(f"--max-n must be at least 1, got {max_n}")
    cap = default_cap if max_n is None else int(max_n)
    if n > cap:
        _fail(
            f"{what} has {n} vertices, over the cap of {cap}; "
            f"rerun with --max-n {n} to accept the cost"
        )


def _read(arg: str, ideal=False):
    """The graph a file holds, else the catalog graph named arg.  With
    ``ideal``, a JSON object with "generators" gives its MonomialIdeal."""
    from .graphs import SimpleGraph
    from .ideals import MonomialIdeal

    if not os.path.exists(arg):
        from .catalog import named_graph

        try:
            return named_graph(arg)
        except ValueError as exc:
            # a catalog name that builds no graph carries the builder's error
            if exc.__cause__ is None:
                _fail(f"{arg!r} is neither a readable file nor a catalog name")
            raise
    noun = "input file" if ideal else "graph file"
    try:
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
        if ideal and text.lstrip().startswith("{"):
            data = json.loads(text)
            if "generators" in data:
                return MonomialIdeal.from_json(data)
            return SimpleGraph.from_json(data)
        return SimpleGraph.parse(text)
    except OSError as exc:
        _fail(f"cannot read {noun} {arg!r}: {exc.strerror or exc}")
    except (ValueError, KeyError) as exc:
        _fail(f"cannot parse {noun} {arg!r}: {exc}")


def _load_graph(arg: str, max_n=None):
    g = _read(arg)
    _enforce_cap(g.n, max_n, SINGLE_GRAPH_CAP, "graph")
    return g


def _out(args, path: str):
    """The stream a --json or --csv OUT names: stdout for '-', else the file."""
    if path == "-":
        return nullcontext(args.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot write {path!r}: {exc.strerror or exc}")


def _check_out(path):
    """Refuse a --json or --csv OUT that no run could write, before the run:
    a directory, or a path whose parent is not a directory.  Nothing is
    created or truncated; any other failure is reported by ``_out``."""
    if path is None or path == "-":
        return
    if os.path.isdir(path):
        _fail(f"cannot write {path!r}: {os.strerror(errno.EISDIR)}")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        _fail(f"cannot write {path!r}: {os.strerror(code)}")


def _write_json(args, path: str, obj):
    """Stream obj as indented JSON and a newline, so the text is never held whole."""
    with _out(args, path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sigma_mask(g, tokens) -> int:
    mask = 0
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok.isdigit():
            v = int(tok)
            if v >= g.n:
                _fail(f"vertex index {v} out of range for a {g.n}-vertex graph")
        else:
            try:
                v = g.index_of(tok)
            except (KeyError, ValueError):
                _fail(f"unknown vertex label {tok!r}")
        if mask >> v & 1:
            _fail(f"vertex {tok!r} is listed twice")
        mask |= 1 << v
    return mask


def _table(g, field: FieldSpec):
    """The Betti table of S/I(G); a graph that passed the --max-n cap may
    exceed the library's table cap."""
    from .hochster import MAX_TABLE_VARS, graph_betti_table

    if g.n > SINGLE_GRAPH_CAP:
        # the table walks up to every vertex subset, so be upfront about the bill
        print(
            f"cost estimate: at most 2^{g.n} = {1 << g.n} subset strands per table",
            file=sys.stderr,
        )
    return graph_betti_table(g, field=field, max_vars=max(MAX_TABLE_VARS, g.n))


def _print_table(table, title: str):
    print(title)
    print(table.diagram_text())
    print(f"pd  = {table.pd()}")
    print(f"reg = {table.reg()}")


# -- subcommands -------------------------------------------------------------


def _pd_check(g, field, formula, *shown) -> int:
    """Print a closed-form pd, any values shown, and the Betti table's pd; 0 if they agree."""
    oracle = _table(g, field).pd()
    verdict = "OK" if formula == oracle else "MISMATCH"
    print(f"pd: {', '.join([f'formula {formula}', *shown, f'Betti table {oracle}'])}  [{verdict}]")
    return 0 if formula == oracle else 1


def cmd_betti(args) -> int:
    g = _load_graph(args.graph, args.max_n)
    field = FieldSpec.parse(args.field)
    table = _table(g, field)
    _print_table(table, f"Betti table of S/I(G) over {field!r}")
    if args.multigraded:
        print("multigraded entries:")
        for row in table.multigraded_rows():
            sig = ",".join(row["sigma"])
            print(f"  beta_{row['i']},{{{sig}}} = {row['value']}")
    if args.json:
        _write_json(args, args.json, table.to_json())
    return 0


def cmd_invariant(args) -> int:
    """pd or reg, as the command names it."""
    g = _load_graph(args.graph, args.max_n)
    print(getattr(_table(g, FieldSpec.parse(args.field)), args.command)())
    return 0


def cmd_dual(args) -> int:
    from .ideals import cover_ideal

    dual = cover_ideal(_load_graph(args.graph, args.max_n))
    for gen in dual.generators:
        print(gen.pretty(dual.variables))
    if args.json:
        _write_json(args, args.json, dual.to_json())
    return 0


def cmd_witness(args) -> int:
    from .witness import max_pd_witness, witness_for

    g = _load_graph(args.graph, args.max_n)
    if args.target is not None:
        parts = args.target.split(",")
        try:
            i = int(parts[0])
        except ValueError:
            _fail(f"--target must start with the homological degree, got {parts[0]!r}")
        sigma = _sigma_mask(g, parts[1:])
        fam = witness_for(g, i, sigma)
        if fam is None:
            print(f"no disjoint family witnesses beta_{i} in degree {g.label_set(sigma)}")
            return 1
        payload = {"i": i, "sigma": g.label_set(sigma), "family": fam.to_json(g)}
        print(f"beta_{i},{{{','.join(g.label_set(sigma))}}} >= 1 via:")
    else:
        wit = max_pd_witness(g)
        if wit.family is None:
            print("graph has no edges; no family exists")
            return 1
        payload = {"value": wit.value, "family": wit.family.to_json(g)}
        fam = wit.family
        print(f"max family value (pd lower bound): {wit.value}")
    print(json.dumps(fam.to_json(g), indent=2))
    if args.json:
        _write_json(args, args.json, payload)
    return 0


def cmd_lyubeznik(args) -> int:
    from .ideals import MonomialIdeal, edge_ideal
    from .lyubeznik import admissible_symbols, lyubeznik_betti_table, main_theorem_certificate
    from .witness import DisjointFamily

    source = _read(args.source, ideal=True)
    # a graph contributes its edge ideal
    g = None if isinstance(source, MonomialIdeal) else source
    ideal = source if g is None else edge_ideal(g)
    _enforce_cap(ideal.nvars, args.max_n, SINGLE_GRAPH_CAP, "ideal" if g is None else "graph")
    field = FieldSpec.parse(args.field)
    if args.order is not None:
        try:
            order = tuple(int(tok) for tok in args.order.split(",") if tok.strip())
        except ValueError:
            _fail(f"--order takes comma-separated 0-based generator positions, got {args.order!r}")
        if sorted(order) != list(range(ideal.ngens)):
            _fail(
                f"--order must be a permutation of 0..{ideal.ngens - 1} "
                f"(0-based generator positions), got {list(order)}"
            )
        ideal = ideal.reordered(order)
    acted = False
    if args.symbols is not None:
        if args.symbols < 0:
            _fail(f"--symbols takes a symbol size of at least 0, got {args.symbols}")
        syms = admissible_symbols(ideal, s=args.symbols)
        print(json.dumps([{"indices": list(t)} for t in syms]))
        acted = True
    if args.certify:
        if g is None:
            _fail("--certify needs a graph input (families live on graphs)")
        try:
            with open(args.certify, encoding="utf-8") as fh:
                fam = DisjointFamily.from_json(g, json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            _fail(f"cannot load family {args.certify!r}: {exc}")
        try:
            s, sigma = main_theorem_certificate(g, fam)
        except (ValueError, RuntimeError) as exc:
            print(f"certificate FAILED: {exc}")
            return 1
        sig = ",".join(g.label_set(sigma))
        print(f"certified: beta_{s},{{{sig}}}(S/I(G)) >= 1 over every field")
        acted = True
    if not acted:
        table = lyubeznik_betti_table(ideal, field=field)
        _print_table(table, f"Betti table from the ordered-subset resolution over {field!r}")
    return 0


def _print_labeling(g, xs, ys):
    print("matched pairs (x_k, y_k):")
    for k, (x, y) in enumerate(zip(xs, ys)):
        print(f"  k={k + 1}: x={g.labels[x]}  y={g.labels[y]}")


def _poset_covers(p):
    from .graphs import iter_bits

    for a in range(p.n):
        above = p.up[a] & ~(1 << a)
        for b in iter_bits(above):
            if not any(p.leq(a, c) and p.leq(c, b) for c in iter_bits(above) if c != b):
                yield a, b


def cmd_cm(args) -> int:
    from collections import Counter

    from .cm_bipartite import extract_family, free_bases, hg_generators, maximal_boolean_bases
    from .errors import NoLabelingError
    from .graphs import bit_list
    from .unmixed import acyclic_reduction, lift_family

    g = _load_graph(args.graph, args.max_n)
    field = FieldSpec.parse(args.field)
    try:
        red = acyclic_reduction(g)
    except NoLabelingError:
        red = None
    except ValueError as exc:
        print(f"not CM bipartite: {exc}")
        return 1
    if red is None or not red.is_cm:
        print("graph admits no order-compatible perfect matching: not CM bipartite")
        return 1
    p = red.poset
    # one column per class, so the classes list the columns in poset order
    cols = [cls.bit_length() - 1 for cls in red.classes]
    _print_labeling(g, [red.xs[i] for i in cols], [red.ys[i] for i in cols])
    covers = list(_poset_covers(p))
    print("poset cover relations:")
    if not covers:
        print("  (antichain)")
    for a, b in covers:
        print(f"  {a + 1} < {b + 1}")
    hg = hg_generators(p)
    print("dual ideal generators (one per poset ideal):")
    for gen in hg.generators:
        print(f"  {gen.pretty(hg.variables)}")
    print("free basis counts by homological degree:")
    for i, cnt in sorted(Counter(b.i for b in free_bases(p)).items()):
        print(f"  i={i}: {cnt}")
    print("maximal Boolean bases and extracted families:")
    maximal = maximal_boolean_bases(p)
    for basis in maximal:
        fam = lift_family(red, extract_family(red.ghat, basis, maximal))
        lo, hi = basis.interval()
        print(
            f"  interval [{bit_list(lo)}, {bit_list(hi)}] i={basis.i}: "
            f"{json.dumps(fam.to_json(g))}"
        )
    return _pd_check(g, field, red.t)


def cmd_unmixed(args) -> int:
    from .graphs import iter_bits
    from .ideals import BettiTable
    from .unmixed import _dual_scores, _witness, acyclic_reduction

    g = _load_graph(args.graph, args.max_n)
    field = FieldSpec.parse(args.field)
    try:
        red = acyclic_reduction(g)
    except ValueError as exc:
        print(f"not unmixed bipartite: {exc}")
        return 1
    _print_labeling(g, red.xs, red.ys)
    print("directed relation arcs (columns i -> j):")
    for i, mask in enumerate(red.arcs):
        for j in iter_bits(mask):
            if j != i:
                print(f"  {i + 1} -> {j + 1}")
    print("strongly connected classes (zeta = size):")
    for a, cls in enumerate(red.classes):
        members = ", ".join(str(i + 1) for i in iter_bits(cls))
        print(f"  Z_{a + 1} = {{{members}}}  zeta={red.zeta[a]}")
    print(f"acyclic reduction on {red.t} classes, edges:")
    for u, v in red.ghat.edges():
        print(f"  {red.ghat.labels[u]} {red.ghat.labels[v]}")
    scored = _dual_scores(red)
    # one entry 1 per free basis of the poset's resolution, over every field
    dual_table = BettiTable("ideal", field, red.ghat.labels, {(r, s): 1 for _, r, s in scored})
    _print_table(dual_table, f"dual Betti table of the reduction over {field!r}")
    wit = _witness(red, scored)
    print("weighted maximizers (r, sigma-hat):")
    for r, s in wit.maximizers:
        print(f"  r={r}  sigma-hat={{{','.join(red.ghat.label_set(s))}}}")
    r, s = wit.entry
    print(f"chosen entry: r={r}, sigma-hat={{{','.join(red.ghat.label_set(s))}}}")
    print(f"lifted family: {json.dumps(wit.family.to_json(g))}")
    return _pd_check(g, field, max(v for v, _, _ in scored), f"witness {wit.value}")


def cmd_verify(args) -> int:
    from .campaigns import CAMPAIGN_CAP, Campaign, run_campaign

    if args.json == "-" and args.csv == "-":
        _fail("--json - and --csv - cannot both take stdout")
    try:
        campaign = Campaign.load(args.campaign)
    except (OSError, ValueError, KeyError) as exc:
        _fail(f"cannot load campaign {args.campaign!r}: {exc}")
    if args.seed is not None:
        campaign.seed = args.seed
    if args.max_n is not None:
        if args.max_n < 1:
            _fail(f"--max-n must be at least 1, got {args.max_n}")
        campaign.caps["max_n"] = args.max_n
        if args.max_n > CAMPAIGN_CAP:
            print(
                f"cost estimate: tables walk at most 2^{args.max_n} = {1 << args.max_n} "
                "subsets per graph; graph counts grow superexponentially in the cap",
                file=sys.stderr,
            )
    report = run_campaign(campaign, workers=args.workers, timing=args.timing)
    print(report.human())
    if args.json:
        _write_json(args, args.json, report.to_json())
    if args.csv:
        with _out(args, args.csv) as fh:
            fh.write(report.to_csv())
    return 0 if report.ok else 1


# -- parser wiring ------------------------------------------------------------


def _add_field(p):
    p.add_argument("--field", default="gf2", help="coefficient field: gf<p> or rat (default gf2)")


def _add_max_n(p):
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help="raise the vertex cap (prints a cost estimate)",
    )


def _add_json_out(p):
    p.add_argument(
        "--json", metavar="OUT", help="also write JSON to OUT ('-': stdout, and the text to stderr)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeideals",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="multigraded Betti table of S/I(G)")
    p.add_argument("graph")
    _add_field(p)
    p.add_argument("--multigraded", action="store_true", help="list every beta_{i,sigma}")
    _add_json_out(p)
    _add_max_n(p)
    p.set_defaults(func=cmd_betti)

    for name, what in (("pd", "projective dimension"), ("reg", "Castelnuovo-Mumford regularity")):
        p = sub.add_parser(name, help=f"{what} of S/I(G)")
        p.add_argument("graph")
        _add_field(p)
        _add_max_n(p)
        p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("dual", help="generators of the cover ideal I(G)*")
    p.add_argument("graph")
    _add_json_out(p)
    _add_max_n(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("witness", help="disjoint complete bipartite families")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--target",
        metavar="i,v1,v2,...",
        help="find a family for beta_i in the multidegree spanned by the listed vertices",
    )
    mode.add_argument(
        "--max",
        action="store_true",
        help="maximize |sigma| - r over all valid families (the default action)",
    )
    _add_json_out(p)
    _add_max_n(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "lyubeznik",
        help="ordered-subset resolution: strand table, admissible symbols, certificates",
    )
    p.add_argument("source", help="ideal JSON, graph file, or catalog name")
    p.add_argument("--order", metavar="i1,i2,...", help="generator order, 0-based positions")
    _add_field(p)
    p.add_argument(
        "--symbols",
        type=int,
        metavar="S",
        default=None,
        help="dump admissible symbols with S indices as JSON",
    )
    p.add_argument(
        "--certify",
        metavar="FAMILY.json",
        help="check the non-vanishing certificate for a family file",
    )
    _add_max_n(p)
    p.set_defaults(func=cmd_lyubeznik)

    for name, what, func, shown in (
        ("cm", "Cohen-Macaulay", cmd_cm, "labeling, poset, dual ideal, bases, pd cross-check"),
        ("unmixed", "unmixed", cmd_unmixed,
         "labeling, classes, reduction, weighted formula, lifted witness"),
    ):
        p = sub.add_parser(name, help=f"{what} bipartite analysis")
        q = p.add_subparsers(dest="action", required=True).add_parser("analyze", help=shown)
        q.add_argument("graph")
        _add_field(q)
        _add_max_n(q)
        q.set_defaults(func=func)

    p = sub.add_parser("verify", help="run a theorem-verification campaign")
    p.add_argument("campaign", help="campaign JSON file")
    _add_json_out(p)
    p.add_argument(
        "--csv", metavar="OUT", help="also write CSV to OUT ('-': stdout, and the text to stderr)"
    )
    p.add_argument("--workers", type=int, default=1, help="processes, each on every Nth graph (default 1)")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the campaign seed, a label copied into the report that nothing reads",
    )
    _add_max_n(p)
    p.add_argument("--timing", action="store_true", help="include wall-clock timing in reports")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for path in (getattr(args, "json", None), getattr(args, "csv", None)):
        _check_out(path)
    # a document written to stdout ('-') has stdout to itself, and the
    # human-readable text goes to stderr
    args.stdout = sys.stdout
    streamed = "-" in (getattr(args, "json", None), getattr(args, "csv", None))
    try:
        with redirect_stdout(sys.stderr) if streamed else nullcontext():
            rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader of stdout stopped early (``| head``): send what is still
        # buffered to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError, ResourceLimitError) as exc:
        # a refused input: the library's message is the error line
        _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
