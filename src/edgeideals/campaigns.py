"""Exhaustive theorem-verification campaigns over graph catalogs.

A campaign pairs a graph corpus with a list of named assertions from the
fixed registry; running it evaluates every assertion on every graph over
every requested field and collects violations verbatim.  Reports are
deterministic for fixed inputs regardless of the worker count.
"""

from __future__ import annotations

import json
import time
from functools import partial

from .catalog import catalog_sizes, generate_catalog
from .cm_bipartite import extract_family, maximal_boolean_bases
from .graphs import (
    SimpleGraph,
    bipartition,
    check_keys,
    complement_components,
    is_chordal,
    is_cochordal,
    is_complete_bipartite,
    is_ferrers,
)
from .hochster import MAX_TABLE_VARS, cover_betti_table, graph_betti_table
from .ideals import is_unmixed
from .linalg import FieldSpec
from .lyubeznik import main_theorem_certificate
from .unmixed import _dual_scores, _witness, acyclic_reduction, lift_family
from .witness import (
    DisjointFamily,
    _extend,
    a_number,
    all_blocks,
    bouquet_family,
    cochordal_pd,
    is_valid_family,
    max_pd_witness,
    witness_for,
)

SCHEMA = "edgeideals-report/1"


class _Ctx:
    """Per-graph cache shared by the assertions of one run.

    Per field it holds the quotient table of S/I(G) and the table of the
    cover ideal I(G)* read off it (shared by T6.1 and T6.2).  Graph Betti
    numbers can depend on the characteristic, so only these tables are kept
    per field.

    Everything else an assertion needs is combinatorial and field-free, so it
    goes through one memo, ``of(fn, *args)``: ``fn(G, *args)`` is built on
    first use and read by every field.  That covers T1.1's valid families,
    the star families that T2.4 and T2.5 share, C5.2's ``witness_for``
    results, the graph-class tests, the closed-form values, the maximal
    witness, and one acyclic reduction (None when G is not unmixed
    bipartite).  The reduction's own field-free products are kept beside it:
    P6.6's families (``basis_families``), extracted in ghat and lifted, and
    the weighted dual maximizer with its lifted family (``unmixed_witness``),
    whose value P7.2 compares and whose family T7.1 checks.  Each assertion
    then only reads its field's table, and emits its rows in the order of a
    fresh walk.

    Certificate verdicts are kept per graph too: ``certified`` checks each
    distinct family (its blocks in order, each with its representative) once,
    so a star family that T1.1 already certified costs T2.5 and T7.1 one
    lookup.  Families that differ in block order or representatives, or only
    share sigma, are checked apart.

    ``certificates`` is the memo of ``main_theorem_certificate``.  It keeps
    each verdict, (s, degree mask) or None, under the blocks' shapes (m, n)
    and G[sigma]'s adjacency rows with sigma's vertices numbered in block
    order; beside those, under each block shape (m, n), the leading symbol
    of that shape's threshold cycle, or None if its cycle check fails.  No
    key mentions the graph or its labels, so one memo serves every graph of
    a share (the whole catalog with one worker), and relabelled copies of a
    configuration share an entry.  The caller owns the memo; a context
    lives for one graph.
    """

    def __init__(self, g: SimpleGraph, certificates: dict):
        self.g = g
        self.certificates = certificates
        self._cache: dict = {}

    def _once(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def of(self, fn, *args):
        """fn(G, *args), computed once per graph; fn must not read a field."""
        return self._once((fn, *args), lambda: fn(self.g, *args))

    def table(self, field: FieldSpec):
        # a graph under the campaign's caps.max_n may exceed the library's table cap
        return self._once(
            ("quotient", repr(field)),
            lambda: graph_betti_table(self.g, field, max_vars=max(MAX_TABLE_VARS, self.g.n)),
        )

    def cover_table(self, field: FieldSpec):
        return self._once(("cover", repr(field)), lambda: cover_betti_table(self.g, self.table(field)))

    def basis_families(self):
        return self._once("basis families", lambda: _basis_families(self.of(_reduction)))

    def unmixed_witness(self):
        """``_witness`` on the reduction's weighted dual scores; G must be
        unmixed bipartite."""

        def build():
            red = self.of(_reduction)
            return _witness(red, _dual_scores(red))

        return self._once("unmixed witness", build)

    def is_cm(self) -> bool:
        red = self.of(_reduction)
        return red is not None and red.is_cm

    def certified(self, fam: DisjointFamily):
        """``_certified(G, fam, certificates)``, run once per ordered family.

        A family is its blocks in order, each with its representative; the
        verdict reads nothing else, so a repeat would be the same call on the
        same input.  ``fam`` must carry its representatives, as every family
        a campaign certifies does.
        """
        # one flat tuple, (left, right, u, v) per block: a graph's contexts
        # keep one key per family, and nested tuples would tax the collector
        key = ["certified"]
        for b, (u, v) in zip(fam.blocks, fam.representatives):
            key += (b.left, b.right, u, v)
        return self._once(tuple(key), lambda: _certified(self.g, fam, self.certificates))


def _subsets_down(g: SimpleGraph):
    """Every nonempty vertex subset, as a mask, from the full vertex set down."""
    return range(g.vertex_mask(), 0, -1)


def _bouquets(g: SimpleGraph):
    """(sigma, bouquet_family(G, sigma)) for each sigma, from the full vertex
    set down, whose induced graph is a disjoint union of stars with
    3-disjoint representatives."""
    return [(sigma, fam) for sigma in _subsets_down(g) if (fam := bouquet_family(g, sigma)) is not None]


def _top_strand(g: SimpleGraph):
    """(sigma, c(G_sigma) - 1) for every sigma, from the full vertex set down."""
    return [(sigma, complement_components(g, sigma) - 1) for sigma in _subsets_down(g)]


def _complete_bipartite(g: SimpleGraph) -> dict:
    """The sigmas whose induced graph is complete bipartite, from the full
    vertex set down, as the keys of a dict."""
    return dict.fromkeys(sigma for sigma in _subsets_down(g) if is_complete_bipartite(g, sigma))


def _certified(g, fam, memo=None):
    """(ok, error) from running the resolution certificate on a family."""
    try:
        s, sigma = main_theorem_certificate(g, fam, memo)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    # fam.value is |fam.sigma| - r; the property ORs the blocks on each read
    want = fam.sigma
    if s != want.bit_count() - fam.r or sigma != want:
        return False, f"certificate landed at ({s}, {sigma}) instead"
    return True, ""


def _valid_families(g: SimpleGraph, max_vertices: int, max_r: int) -> list[tuple[int, int, DisjointFamily]]:
    """(|sigma| - r, sigma, family) for every valid family of up to max_r
    index-increasing, pairwise vertex-disjoint blocks of at most max_vertices
    vertices (``all_blocks``), with representatives, in depth-first preorder.

    Each family carries its representative assignments, one per union of
    closed neighbourhoods (``witness._extend``), built from its parent's; a
    block joins exactly when it extends one of them, so a family with none
    is never reached.  A family that is not extended needs only its first.
    """
    blocks = all_blocks(g, max_vertices=max_vertices)
    verts = [b.vertices for b in blocks]
    out: list[tuple[int, int, DisjointFamily]] = []
    # one frame per family being extended: (block indices still to try,
    # union, blocks, assignments); a frame resumes where its child was pushed
    stack = [(iter(range(len(blocks))), 0, [], [(0, ())])]
    while stack:
        indices, used, chosen, assignments = stack[-1]
        for idx in indices:
            if verts[idx] & used:
                continue
            extended = _extend(g, assignments, blocks[idx])
            first = next(extended, None)
            if first is None:
                continue
            family = chosen + [blocks[idx]]
            sigma = used | verts[idx]
            out.append((sigma.bit_count() - len(family), sigma, DisjointFamily(family, first[1])))
            if len(family) != max_r:
                stack.append((iter(range(idx + 1, len(blocks))), sigma, family, [first, *extended]))
                break
        else:
            stack.pop()
    return out


def _assert_t11(g, field, caps, ctx):
    """Every valid disjoint family witnesses a nonzero Betti entry and is
    certified by an explicit resolution cycle."""
    table = ctx.table(field)
    out = []
    for i, sigma, fam in ctx.of(_valid_families, caps.get("block_vertices", 5), caps.get("family_size", 2)):
        ok, err = ctx.certified(fam)
        beta = table.entry(i, sigma)
        if beta < 1:
            out.append(
                {
                    "check": "betti-positive",
                    "i": i,
                    "sigma": g.label_set(sigma),
                    "beta": beta,
                    "family": DisjointFamily(fam.blocks).to_json(g),
                }
            )
        if not ok:
            out.append(
                {"check": "certificate", "family": DisjointFamily(fam.blocks).to_json(g), "error": err}
            )
    return out


def _assert_t22(g, field, caps, ctx):
    """Regularity dominates the 3-disjoint matching number, and the coarse
    table is the multidegree table summed by support size."""
    table = ctx.table(field)
    out = []
    reg, a = table.reg(), ctx.of(a_number)
    if reg < a:
        out.append({"check": "reg>=a", "reg": reg, "a": a})
    regroup: dict[tuple[int, int], int] = {}
    for i, s, v in table.nonzero():
        key = (i, s.bit_count())
        regroup[key] = regroup.get(key, 0) + v
    if regroup != table.graded():
        out.append(
            {
                "check": "grading-accounting",
                "graded": sorted(table.graded().items()),
                "regrouped": sorted(regroup.items()),
            }
        )
    return out


def _assert_t23(g, field, caps, ctx):
    """reg = a for chordal graphs and for unmixed bipartite graphs."""
    if not (ctx.of(is_chordal) or (ctx.of(bipartition) is not None and ctx.of(is_unmixed))):
        return None
    table = ctx.table(field)
    reg, a = table.reg(), ctx.of(a_number)
    if reg != a:
        return [{"check": "reg=a", "reg": reg, "a": a}]
    return []


def _assert_t24(g, field, caps, ctx):
    """If the induced graph on sigma is a disjoint union of r stars then the
    entry at (|sigma|-r, sigma) is nonzero, as is its coarse image."""
    table = ctx.table(field)
    graded = table.graded()
    out = []
    for sigma, fam in ctx.of(_bouquets):
        i = sigma.bit_count() - fam.r
        if table.entry(i, sigma) < 1:
            out.append(
                {
                    "check": "star-components",
                    "i": i,
                    "sigma": g.label_set(sigma),
                    "beta": table.entry(i, sigma),
                }
            )
        if graded.get((i, sigma.bit_count()), 0) < 1:
            out.append(
                {
                    "check": "star-components-coarse",
                    "i": i,
                    "j": sigma.bit_count(),
                }
            )
    return out


def _assert_t25(g, field, caps, ctx):
    """Disjoint star families with 3-disjoint representatives witness nonzero
    entries and carry resolution certificates."""
    table = ctx.table(field)
    out = []
    for sigma, fam in ctx.of(_bouquets):
        ok, err = ctx.certified(fam)
        beta = table.entry(fam.value, fam.sigma)
        if beta < 1:
            out.append(
                {
                    "check": "betti-positive",
                    "i": fam.value,
                    "sigma": g.label_set(sigma),
                    "beta": beta,
                }
            )
        if not ok:
            out.append(
                {"check": "certificate", "family": fam.to_json(g), "error": err}
            )
    return out


def _assert_p51(g, field, caps, ctx):
    """Top-strand entries count complement components: beta_{|sigma|-1, sigma}
    = c(G_sigma) - 1."""
    table = ctx.table(field)
    out = []
    for sigma, expected in ctx.of(_top_strand):
        got = table.entry(sigma.bit_count() - 1, sigma)
        if got != expected:
            out.append(
                {
                    "check": "top-strand",
                    "sigma": g.label_set(sigma),
                    "expected": expected,
                    "got": got,
                }
            )
    return out


def _assert_c52(g, field, caps, ctx):
    """Co-chordal graphs have linear tables and every nonzero positive-degree
    entry is witnessed by one spanning block."""
    if not ctx.of(is_cochordal):
        return None
    table = ctx.table(field)
    out = []
    for i, s, v in table.nonzero():
        if i < 1:
            continue
        if s.bit_count() != i + 1:
            out.append(
                {"check": "linear-table", "i": i, "sigma": g.label_set(s), "beta": v}
            )
            continue
        fam = ctx.of(witness_for, i, s)
        if fam is None or fam.r != 1:
            out.append({"check": "spanning-block", "i": i, "sigma": g.label_set(s)})
    return out


def _assert_c54(g, field, caps, ctx):
    """Co-chordal projective dimension is the largest block size minus one,
    and the regularity is one."""
    if not ctx.of(is_cochordal):
        return None
    table = ctx.table(field)
    out = []
    closed = ctx.of(cochordal_pd)
    if closed != table.pd():
        out.append({"check": "pd-formula", "closed": closed, "table": table.pd()})
    if g.edge_count() > 0:
        if table.reg() != 1:
            out.append({"check": "reg=1", "reg": table.reg()})
        if ctx.of(a_number) != 1:
            out.append({"check": "a=1", "a": ctx.of(a_number)})
    return out


def _assert_t58(g, field, caps, ctx):
    """Ferrers tables: positive-degree entries are exactly the induced
    complete bipartite subgraphs, each with multiplicity one."""
    if not ctx.of(is_ferrers):
        return None
    table = ctx.table(field)
    blocks = ctx.of(_complete_bipartite)
    out = []
    positive = {(i, s): v for i, s, v in table.nonzero() if i >= 1}
    for (i, s), v in positive.items():
        if s.bit_count() != i + 1 or s not in blocks or v != 1:
            out.append(
                {
                    "check": "entry-shape",
                    "i": i,
                    "sigma": g.label_set(s),
                    "beta": v,
                }
            )
    for sigma in blocks:
        if positive.get((sigma.bit_count() - 1, sigma)) != 1:
            out.append(
                {
                    "check": "induced-block-entry",
                    "sigma": g.label_set(sigma),
                }
            )
    return out


def _assert_t61(g, field, caps, ctx):
    """One row per extremal cover-ideal entry beta_{r,sigma}(I(G)*) that
    differs from beta_{|sigma|-r,sigma}(S/I(G))."""
    if g.edge_count() == 0:
        return []
    cover, table = ctx.cover_table(field), ctx.table(field)
    out = []
    for r, sigma in cover.extremal():
        dual, quotient = cover.entry(r, sigma), table.entry(sigma.bit_count() - r, sigma)
        if dual != quotient:
            out.append(
                {"check": "extremal-duality", "r": r, "sigma": g.label_set(sigma), "dual": dual, "quotient": quotient}
            )
    return out


def _assert_t62(g, field, caps, ctx):
    """One row per pd/reg pair that does not swap: reg(I(G)*) = pd(S/I(G))
    and pd(I(G)*) = reg(S/I(G))."""
    if g.edge_count() == 0:
        return []
    cover, table = ctx.cover_table(field), ctx.table(field)
    pairs = (
        ("reg(dual)", cover.reg(), "pd(quotient)", table.pd()),
        ("pd(dual)", cover.pd(), "reg(quotient)", table.reg()),
    )
    return [
        {"check": "dual-pd-reg-swap", "lhs": lhs, "left": left, "rhs": rhs, "right": right}
        for lhs, left, rhs, right in pairs
        if left != right
    ]


def _reduction(g: SimpleGraph):
    """acyclic_reduction(G), or None when G is not unmixed bipartite."""
    try:
        return acyclic_reduction(g)
    except ValueError:
        return None


def _basis_families(red):
    """P6.6's field-free part: per maximal Boolean basis of the reduction's
    poset, the family extracted in ghat and lifted to G (None when that
    fails) and the violations found without a table."""
    maximal = maximal_boolean_bases(red.poset)
    out = []
    for basis in maximal:
        try:
            fam = lift_family(red, extract_family(red.ghat, basis, maximal))
        except Exception as exc:
            out.append(
                (
                    None,
                    [
                        {
                            "check": "extraction",
                            "basis": repr(basis),
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    ],
                )
            )
            continue
        found = []
        if fam.sigma != red.lift(basis.degree) or fam.r != basis.i:
            found.append(
                {"check": "degree-match", "basis": repr(basis), "family": fam.to_json(red.graph)}
            )
        out.append((fam, found))
    return out


def _assert_p66(g, field, caps, ctx):
    """Maximal Boolean bases of the poset resolution extract valid families
    on exactly the basis multidegree."""
    if not ctx.is_cm():
        return None
    table = ctx.table(field)
    out = []
    for fam, found in ctx.basis_families():
        out.extend(found)
        if fam is not None and table.entry(fam.value, fam.sigma) < 1:
            out.append(
                {"check": "betti-positive", "i": fam.value, "sigma": g.label_set(fam.sigma)}
            )
    return out


def _assert_c67(g, field, caps, ctx):
    if not ctx.is_cm():
        return None
    table = ctx.table(field)
    if table.reg() != ctx.of(a_number):
        return [{"check": "reg=a", "reg": table.reg(), "a": ctx.of(a_number)}]
    return []


def _assert_c68(g, field, caps, ctx):
    """Closed-form projective dimension of CM bipartite graphs matches the
    table and the exhaustive family search."""
    if not ctx.is_cm():
        return None
    table = ctx.table(field)
    out = []
    closed = ctx.of(_reduction).t
    if closed != table.pd():
        out.append({"check": "pd-formula", "closed": closed, "table": table.pd()})
    witness = ctx.of(max_pd_witness)
    if witness.value != table.pd():
        out.append({"check": "pd-witness", "witness": witness.value, "table": table.pd()})
    return out


def _assert_p72(g, field, caps, ctx):
    if ctx.of(_reduction) is None:
        return None
    table = ctx.table(field)
    closed = ctx.unmixed_witness().value
    if closed != table.pd():
        return [{"check": "pd-formula", "closed": closed, "table": table.pd()}]
    return []


def _assert_t71(g, field, caps, ctx):
    """The weighted dual maximizer lifts to a valid, certified family whose
    value is the projective dimension; the family search agrees."""
    if ctx.of(_reduction) is None:
        return None
    table = ctx.table(field)
    out = []
    w = ctx.unmixed_witness()
    if w.value != table.pd():
        out.append({"check": "pd-equality", "witness": w.value, "table": table.pd()})
    if not is_valid_family(g, w.family):
        out.append({"check": "family-valid", "family": w.family.to_json(g)})
    if table.entry(w.family.value, w.family.sigma) < 1:
        out.append(
            {
                "check": "betti-positive",
                "i": w.family.value,
                "sigma": g.label_set(w.family.sigma),
            }
        )
    ok, err = ctx.certified(w.family)
    if not ok:
        out.append({"check": "certificate", "family": w.family.to_json(g), "error": err})
    search = ctx.of(max_pd_witness)
    if search.value != table.pd():
        out.append({"check": "pd-search", "search": search.value, "table": table.pd()})
    return out


REGISTRY = {
    "T1.1": _assert_t11,
    "T2.2": _assert_t22,
    "T2.3": _assert_t23,
    "T2.4": _assert_t24,
    "T2.5": _assert_t25,
    "P5.1": _assert_p51,
    "C5.2": _assert_c52,
    "C5.4": _assert_c54,
    "T5.8": _assert_t58,
    "T6.1": _assert_t61,
    "T6.2": _assert_t62,
    "P6.6": _assert_p66,
    "C6.7": _assert_c67,
    "C6.8": _assert_c68,
    "P7.2": _assert_p72,
    "T7.1": _assert_t71,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the vertex cap of a campaign whose caps do not set max_n
CAMPAIGN_CAP = 7
# least value of each integer cap
_CAP_MINIMUM = {"max_n": 1, "family_size": 1, "block_vertices": 2}


class Campaign:
    """A graph catalog spec, fields, assertion tags and caps.

    ``graphs`` is a catalog spec object (see ``catalog.generate_catalog``);
    ``fields`` and ``assertions`` are non-empty lists of field names and
    registry tags (an empty one would check nothing and pass), each naming
    a field or tag once (a repeat would only repeat rows); ``caps`` may
    set the integers ``max_n`` (vertex cap, default ``CAMPAIGN_CAP``, at least 1),
    ``family_size`` (most blocks in a T1.1 family, default 2, at least 1)
    and ``block_vertices`` (most vertices in a T1.1 block, default 5, at
    least 2).  Malformed fields raise ``ValueError``.

    ``seed`` is an integer label copied into the report; nothing reads it,
    because every catalog is exhaustive and every assertion deterministic.
    """

    __slots__ = ("name", "graphs", "fields", "caps", "assertions", "seed")

    def __init__(self, name, graphs, fields, assertions, caps=None, seed=0):
        self.name = name
        if not isinstance(graphs, dict):
            raise ValueError(f"campaign 'graphs' must be a catalog spec object, got {graphs!r}")
        self.graphs = graphs
        if not isinstance(fields, (list, tuple)) or not all(isinstance(f, str) for f in fields):
            raise ValueError(f"campaign 'fields' must be a list of field names, got {fields!r}")
        if not fields:
            raise ValueError("campaign 'fields' must name at least one field")
        seen: dict = {}
        for f in fields:
            spec = FieldSpec.parse(f)
            if spec in seen:
                raise ValueError(f"campaign 'fields' names {spec!r} twice: {seen[spec]!r} and {f!r}")
            seen[spec] = f
        self.fields = list(fields)
        if caps is None:
            caps = {}
        if not isinstance(caps, dict):
            raise ValueError(f"campaign 'caps' must be an object, got {caps!r}")
        check_keys(caps, _CAP_MINIMUM, "campaign caps")
        for key, least in _CAP_MINIMUM.items():
            if key in caps and not (_is_int(caps[key]) and caps[key] >= least):
                raise ValueError(f"caps.{key} must be an integer >= {least}, got {caps[key]!r}")
        self.caps = dict(caps)
        if not isinstance(assertions, (list, tuple)) or not all(
            isinstance(a, str) for a in assertions
        ):
            raise ValueError(f"campaign 'assertions' must be a list of tags, got {assertions!r}")
        if not assertions:
            raise ValueError("campaign 'assertions' must name at least one tag")
        unknown = [a for a in assertions if a not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown assertion tags: {unknown}")
        repeated = sorted({a for a in assertions if assertions.count(a) > 1})
        if repeated:
            raise ValueError(f"campaign 'assertions' repeat tags: {repeated}")
        self.assertions = list(assertions)
        if not _is_int(seed):
            raise ValueError(f"campaign 'seed' must be an integer, got {seed!r}")
        self.seed = seed

    @classmethod
    def from_json(cls, obj) -> "Campaign":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("campaign JSON must be an object")
        check_keys(obj, ("name", "graphs", "fields", "assertions", "caps", "seed"), "campaign")
        missing = [key for key in ("graphs", "assertions") if key not in obj]
        if missing:
            raise ValueError(f"campaign needs {' and '.join(map(repr, missing))}")
        return cls(
            name=obj.get("name", "campaign"),
            graphs=obj["graphs"],
            fields=obj.get("fields", ["gf2"]),
            assertions=obj["assertions"],
            caps=obj.get("caps"),
            seed=obj.get("seed", 0),
        )

    @classmethod
    def load(cls, path) -> "Campaign":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


class Report:
    __slots__ = ("campaign", "results", "timing")

    def __init__(self, campaign: Campaign, results, timing=None):
        self.campaign = campaign
        self.results = results
        self.timing = timing

    @property
    def ok(self) -> bool:
        return all(r["status"] != "violation" for r in self.results)

    def summary(self) -> dict:
        counts = {"ok": 0, "violation": 0, "skipped": 0}
        for r in self.results:
            counts[r["status"]] += 1
        return counts

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA,
            "campaign": self.campaign.name,
            "seed": self.campaign.seed,
            "caps": self.campaign.caps,
            "fields": self.campaign.fields,
            "assertions": self.campaign.assertions,
            "summary": self.summary(),
            "results": self.results,
        }
        if self.timing is not None:
            out["timing"] = self.timing
        return out

    def to_csv(self) -> str:
        # imported here: a run without --csv never needs it; a field is quoted
        # only when it holds a comma, a quote or a line break
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("graph", "n", "field", "assertion", "status", "violations"))
        writer.writerows(
            (r["graph"], r["n"], r["field"], r["assertion"], r["status"], len(r["violations"])) for r in self.results
        )
        return out.getvalue()

    def human(self) -> str:
        counts = self.summary()
        lines = [f"campaign {self.campaign.name}: {len(self.results)} checks"]
        for r in self.results:
            if r["status"] == "violation":
                lines.append(f"  VIOLATION {r['graph']} [{r['field']}] {r['assertion']}:")
                for v in r["violations"]:
                    lines.append(f"    {json.dumps(v, sort_keys=True)}")
        lines.append(
            f"ok={counts['ok']} skipped={counts['skipped']} "
            f"violations={counts['violation']}"
        )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"


def _run_graphs(campaign: Campaign, timing: bool, graphs):
    """One row list per graph of graphs, a list of (gid, SimpleGraph), with
    one certificate memo for the whole call."""
    certificates: dict = {}
    fields = [(name, FieldSpec.parse(name)) for name in campaign.fields]
    chunks = []
    for gid, g in graphs:
        ctx = _Ctx(g, certificates)
        rows = []
        for fname, field in fields:
            for tag in campaign.assertions:
                t0 = time.monotonic() if timing else None
                got = REGISTRY[tag](g, field, campaign.caps, ctx)
                row = {
                    "graph": gid,
                    "n": g.n,
                    "field": fname,
                    "assertion": tag,
                    "status": "skipped" if got is None else ("ok" if not got else "violation"),
                    "violations": got or [],
                }
                if timing:
                    row["elapsed_ms"] = round(1000 * (time.monotonic() - t0), 3)
                rows.append(row)
        chunks.append(rows)
    return chunks


def run_campaign(campaign: Campaign, workers: int = 1, timing: bool = False) -> Report:
    """Evaluate every assertion on every graph over every field.

    Fewer than one worker is a ValueError, and so is a catalog that holds
    no graph (the campaign would check nothing and pass).  Sizes a catalog
    names (``catalog.catalog_sizes``) are checked against ``caps.max_n``
    before its graphs are generated; other catalogs are checked once built.  w workers
    deal the graphs into strided shares (cost grows along a catalog), one
    process and one certificate memo each, and rows return in catalog order.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cap_n = campaign.caps.get("max_n", CAMPAIGN_CAP)
    named = catalog_sizes(campaign.graphs)
    if named and max(named) > cap_n:
        raise ValueError(
            f"graphs exceed the vertex cap {cap_n}: the catalog names {max(named)} vertices; "
            "raise caps.max_n explicitly"
        )
    catalog = generate_catalog(campaign.graphs)
    if not catalog:
        raise ValueError("the campaign's catalog holds no graph, so it would check nothing and pass")
    oversized = [(gid, g.n) for gid, g in catalog if g.n > cap_n]
    if oversized:
        raise ValueError(
            f"graphs exceed the vertex cap {cap_n}: {oversized[:5]}; "
            "raise caps.max_n explicitly"
        )
    run = partial(_run_graphs, campaign, timing)
    shares = min(workers, len(catalog))
    t0 = time.monotonic()
    if shares <= 1:
        chunks = run(catalog)
    else:
        # imported here: it loads multiprocessing and logging, which a
        # one-worker run and a plain import of the package never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=shares) as pool:
            done = list(pool.map(run, [catalog[k::shares] for k in range(shares)]))
        chunks = [done[j % shares][j // shares] for j in range(len(catalog))]
    results = [row for chunk in chunks for row in chunk]
    timing_info = None
    if timing:
        timing_info = {"total_s": round(time.monotonic() - t0, 3), "workers": workers}
    return Report(campaign, results, timing_info)
