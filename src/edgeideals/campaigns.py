"""Exhaustive theorem-verification campaigns over graph catalogs.

A campaign pairs a graph corpus with a list of named assertions from the
fixed registry; running it evaluates every assertion on every graph over
every requested field and collects violations verbatim.  Reports are
deterministic for fixed inputs regardless of the worker count.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

from .catalog import generate_catalog
from .cm_bipartite import (
    cm_labeling,
    cm_pd,
    extract_family,
    is_cm_bipartite,
    maximal_boolean_bases,
    poset_of_graph,
)
from .graphs import (
    SimpleGraph,
    a_number,
    bipartition,
    c_number,
    is_chordal,
    is_cochordal,
    is_complete_bipartite,
    is_ferrers,
    iter_bits,
)
from .hochster import (
    compare_bcp,
    compare_eagon_reiner,
    cover_betti_table,
    graph_betti_table,
)
from .ideals import is_unmixed
from .linalg import FieldSpec
from .lyubeznik import main_theorem_certificate
from .unmixed import is_unmixed_bipartite, kummini_pd, unmixed_pd_witness
from .witness import (
    DisjointFamily,
    all_blocks,
    bouquet_family,
    cochordal_pd,
    is_valid_family,
    max_pd_witness,
    valid_representatives,
    witness_for,
)

SCHEMA = "edgeideals-report/1"


def _labels(g: SimpleGraph, mask: int) -> list[str]:
    return [g.labels[v] for v in iter_bits(mask)]


class _Ctx:
    """Per-graph cache shared by the assertions of one run.

    It holds, per field, the quotient table of S/I(G) and the table of the
    cover ideal I(G)* (built on first use, shared by T6.1 and T6.2), the
    maximal witness, and ``certificates``, the memo that
    ``main_theorem_certificate`` keys by ordered generator supports and block
    shapes.  The certificate check does not depend on the field, so that memo
    serves every field of the graph.  A context lives for one graph of one
    ``run_campaign`` call.
    """

    def __init__(self, g: SimpleGraph):
        self.g = g
        self._tables: dict[tuple[str, str], object] = {}
        self._max_witness = None
        self.certificates: dict = {}

    def _table(self, kind: str, build, field: FieldSpec):
        key = (kind, repr(field))
        if key not in self._tables:
            self._tables[key] = build(self.g, field)
        return self._tables[key]

    def table(self, field: FieldSpec):
        return self._table("quotient", graph_betti_table, field)

    def cover_table(self, field: FieldSpec):
        return self._table("cover", cover_betti_table, field)

    def max_witness(self):
        if self._max_witness is None:
            self._max_witness = max_pd_witness(self.g)
        return self._max_witness


def _certified(g, fam, memo=None):
    """(ok, error) from running the resolution certificate on a family."""
    try:
        s, sigma = main_theorem_certificate(g, fam, memo)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if s != fam.value or sigma != fam.sigma:
        return False, f"certificate landed at ({s}, {sigma}) instead"
    return True, ""


def _iter_families(blocks, max_r):
    """Index-increasing tuples of pairwise vertex-disjoint blocks."""
    acc: list = []

    def rec(start, mask):
        if acc:
            yield list(acc)
        if len(acc) == max_r:
            return
        for idx in range(start, len(blocks)):
            b = blocks[idx]
            if b.vertices & mask:
                continue
            acc.append(b)
            yield from rec(idx + 1, mask | b.vertices)
            acc.pop()

    yield from rec(0, 0)


def _assert_t11(g, field, caps, ctx):
    """Every valid disjoint family witnesses a nonzero Betti entry and is
    certified by an explicit resolution cycle."""
    table = ctx.table(field)
    blocks = all_blocks(g, max_vertices=int(caps.get("block_vertices", 5)))
    out = []
    for fam_blocks in _iter_families(blocks, int(caps.get("family_size", 2))):
        fam = DisjointFamily(fam_blocks)
        reps = valid_representatives(g, fam)
        if reps is None:
            continue
        beta = table.entry(fam.value, fam.sigma)
        if beta < 1:
            out.append(
                {
                    "check": "betti-positive",
                    "i": fam.value,
                    "sigma": _labels(g, fam.sigma),
                    "beta": beta,
                    "family": fam.to_json(g),
                }
            )
        ok, err = _certified(g, DisjointFamily(fam_blocks, reps), ctx.certificates)
        if not ok:
            out.append(
                {"check": "certificate", "family": fam.to_json(g), "error": err}
            )
    return out


def _assert_t22(g, field, caps, ctx):
    """Regularity dominates the 3-disjoint matching number, and the coarse
    table is the multidegree table summed by support size."""
    table = ctx.table(field)
    out = []
    reg, a = table.reg(), a_number(g)
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
    if not (is_chordal(g) or (bipartition(g) is not None and is_unmixed(g))):
        return None
    table = ctx.table(field)
    reg, a = table.reg(), a_number(g)
    if reg != a:
        return [{"check": "reg=a", "reg": reg, "a": a}]
    return []


def _assert_t24(g, field, caps, ctx):
    """If the induced graph on sigma is a disjoint union of r stars then the
    entry at (|sigma|-r, sigma) is nonzero, as is its coarse image."""
    table = ctx.table(field)
    graded = table.graded()
    out = []
    full = g.vertex_mask()
    sigma = full
    while sigma > 0:
        h = g.induced_subgraph(sigma)
        fam = bouquet_family(h, h.vertex_mask())
        if fam is not None:
            i = sigma.bit_count() - fam.r
            if table.entry(i, sigma) < 1:
                out.append(
                    {
                        "check": "star-components",
                        "i": i,
                        "sigma": _labels(g, sigma),
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
        sigma = (sigma - 1) & full
    return out


def _assert_t25(g, field, caps, ctx):
    """Disjoint star families with 3-disjoint representatives witness nonzero
    entries and carry resolution certificates."""
    table = ctx.table(field)
    out = []
    full = g.vertex_mask()
    sigma = full
    while sigma > 0:
        fam = bouquet_family(g, sigma)
        if fam is not None:
            beta = table.entry(fam.value, fam.sigma)
            if beta < 1:
                out.append(
                    {
                        "check": "betti-positive",
                        "i": fam.value,
                        "sigma": _labels(g, sigma),
                        "beta": beta,
                    }
                )
            ok, err = _certified(g, fam, ctx.certificates)
            if not ok:
                out.append(
                    {"check": "certificate", "family": fam.to_json(g), "error": err}
                )
        sigma = (sigma - 1) & full
    return out


def _assert_p51(g, field, caps, ctx):
    """Top-strand entries count complement components: beta_{|sigma|-1, sigma}
    = c(G_sigma) - 1."""
    table = ctx.table(field)
    out = []
    full = g.vertex_mask()
    sigma = full
    while sigma > 0:
        expected = c_number(g.induced_subgraph(sigma)) - 1
        got = table.entry(sigma.bit_count() - 1, sigma)
        if got != expected:
            out.append(
                {
                    "check": "top-strand",
                    "sigma": _labels(g, sigma),
                    "expected": expected,
                    "got": got,
                }
            )
        sigma = (sigma - 1) & full
    return out


def _assert_c52(g, field, caps, ctx):
    """Co-chordal graphs have linear tables and every nonzero positive-degree
    entry is witnessed by one spanning block."""
    if not is_cochordal(g):
        return None
    table = ctx.table(field)
    out = []
    for i, s, v in table.nonzero():
        if i < 1:
            continue
        if s.bit_count() != i + 1:
            out.append(
                {"check": "linear-table", "i": i, "sigma": _labels(g, s), "beta": v}
            )
            continue
        fam = witness_for(g, i, s)
        if fam is None or fam.r != 1:
            out.append({"check": "spanning-block", "i": i, "sigma": _labels(g, s)})
    return out


def _assert_c54(g, field, caps, ctx):
    """Co-chordal projective dimension is the largest block size minus one,
    and the regularity is one."""
    if not is_cochordal(g):
        return None
    table = ctx.table(field)
    out = []
    closed = cochordal_pd(g)
    if closed != table.pd():
        out.append({"check": "pd-formula", "closed": closed, "table": table.pd()})
    if g.edge_count() > 0:
        if table.reg() != 1:
            out.append({"check": "reg=1", "reg": table.reg()})
        if a_number(g) != 1:
            out.append({"check": "a=1", "a": a_number(g)})
    return out


def _assert_t58(g, field, caps, ctx):
    """Ferrers tables: positive-degree entries are exactly the induced
    complete bipartite subgraphs, each with multiplicity one."""
    if not is_ferrers(g):
        return None
    table = ctx.table(field)
    out = []
    positive = {(i, s): v for i, s, v in table.nonzero() if i >= 1}
    for (i, s), v in positive.items():
        h = g.induced_subgraph(s)
        if s.bit_count() != i + 1 or is_complete_bipartite(h) is None or v != 1:
            out.append(
                {
                    "check": "entry-shape",
                    "i": i,
                    "sigma": _labels(g, s),
                    "beta": v,
                }
            )
    full = g.vertex_mask()
    sigma = full
    while sigma > 0:
        if sigma.bit_count() >= 2:
            h = g.induced_subgraph(sigma)
            if is_complete_bipartite(h) is not None:
                if positive.get((sigma.bit_count() - 1, sigma)) != 1:
                    out.append(
                        {
                            "check": "induced-block-entry",
                            "sigma": _labels(g, sigma),
                        }
                    )
        sigma = (sigma - 1) & full
    return out


def _assert_t61(g, field, caps, ctx):
    if g.edge_count() == 0:
        return []
    report = compare_bcp(ctx.cover_table(field), ctx.table(field))
    if report.ok:
        return []
    return [{"check": "extremal-duality", "note": report.note}]


def _assert_t62(g, field, caps, ctx):
    if g.edge_count() == 0:
        return []
    report = compare_eagon_reiner(ctx.cover_table(field), ctx.table(field))
    if report.ok:
        return []
    return [{"check": "dual-pd-reg-swap", "note": report.note}]


def _assert_p66(g, field, caps, ctx):
    """Maximal Boolean bases of the poset resolution extract valid families
    on exactly the basis multidegree."""
    if not is_cm_bipartite(g):
        return None
    table = ctx.table(field)
    lab = cm_labeling(g)
    p = poset_of_graph(g, lab)
    out = []
    for basis in maximal_boolean_bases(p):
        try:
            fam = extract_family(g, lab, basis)
        except Exception as exc:
            out.append(
                {
                    "check": "extraction",
                    "basis": repr(basis),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        want = 0
        for q in range(p.n):
            if basis.degree >> q & 1:
                want |= 1 << lab.xs[q]
            if basis.degree >> (p.n + q) & 1:
                want |= 1 << lab.ys[q]
        if fam.sigma != want or fam.r != basis.i:
            out.append(
                {"check": "degree-match", "basis": repr(basis), "family": fam.to_json(g)}
            )
        if table.entry(fam.value, fam.sigma) < 1:
            out.append(
                {"check": "betti-positive", "i": fam.value, "sigma": _labels(g, fam.sigma)}
            )
    return out


def _assert_c67(g, field, caps, ctx):
    if not is_cm_bipartite(g):
        return None
    table = ctx.table(field)
    if table.reg() != a_number(g):
        return [{"check": "reg=a", "reg": table.reg(), "a": a_number(g)}]
    return []


def _assert_c68(g, field, caps, ctx):
    """Closed-form projective dimension of CM bipartite graphs matches the
    table and the exhaustive family search."""
    if not is_cm_bipartite(g):
        return None
    table = ctx.table(field)
    out = []
    closed = cm_pd(g)
    if closed != table.pd():
        out.append({"check": "pd-formula", "closed": closed, "table": table.pd()})
    witness = ctx.max_witness()
    if witness.value != table.pd():
        out.append({"check": "pd-witness", "witness": witness.value, "table": table.pd()})
    return out


def _assert_p72(g, field, caps, ctx):
    if not is_unmixed_bipartite(g):
        return None
    table = ctx.table(field)
    closed = kummini_pd(g, field)
    if closed != table.pd():
        return [{"check": "pd-formula", "closed": closed, "table": table.pd()}]
    return []


def _assert_t71(g, field, caps, ctx):
    """The weighted dual maximizer lifts to a valid, certified family whose
    value is the projective dimension; the family search agrees."""
    if not is_unmixed_bipartite(g):
        return None
    table = ctx.table(field)
    out = []
    w = unmixed_pd_witness(g, field)
    if w.value != table.pd():
        out.append({"check": "pd-equality", "witness": w.value, "table": table.pd()})
    if not is_valid_family(g, w.family):
        out.append({"check": "family-valid", "family": w.family.to_json(g)})
    if table.entry(w.family.value, w.family.sigma) < 1:
        out.append(
            {
                "check": "betti-positive",
                "i": w.family.value,
                "sigma": _labels(g, w.family.sigma),
            }
        )
    ok, err = _certified(g, w.family, ctx.certificates)
    if not ok:
        out.append({"check": "certificate", "family": w.family.to_json(g), "error": err})
    search = ctx.max_witness()
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


class Campaign:
    __slots__ = ("name", "graphs", "fields", "caps", "assertions", "seed")

    def __init__(self, name, graphs, fields, assertions, caps=None, seed=0):
        self.name = name
        self.graphs = graphs
        self.fields = [f if isinstance(f, str) else repr(f) for f in fields]
        for f in self.fields:
            FieldSpec.parse(f)
        self.caps = dict(caps or {})
        unknown = [a for a in assertions if a not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown assertion tags: {unknown}")
        self.assertions = list(assertions)
        self.seed = int(seed)

    @classmethod
    def from_json(cls, obj) -> "Campaign":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("campaign JSON must be an object")
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
        lines = ["graph,n,field,assertion,status,violations"]
        for r in self.results:
            lines.append(
                f"{r['graph']},{r['n']},{r['field']},{r['assertion']},"
                f"{r['status']},{len(r['violations'])}"
            )
        return "\n".join(lines) + "\n"

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


def _run_graph(task):
    gid, gjson, fields, caps, assertions, timing = task
    g = SimpleGraph.from_json(gjson)
    ctx = _Ctx(g)
    rows = []
    for fname in fields:
        field = FieldSpec.parse(fname)
        for tag in assertions:
            t0 = time.monotonic() if timing else None
            got = REGISTRY[tag](g, field, caps, ctx)
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
    return rows


def default_workers() -> int:
    raw = os.environ.get("EDGEIDEALS_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_campaign(campaign: Campaign, workers: int | None = None, timing: bool = False) -> Report:
    catalog = generate_catalog(campaign.graphs)
    cap_n = int(campaign.caps.get("max_n", 7))
    oversized = [(gid, g.n) for gid, g in catalog if g.n > cap_n]
    if oversized:
        raise ValueError(
            f"graphs exceed the vertex cap {cap_n}: {oversized[:5]}; "
            "raise caps.max_n explicitly"
        )
    tasks = [
        (gid, g.to_json(), campaign.fields, campaign.caps, campaign.assertions, timing)
        for gid, g in catalog
    ]
    if workers is None:
        workers = default_workers()
    t0 = time.monotonic()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_graph, tasks))
    else:
        chunks = [_run_graph(t) for t in tasks]
    results = [row for chunk in chunks for row in chunk]
    timing_info = None
    if timing:
        timing_info = {"total_s": round(time.monotonic() - t0, 3), "workers": workers}
    return Report(campaign, results, timing_info)
