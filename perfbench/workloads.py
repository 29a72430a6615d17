"""Seeded inputs for the edgeideals benchmark.

Each workload is a fixed list of operations built from a seed.  The program
only ever sees the generated graphs and campaign specs; the seed never
reaches it.  Random graphs are G(n, p, s): on vertices 0..n-1, edge u<v,
taken in lexicographic (u, v) order, is included when the next draw of
``random.Random(s).random()`` is below p.  The k-th random graph of a
workload run with seed S uses s = 1000 * S + k, so two seeds never share a
random graph.

Every list mixes fixed graphs (cycles, paths, complete bipartite graphs),
which carry most of the time and keep a run's cost steady across seeds,
with random graphs, which change with the seed.  Where random graphs vary a
lot in cost (the sparse and Lyubeznik lists), they are few and cheaper than
the fixed operations around the median, so the median operation and the
total time of a pass barely move with the seed.  Every list holds 25
operations: the runner pools every timed operation of a run, so the median
and the 90th percentile fall in the middle of the samples of one operation
(the 13th and the 23rd cheapest), not between two neighbours, and at least
2.5 samples per pass lie beyond the 90th percentile.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
# Never used while tuning the benchmark; a performance claim must also hold here.
HELDOUT_SEED = 7

WHY = {
    "betti-dense-gf2": (
        "Hochster tables over gf2 on dense graphs: the subset walk and component "
        "face enumeration dominate and rank is about a tenth, so it shows "
        "reductions of the walk and is the control for the rank kernel."
    ),
    "betti-sparse-exact": (
        "Hochster tables over rat and gf3 on cycles, paths and sparse graphs: "
        "exact rank dominates, so it shows the elimination kernel; cycle cores "
        "limit what walk reductions can do here."
    ),
    "verify-campaign": (
        "All 16 campaign tags over exhaustive catalogs with cold catalog caches: "
        "certificates, witness search, cover-ideal tables and catalog generation "
        "dominate, as in a real verify run."
    ),
    "lyubeznik-tables": (
        "Ordered-Taylor tables plus max witness and certificate as single "
        "queries: the certificate kernel on many tiny strands, with Hochster "
        "never called, so it is the control for walk and rank changes."
    ),
}
WORKLOADS = tuple(WHY)


class Op:
    """One benchmark operation: a kind, its inputs, and a display name."""

    __slots__ = ("name", "kind", "graph", "field", "spec")

    def __init__(self, name, kind, graph=None, field=None, spec=None):
        self.name = name
        self.kind = kind
        self.graph = graph
        self.field = field
        self.spec = spec


def gnp_edges(n: int, p: float, s: int) -> list[tuple[int, int]]:
    """Edge list of G(n, p, s), exactly as ROADMAP.md defines it."""
    rng = random.Random(s)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _cycle(n):
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


def _kmn(m, n):
    return [(u, m + v) for u in range(m) for v in range(n)]


class _OpList:
    def __init__(self, seed: int):
        self.seed = seed
        self.k = 0
        self.ops: list[Op] = []

    def add_random(self, n, p, kind, fields):
        s = 1000 * self.seed + self.k
        self.k += 1
        self.add(f"G({n},{p:g},{s})", kind, (n, gnp_edges(n, p, s)), fields)

    def add(self, name, kind, graph=None, fields=(None,), spec=None):
        for f in fields:
            label = name if f is None else f"{name}/{f}"
            self.ops.append(Op(label, kind, graph, f, spec))


def _complement(n, edges):
    present = set(edges)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]


def _betti_dense(b: _OpList):
    for m, n in ((5, 5), (4, 6), (5, 6), (4, 7)):
        b.add(f"K{m},{n}", "betti", (m + n, _kmn(m, n)), ("gf2",))
    b.add("coC11", "betti", (11, _complement(11, _cycle(11))), ("gf2",))
    b.add("coP11", "betti", (11, _complement(11, _path(11))), ("gf2",))
    for k in range(19):
        b.add_random(10, (0.5, 0.6, 0.7)[k % 3], "betti", ("gf2",))


def _betti_sparse(b: _OpList):
    fields = ("rat", "gf3")
    for n in (9, 10, 11, 12):
        b.add(f"C{n}", "betti", (n, _cycle(n)), fields)
    for n in (9, 10, 11, 12, 13):
        b.add(f"P{n}", "betti", (n, _path(n)), fields)
    b.add("C13", "betti", (13, _cycle(13)), ("gf3",))
    for _ in range(3):
        b.add_random(9, 0.28, "betti", fields)


def _lyubeznik(b: _OpList):
    fixed = [(f"C{n}", (n, _cycle(n))) for n in (10, 11)] + [(f"P{n}", (n, _path(n))) for n in (11, 12)]
    fixed += [(f"K{m},{n}", (m + n, _kmn(m, n))) for m, n in ((3, 4), (2, 6), (3, 5), (2, 7), (4, 4), (4, 5))]
    for name, graph in fixed:
        b.add(name, "lyubeznik", graph, ("gf2", "rat"))
    b.add("C9", "lyubeznik", (9, _cycle(9)), ("gf2",))
    for _ in range(2):
        b.add_random(7, 0.5, "lyubeznik", ("gf2", "rat"))


def campaign_specs() -> list[dict]:
    """Catalog specs of the verify-campaign operations, one campaign each.

    Small enough that one pass takes a few seconds.
    """
    specs = [{"class": "all", "n": n} for n in range(2, 6)]
    specs += [{"class": c, "n": n} for c in ("connected", "chordal", "cochordal") for n in (4, 5)]
    specs += [{"class": "ferrers", "max_rows": r, "max_cols": c} for r, c in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))]
    specs += [{"class": "cm_posets", "max_elements": k} for k in range(1, 5)]
    specs += [
        {"class": "unmixed_blowups", "max_elements": e, "max_zeta": z, "max_vertices": 8}
        for e, z in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
    ]
    return specs


def _campaign(b: _OpList):
    specs = campaign_specs()
    # the catalogs are exhaustive, so the seed only fixes the order of the list
    random.Random(b.seed).shuffle(specs)
    for spec in specs:
        name = "/".join(str(v) for v in spec.values())
        b.add(name, "campaign", spec=spec)


_LISTS = {
    "betti-dense-gf2": _betti_dense,
    "betti-sparse-exact": _betti_sparse,
    "verify-campaign": _campaign,
    "lyubeznik-tables": _lyubeznik,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of a workload for a seed; graphs are (n, edges) pairs."""
    if workload not in _LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = _OpList(seed)
    _LISTS[workload](b)
    return b.ops
