"""Unmixed bipartite graphs via weighted acyclic reductions.

An unmixed bipartite graph without isolated vertices carries a perfect
matching x_i y_i whose x->y adjacency relation is transitive (cycles are
allowed, unlike the Cohen-Macaulay case).  Collapsing the strongly connected
classes of that relation yields a poset, hence a CM bipartite graph ghat; the
original graph is the blow-up of ghat by the class sizes zeta.  The projective
dimension of S/I(G) is then the maximum of zeta-weighted multidegree size
minus homological degree over the nonzero Betti entries of the dual ideal of
ghat, and a maximizing entry lifts to an explicit disjoint complete bipartite
family in G.
"""

from __future__ import annotations

from .cm_bipartite import (
    CMGraphLabeling,
    Poset,
    _linear_extension,
    _matching_search,
    _relation_arcs,
    _transitive,
    extract_family,
    graph_from_poset,
    maximal_boolean_bases,
)
from .graphs import SimpleGraph, bipartition, bit_list, bits_of, iter_bits
from .hochster import cover_betti_table, graph_betti_table
from .linalg import GF2, FieldSpec
from .witness import CompleteBipartiteSub, DisjointFamily, is_valid_family


def unmixed_labeling(g: SimpleGraph) -> CMGraphLabeling | None:
    """A perfect-matching labeling whose x->y relation is transitive, or None.

    Such a labeling exists exactly when the bipartite graph (no isolated
    vertices) is unmixed; antisymmetry is not required.
    """
    got = _matching_search(g)
    if got is None:
        return None
    return CMGraphLabeling(got[0], got[1])


def directed_relation(g: SimpleGraph, lab: CMGraphLabeling) -> list[int]:
    """Arc masks of the x->y relation; arcs[i] holds j when x_i y_j is an edge
    and i != j.  Raises if the relation is not transitive."""
    arcs = _relation_arcs(g, lab.xs, lab.ys)
    if not _transitive(arcs):
        raise ValueError("labeling relation is not transitive")
    return arcs


class AcyclicReduction:
    """The collapse of an unmixed labeling to a CM poset graph plus weights."""

    __slots__ = ("graph", "labeling", "arcs", "classes", "zeta", "poset", "ghat")

    def __init__(self, graph, labeling, arcs, classes, zeta, poset, ghat):
        self.graph = graph
        self.labeling = labeling
        self.arcs = arcs
        self.classes = classes
        self.zeta = zeta
        self.poset = poset
        self.ghat = ghat

    @property
    def t(self) -> int:
        return len(self.classes)

    def class_of_ghat_vertex(self, w: int) -> int:
        return w if w < self.t else w - self.t

    def lift_vertices(self, w: int) -> int:
        """Original-graph vertex mask blown up from one ghat vertex."""
        cls = self.classes[self.class_of_ghat_vertex(w)]
        side = self.labeling.xs if w < self.t else self.labeling.ys
        return bits_of(side[i] for i in iter_bits(cls))

    def sigma_zeta(self, sigma_hat: int) -> int:
        """zeta-weighted size of a ghat multidegree."""
        return sum(self.zeta[self.class_of_ghat_vertex(w)] for w in iter_bits(sigma_hat))


def acyclic_reduction(g: SimpleGraph) -> AcyclicReduction:
    lab = unmixed_labeling(g)
    if lab is None:
        raise ValueError("graph admits no unmixed labeling")
    arcs = directed_relation(g, lab)
    # the relation is transitive, so two columns share a strongly connected
    # class exactly when they carry arcs both ways
    classes = []
    seen = 0
    for i, out in enumerate(arcs):
        if not seen >> i & 1:
            cls = 1 << i
            for j in iter_bits(out):
                if arcs[j] >> i & 1:
                    cls |= 1 << j
            classes.append(cls)
            seen |= cls
    # class a relates to class b != a when some column of a has an arc into b
    t = len(classes)
    rel = []
    for a, cls in enumerate(classes):
        reach = 0
        for i in iter_bits(cls):
            reach |= arcs[i]
        rel.append(bits_of(b for b in range(t) if b != a and reach & classes[b]))
    # topological order of classes, smallest member breaking ties
    order = _linear_extension(rel)
    comps = [classes[a] for a in order]
    zeta = [m.bit_count() for m in comps]
    pos = {a: k for k, a in enumerate(order)}
    up = [1 << k | bits_of(pos[b] for b in iter_bits(rel[a])) for k, a in enumerate(order)]
    poset = Poset(t, up)
    ghat = graph_from_poset(
        poset,
        x_labels=[f"u{a + 1}" for a in range(t)],
        y_labels=[f"v{a + 1}" for a in range(t)],
    )
    return AcyclicReduction(g, lab, arcs, comps, zeta, poset, ghat)


def is_unmixed_bipartite(g: SimpleGraph) -> bool:
    if bipartition(g) is None or g.n == 0 or any(g.degree(v) == 0 for v in range(g.n)):
        return False
    return unmixed_labeling(g) is not None


def blow_up(p: Poset, zeta) -> SimpleGraph:
    """Replace poset element a with zeta[a] matched columns; x_i y_j is an edge
    exactly when the class of i is below-or-equal the class of j."""
    zeta = list(zeta)
    if len(zeta) != p.n or any(z < 1 for z in zeta):
        raise ValueError("one positive weight per poset element required")
    n = sum(zeta)
    cls = []
    for a, z in enumerate(zeta):
        cls.extend([a] * z)
    labels = [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
    g = SimpleGraph(2 * n, labels=labels)
    for i in range(n):
        for j in range(n):
            if p.leq(cls[i], cls[j]):
                g.add_edge(i, n + j)
    return g


def _dual_scores(red: AcyclicReduction, field: FieldSpec):
    """The Betti table of the dual ideal of ghat over field, and (zeta-weighted
    size - homological degree, degree, sigma-hat) for each nonzero entry."""
    table = cover_betti_table(red.ghat, graph_betti_table(red.ghat, field))
    return table, [(red.sigma_zeta(s) - r, r, s) for r, s, _ in table.nonzero()]


class UnmixedWitness:
    """Chosen maximizer of the weighted dual-table formula plus its lift."""

    __slots__ = ("value", "family", "entry", "maximizers", "reduction")

    def __init__(self, value, family, entry, maximizers, reduction):
        self.value = value
        self.family = family
        self.entry = entry
        self.maximizers = maximizers
        self.reduction = reduction

    def __repr__(self):
        r, s = self.entry
        return (
            f"UnmixedWitness(value={self.value}, entry=(r={r}, "
            f"sigma_hat={bit_list(s)}), maximizers={len(self.maximizers)})"
        )


def lift_family(red: AcyclicReduction, fam_hat: DisjointFamily) -> DisjointFamily:
    """Blow a disjoint family in ghat up to one in the original graph.

    Every ghat vertex expands to its class; representatives expand to the
    matched column of the smallest poset index in each class.
    """
    t = red.t
    blocks = []
    for b in fam_hat.blocks:
        left = 0
        for w in iter_bits(b.left):
            left |= red.lift_vertices(w)
        right = 0
        for w in iter_bits(b.right):
            right |= red.lift_vertices(w)
        blocks.append(CompleteBipartiteSub(left, right))
    reps = None
    if fam_hat.representatives is not None:
        reps = []
        for u, v in fam_hat.representatives:
            if u >= t:
                u, v = v, u
            iu = (red.classes[u] & -red.classes[u]).bit_length() - 1
            iv_cls = red.classes[v - t]
            iv = (iv_cls & -iv_cls).bit_length() - 1
            reps.append((red.labeling.xs[iu], red.labeling.ys[iv]))
    fam = DisjointFamily(blocks, reps)
    if not is_valid_family(red.graph, fam):
        raise RuntimeError("lifted family failed validation")
    return fam


def unmixed_pd_witness(g: SimpleGraph, field: FieldSpec = GF2) -> UnmixedWitness:
    """Maximize the weighted formula, pick the lexicographically smallest
    extremal maximizer, extract its family in ghat, and lift it."""
    red = acyclic_reduction(g)
    return _witness(red, *_dual_scores(red, field))


def _witness(red: AcyclicReduction, table, scored) -> UnmixedWitness:
    """``unmixed_pd_witness`` on a reduction and its ``_dual_scores``."""
    best = max(v for v, _, _ in scored)
    maximizers = sorted(
        ((r, s) for v, r, s in scored if v == best),
        key=lambda e: (bit_list(e[1]), e[0]),
    )
    extremal = set(table.extremal())
    ext_best = max((red.sigma_zeta(s) - r for r, s in extremal), default=None)
    if ext_best != best:
        raise RuntimeError("extremal entries must attain the maximum")
    choices = [e for e in maximizers if e in extremal]
    if not choices:
        raise RuntimeError("no extremal maximizer found")
    r, s = choices[0]
    basis = None
    for b in maximal_boolean_bases(red.poset):
        if b.i == r and b.degree == s:
            basis = b
            break
    if basis is None:
        raise RuntimeError("extremal entry has no maximal Boolean basis")
    ghat_lab = CMGraphLabeling(list(range(red.t)), [red.t + a for a in range(red.t)])
    fam_hat = extract_family(red.ghat, ghat_lab, basis)
    fam = lift_family(red, fam_hat)
    if fam.value != best:
        raise RuntimeError("lifted family value mismatch")
    return UnmixedWitness(best, fam, (r, s), maximizers, red)
