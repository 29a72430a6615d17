"""Unmixed bipartite graphs via weighted acyclic reductions.

An unmixed bipartite graph without isolated vertices carries a perfect
matching x_i y_i whose x->y adjacency relation is transitive (cycles are
allowed, unlike the Cohen-Macaulay case).  Collapsing the strongly connected
classes of that relation yields a poset, hence a CM bipartite graph ghat; the
original graph is the blow-up of ghat by the class sizes zeta.  The projective
dimension of S/I(G) is then the maximum of zeta-weighted multidegree size
minus homological degree over the free bases of the poset's resolution of
the dual ideal of ghat (``free_bases``: every such entry is 1 over every
field, so no Betti table of ghat is built), and a maximizing maximal Boolean
basis lifts to an explicit disjoint complete bipartite family in G.
"""

from __future__ import annotations

from .cm_bipartite import (
    CMGraphLabeling,
    Poset,
    _linear_extension,
    _matching_search,
    _relation_arcs,
    extract_family,
    free_bases,
    graph_from_poset,
    maximal_boolean_bases,
)
from .graphs import SimpleGraph, bipartition, bit_list, bits_of, iter_bits
from .witness import CompleteBipartiteSub, DisjointFamily, is_valid_family


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
    got = _matching_search(g)
    if got is None:
        raise ValueError("graph admits no unmixed labeling")
    lab = CMGraphLabeling(*got)
    arcs = _relation_arcs(g, lab.xs, lab.ys)
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
    return _matching_search(g) is not None


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


def _dual_scores(red: AcyclicReduction):
    """(zeta-weighted size - homological degree, degree, sigma-hat) for each
    free basis of the poset's resolution of the dual ideal of ghat: its
    nonzero Betti entries, each equal to 1 over every field."""
    return [(red.sigma_zeta(b.degree) - b.i, b.i, b.degree) for b in free_bases(red.poset)]


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


def unmixed_pd_witness(g: SimpleGraph) -> UnmixedWitness:
    """Maximize the weighted formula, pick the lexicographically smallest
    extremal maximizer, extract its family in ghat, and lift it."""
    red = acyclic_reduction(g)
    return _witness(red, _dual_scores(red))


def _witness(red: AcyclicReduction, scored) -> UnmixedWitness:
    """``unmixed_pd_witness`` on a reduction and its ``_dual_scores``.

    The extremal entries of the dual table are the maximal Boolean bases of
    the poset, so the chosen entry is read straight off
    ``maximal_boolean_bases`` and extracted as a family in ghat.
    """
    best = max(v for v, _, _ in scored)
    maximizers = sorted(
        ((r, s) for v, r, s in scored if v == best),
        key=lambda e: (bit_list(e[1]), e[0]),
    )
    extremal = {(b.i, b.degree): b for b in maximal_boolean_bases(red.poset)}
    choices = [e for e in maximizers if e in extremal]
    if not choices:
        raise RuntimeError("no extremal maximizer found")
    r, s = choices[0]
    ghat_lab = CMGraphLabeling(list(range(red.t)), [red.t + a for a in range(red.t)])
    fam_hat = extract_family(red.ghat, ghat_lab, extremal[r, s])
    fam = lift_family(red, fam_hat)
    if fam.value != best:
        raise RuntimeError("lifted family value mismatch")
    return UnmixedWitness(best, fam, (r, s), maximizers, red)
