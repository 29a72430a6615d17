"""Unmixed and Cohen-Macaulay bipartite graphs via weighted acyclic reductions.

``acyclic_reduction`` is the one path from a bipartite graph to a poset.
A bipartite graph without isolated vertices is unmixed exactly when it has a
perfect matching x_i y_i whose x->y adjacency relation is transitive
(cycles are allowed), and then every perfect matching has one, so the
reduction reads the first matching it finds and checks it once.
Collapsing the strongly connected classes of that relation yields a poset,
hence a CM bipartite graph ghat; the original graph is the blow-up of ghat
by the class sizes zeta.  The graph is Cohen-Macaulay exactly when every
class is a single column (zeta = 1, so ghat is G relabelled), and then its
projective dimension is the number of poset elements.  In general the
projective dimension of S/I(G) is the maximum of zeta-weighted multidegree
size minus homological degree over the free bases of the poset's resolution
of the dual ideal of ghat (``free_bases``: every such entry is 1 over every
field, so no Betti table of ghat is built), and a maximizing maximal Boolean
basis is extracted as a family in ghat and lifted to an explicit disjoint
complete bipartite family in G.  Cohen-Macaulay families take the same two
steps, the lift being a relabelling.
"""

from __future__ import annotations

from .cm_bipartite import (
    Poset,
    extract_family,
    free_bases,
    graph_from_poset,
    maximal_boolean_bases,
)
from .errors import NoLabelingError
from .graphs import SimpleGraph, bipartition, bit_list, bits_of, iter_bits
from .witness import CompleteBipartiteSub, DisjointFamily, is_valid_family


class AcyclicReduction:
    """The collapse of an unmixed labeling to a CM poset graph plus weights;
    column i of the labeling is the matching edge xs[i] ys[i]."""

    __slots__ = ("graph", "xs", "ys", "arcs", "classes", "zeta", "poset", "ghat")

    def __init__(self, graph, xs, ys, arcs, classes, zeta, poset, ghat):
        self.graph = graph
        self.xs = xs
        self.ys = ys
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

    @property
    def is_cm(self) -> bool:
        """Every class is a single column (zeta = 1): G is Cohen-Macaulay."""
        return all(z == 1 for z in self.zeta)

    def lift(self, mask_hat: int) -> int:
        """Original-graph vertex mask blown up from a ghat vertex mask."""
        out = 0
        for w in iter_bits(mask_hat):
            cls = self.classes[self.class_of_ghat_vertex(w)]
            side = self.xs if w < self.t else self.ys
            out |= bits_of(side[i] for i in iter_bits(cls))
        return out

    def sigma_zeta(self, sigma_hat: int) -> int:
        """zeta-weighted size of a ghat multidegree."""
        return sum(self.zeta[self.class_of_ghat_vertex(w)] for w in iter_bits(sigma_hat))


def _augment(adj, ys: int, partner, holder, start: int, blocked: int):
    """Match start, which has no partner, by a shortest augmenting path into
    the mask ys that avoids the ys in blocked, and return the y it newly
    matched; None, and nothing changed, if there is none.  partner maps x to
    y and holder y to x."""
    seen = blocked
    via = {}
    queue = [start]
    for x in queue:
        for y in iter_bits(adj[x] & ys & ~seen):
            seen |= 1 << y
            via[y] = x
            if y not in holder:
                end = y
                # flip the path back to start
                while True:
                    x = via[y]
                    prev = partner.get(x)
                    partner[x], holder[y] = y, x
                    if x == start:
                        return end
                    y = prev
            queue.append(holder[y])
    return None


def _first_matching(g: SimpleGraph, xs, ys: int):
    """The partners of xs in the first perfect matching onto the mask ys,
    with xs in order each taking the least y that leaves the rest a perfect
    matching; None if there is none.

    This is the matching a depth-first search over the candidates finds, in
    polynomial time: augmenting paths (Kuhn) build one perfect matching M,
    and x can take an earlier y exactly when, after fixing x y and freeing
    M(x), the x that M gave y has an augmenting path that avoids the fixed
    ys.
    """
    if len(xs) != ys.bit_count():
        return None
    adj = g.adj
    partner: dict[int, int] = {}
    holder: dict[int, int] = {}
    taken = 0
    for x in xs:
        # the first free candidate, else an augmenting path
        free = adj[x] & ys & ~taken
        if free:
            y = (free & -free).bit_length() - 1
            partner[x], holder[y] = y, x
        else:
            y = _augment(adj, ys, partner, holder, x, 0)
            if y is None:
                return None
        taken |= 1 << y
    fixed = 0
    for x in xs:
        held = partner[x]
        for y in iter_bits(adj[x] & ys & ~fixed & ((1 << held) - 1)):
            # try x y: the x that held y needs another y, and M(x) is free
            other = holder[y]
            partner[x], holder[y] = y, x
            del partner[other], holder[held]
            if _augment(adj, ys, partner, holder, other, fixed | 1 << y) is not None:
                break
            partner[x], holder[y] = held, other
            partner[other], holder[held] = y, x
        fixed |= 1 << partner[x]
    return [partner[x] for x in xs]


def _relation_arcs(g: SimpleGraph, xs, ys):
    """arcs[i]: the mask of the columns j != i with x_i y_j an edge."""
    n = len(xs)
    arcs = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and g.has_edge(xs[i], ys[j]):
                arcs[i] |= 1 << j
    return arcs


def _transitive(arcs) -> bool:
    n = len(arcs)
    for i in range(n):
        reach = 0
        for j in iter_bits(arcs[i]):
            reach |= arcs[j]
        if reach & ~arcs[i] & ~(1 << i):
            return False
    return True


def _linear_extension(arcs) -> list[int]:
    """Indices 0..n-1 in the order that repeatedly takes the smallest index
    with no arc into it from an index not yet taken; arcs[i] is the mask of
    the heads of the arcs out of i, and self-arcs are ignored."""
    into = [0] * len(arcs)
    for i, mask in enumerate(arcs):
        for j in iter_bits(mask & ~(1 << i)):
            into[j] |= 1 << i
    order = []
    left = (1 << len(arcs)) - 1
    while left:
        for j in iter_bits(left):
            if not into[j] & left:
                break
        else:
            raise RuntimeError("relation must be acyclic")
        order.append(j)
        left &= ~(1 << j)
    return order


def acyclic_reduction(g: SimpleGraph) -> AcyclicReduction:
    """The reduction of the first perfect matching, component by component
    with the first side of ``bipartition`` as x.  Raises ``ValueError``
    unless G is a nonempty bipartite graph without isolated vertices, and its
    subclass ``NoLabelingError`` when such a G is not unmixed.

    Any perfect matching decides: if G is unmixed, each side of a component
    is a minimal vertex cover of it, so every maximal independent set holds
    one end of each matching edge; were x_i y_j and x_j y_k edges and
    x_i y_k not, a maximal independent set through x_i and y_k could hold
    neither x_j nor y_j.  So every perfect matching of an unmixed G has a
    transitive relation, and G is unmixed exactly when the first one has.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    parts = bipartition(g)
    if parts is None:
        raise ValueError("graph is not bipartite")
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise ValueError("isolated vertices are not allowed here")
    xs: list[int] = []
    ys: list[int] = []
    for comp in g.components():
        xcand = bit_list(parts[0] & comp)
        partners = _first_matching(g, xcand, parts[1] & comp)
        if partners is None:
            raise NoLabelingError("graph admits no unmixed labeling")
        xs.extend(xcand)
        ys.extend(partners)
    arcs = _relation_arcs(g, xs, ys)
    if not _transitive(arcs):
        raise NoLabelingError("graph admits no unmixed labeling")
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
    return AcyclicReduction(g, xs, ys, arcs, comps, zeta, poset, ghat)


def is_unmixed_bipartite(g: SimpleGraph) -> bool:
    try:
        acyclic_reduction(g)
    except ValueError:
        return False
    return True


def is_cm_bipartite(g: SimpleGraph) -> bool:
    """Unmixed bipartite, with every class of the reduction a single column."""
    try:
        return acyclic_reduction(g).is_cm
    except ValueError:
        return False


def cm_pd(g: SimpleGraph) -> int:
    """Projective dimension of S/I(G) for a CM bipartite graph: the number of
    poset elements.  Every free basis e(I, T) has |multidegree| = n + i, so
    |multidegree| - homological degree is n on each of them."""
    red = acyclic_reduction(g)
    if not red.is_cm:
        raise ValueError("graph is unmixed but not Cohen-Macaulay")
    return red.t


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

    __slots__ = ("value", "family", "entry", "maximizers")

    def __init__(self, value, family, entry, maximizers):
        self.value = value
        self.family = family
        self.entry = entry
        self.maximizers = maximizers

    def __repr__(self):
        r, s = self.entry
        return (
            f"UnmixedWitness(value={self.value}, entry=(r={r}, "
            f"sigma_hat={bit_list(s)}), maximizers={len(self.maximizers)})"
        )


def lift_family(red: AcyclicReduction, fam_hat: DisjointFamily) -> DisjointFamily:
    """Blow a disjoint family in ghat up to one in the original graph.

    Every ghat vertex expands to its class; representatives expand to the
    matched column of the smallest poset index in each class.  When every
    class is one column, this only relabels the family.
    """
    t = red.t
    blocks = [CompleteBipartiteSub(red.lift(b.left), red.lift(b.right)) for b in fam_hat.blocks]
    reps = None
    if fam_hat.representatives is not None:
        reps = []
        for u, v in fam_hat.representatives:
            if u >= t:
                u, v = v, u
            iu = (red.classes[u] & -red.classes[u]).bit_length() - 1
            iv_cls = red.classes[v - t]
            iv = (iv_cls & -iv_cls).bit_length() - 1
            reps.append((red.xs[iu], red.ys[iv]))
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
    maximal = maximal_boolean_bases(red.poset)
    extremal = {(b.i, b.degree): b for b in maximal}
    choices = [e for e in maximizers if e in extremal]
    if not choices:
        raise RuntimeError("no extremal maximizer found")
    r, s = choices[0]
    fam = lift_family(red, extract_family(red.ghat, extremal[r, s], maximal))
    if fam.value != best:
        raise RuntimeError("lifted family value mismatch")
    return UnmixedWitness(best, fam, (r, s), maximizers)
