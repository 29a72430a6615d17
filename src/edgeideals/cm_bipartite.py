"""Posets, their poset graphs, and extremal free bases.

A Cohen-Macaulay bipartite graph is the poset graph of a poset P on n
points: x_i y_j is an edge exactly when i <= j.  ``unmixed.acyclic_reduction``,
the one path from a graph to a poset, reads P off a graph, and
``graph_from_poset`` builds the graph of P back.  The dual of the edge ideal
of a poset graph is generated by one monomial per poset ideal of P, its
minimal free resolution has basis elements indexed by pairs (ideal,
complementary antichain), and the extremal basis elements correspond to
maximal Boolean intervals in the lattice of poset ideals.  Extracting a
vertex-disjoint complete bipartite family from a maximal basis witnesses the
closed-form projective dimension.
"""

from __future__ import annotations

from .graphs import SimpleGraph, bit_list, bits_of, canonical_form, iter_bits
from .ideals import MonomialIdeal
from .witness import CompleteBipartiteSub, DisjointFamily


class Poset:
    """Finite poset on 0..n-1; up[i] is the bitmask of j with p_i <= p_j."""

    __slots__ = ("n", "up")

    def __init__(self, n, up):
        self.n = n
        self.up = list(up)
        for i in range(n):
            if not self.up[i] >> i & 1:
                raise ValueError("order must be reflexive")
            for j in iter_bits(self.up[i]):
                if i != j and self.up[j] >> i & 1:
                    raise ValueError("order must be antisymmetric")
                if self.up[j] & ~self.up[i]:
                    raise ValueError("order must be transitive")

    @classmethod
    def from_relations(cls, n, pairs) -> "Poset":
        """Reflexive-transitive closure of the given i <= j pairs."""
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            up[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                grown = up[i]
                for j in iter_bits(up[i]):
                    grown |= up[j]
                if grown != up[i]:
                    up[i] = grown
                    changed = True
        return cls(n, up)

    def leq(self, i, j) -> bool:
        return bool(self.up[i] >> j & 1)

    def down_mask(self, i) -> int:
        return bits_of(j for j in range(self.n) if self.leq(j, i))

    def maximal_of(self, mask: int) -> int:
        out = 0
        for i in iter_bits(mask):
            if self.up[i] & mask == 1 << i:
                out |= 1 << i
        return out

    def ideals(self) -> list[int]:
        """All poset ideals (down-sets), by peeling maximal elements: the
        ideals of a set are those of the set without its top maximal element
        m, plus m added to each of them that holds everything below m."""
        peeled = []
        mask = (1 << self.n) - 1
        while mask:
            m = self.maximal_of(mask).bit_length() - 1
            peeled.append(m)
            mask &= ~(1 << m)
        out = [0]
        for m in reversed(peeled):
            need = self.down_mask(m) & ~(1 << m)
            out = sorted(out + [d | 1 << m for d in out if need & ~d == 0])
        return out

    def canonical_key(self) -> tuple:
        """``canonical_form`` of the side-marked poset graph: x_i ~ y_j for
        i <= j (i = j included), plus an apex z ~ every x_i.  It is complete:

        - the graph is connected and bipartite with sides X (k vertices) and
          Y + z (k + 1), so every isomorphism maps X to X;
        - if z goes to y_m, then y_m is adjacent to all of X, so m is the
          maximum of its poset, as is the preimage of z; swapping z with that
          twin gives an isomorphism that fixes z;
        - row x_i is the up-set of i, and i <= j iff up(i) contains up(j), so
          the map on X is a poset isomorphism.

        Without the apex, V and Lambda would collide, as would V + 2-chain and
        Lambda + 2-chain: a component can flip sides on its own.
        """
        k = self.n
        g = SimpleGraph(2 * k + 1)
        for i, row in enumerate(self.up):
            g.adj[i] = row << k | 1 << 2 * k
            for j in iter_bits(row):
                g.adj[k + j] |= 1 << i
        g.adj[2 * k] = (1 << k) - 1
        return canonical_form(g)

    def __repr__(self):
        rels = [
            (i, j)
            for i in range(self.n)
            for j in iter_bits(self.up[i])
            if i != j
        ]
        return f"Poset(n={self.n}, relations={rels})"


def graph_from_poset(p: Poset, x_labels=None, y_labels=None) -> SimpleGraph:
    n = p.n
    if x_labels is None:
        x_labels = [f"x{i + 1}" for i in range(n)]
    if y_labels is None:
        y_labels = [f"y{i + 1}" for i in range(n)]
    g = SimpleGraph(2 * n, labels=list(x_labels) + list(y_labels))
    for i in range(n):
        for j in iter_bits(p.up[i]):
            g.add_edge(i, n + j)
    return g


def hg_generators(p: Poset) -> MonomialIdeal:
    """The dual ideal: one squarefree generator per poset ideal.

    Variables are x_1..x_n, y_1..y_n; the ideal I contributes
    prod_{q in I} x_q * prod_{q not in I} y_q.
    """
    n = p.n
    variables = [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
    full = (1 << n) - 1
    return MonomialIdeal(variables, [ideal | (full & ~ideal) << n for ideal in p.ideals()])


class FreeBasis:
    """Resolution basis element e(I, T): T covers the complement of I and meets
    I only in maximal elements; i = #(I n T) is the homological degree."""

    __slots__ = ("n", "ideal", "tset")

    def __init__(self, n, ideal, tset):
        self.n = n
        self.ideal = ideal
        self.tset = tset

    @property
    def i(self) -> int:
        return (self.ideal & self.tset).bit_count()

    @property
    def degree(self) -> int:
        """Multidegree over x_1..x_n,y_1..y_n as a 2n-bit mask."""
        full = (1 << self.n) - 1
        ybits = (full & ~self.ideal) | (self.ideal & self.tset)
        return self.ideal | ybits << self.n

    def interval(self) -> tuple[int, int]:
        return (self.ideal & ~(self.ideal & self.tset), self.ideal)

    def __eq__(self, other):
        return (
            isinstance(other, FreeBasis)
            and (self.n, self.ideal, self.tset) == (other.n, other.ideal, other.tset)
        )

    def __hash__(self):
        return hash((self.n, self.ideal, self.tset))

    def __repr__(self):
        return (
            f"FreeBasis(ideal={bit_list(self.ideal)}, tset={bit_list(self.tset)}, "
            f"i={self.i})"
        )


def free_bases(p: Poset) -> list[FreeBasis]:
    full = (1 << p.n) - 1
    out = []
    for ideal in p.ideals():
        m = p.maximal_of(ideal)
        rest = full & ~ideal
        sub = m
        while True:
            out.append(FreeBasis(p.n, ideal, rest | sub))
            if sub == 0:
                break
            sub = (sub - 1) & m
    return sorted(out, key=lambda b: (b.i, b.ideal, b.tset))


def maximal_boolean_bases(p: Poset) -> list[FreeBasis]:
    """The bases whose interval no other basis interval strictly contains.

    Basis elements biject with Boolean intervals [I minus (I n T), I] in the
    lattice of poset ideals, so interval containment over all bases is an
    exhaustive maximality search.
    """
    bases = free_bases(p)
    intervals = [b.interval() for b in bases]
    out = []
    for b, (lo, hi) in zip(bases, intervals):
        contained = any(
            lo2 & ~lo == 0 and hi & ~hi2 == 0 and (lo2, hi2) != (lo, hi)
            for lo2, hi2 in intervals
        )
        if not contained:
            out.append(b)
    return out


def extract_family(ghat: SimpleGraph, basis: FreeBasis, maximal) -> DisjointFamily:
    """Vertex-disjoint complete bipartite subgraphs with pairwise 3-disjoint
    representatives, carved from a maximal-Boolean basis element.

    ``ghat`` is ``graph_from_poset(p)``, so x_q is vertex q, y_q is vertex
    n + q and the basis multidegree is a vertex mask of ghat; ``maximal`` is
    ``maximal_boolean_bases(p)``, computed once by the caller.  Each maximal
    element l of the basis ideal seeds a block: the vertices of the basis
    multidegree adjacent to x_l or y_l and not claimed by an earlier seed.
    Earlier seeds win ties, so the blocks partition their union and the block
    count equals the homological degree of the basis.  Callers lift the
    family with ``unmixed.lift_family``, which validates it in G.
    """
    if basis not in maximal:
        raise ValueError("basis must be maximal Boolean")
    n = basis.n
    xside = (1 << n) - 1
    support = basis.degree
    blocks = []
    reps = []
    claimed = 0
    for l in iter_bits(basis.ideal & basis.tset):
        cx, cy = l, n + l
        members = 0
        for v in iter_bits(support & ~claimed):
            if v in (cx, cy) or ghat.has_edge(v, cx) or ghat.has_edge(v, cy):
                members |= 1 << v
        claimed |= members
        blocks.append(CompleteBipartiteSub(members & xside, members & ~xside))
        reps.append((cx, cy))
    if claimed != support:
        raise RuntimeError("blocks must exhaust the basis multidegree")
    return DisjointFamily(blocks, reps)
