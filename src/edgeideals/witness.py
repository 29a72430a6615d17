"""Complete bipartite subgraph families witnessing nonzero Betti numbers.

A block is a complete bipartite subgraph (all left-right edges present in G;
edges inside the parts may or may not exist).  A disjoint family is a set of
vertex-disjoint blocks together with one representative edge per block, the
representatives pairwise 3-disjoint in G.  Such a family of r blocks covering
sigma witnesses beta_{|sigma|-r, sigma}(S/I(G)) != 0.
"""

from __future__ import annotations

import json

from .graphs import (
    SimpleGraph,
    bit_list,
    bits_of,
    complement_components,
    is_three_disjoint,
    iter_bits,
    iter_subsets,
)


class CompleteBipartiteSub:
    """Unordered pair of parts, stored with the smallest vertex in `left`."""

    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        if left == 0 or right == 0:
            raise ValueError("both parts must be nonempty")
        if left & right:
            raise ValueError("parts overlap")
        if (right & -right) < (left & -left):
            left, right = right, left
        self.left = left
        self.right = right

    @property
    def vertices(self) -> int:
        return self.left | self.right

    @property
    def size(self) -> int:
        return self.vertices.bit_count()

    def type(self) -> tuple[int, int]:
        m, n = self.left.bit_count(), self.right.bit_count()
        return (m, n) if m <= n else (n, m)

    def contains(self, other: "CompleteBipartiteSub") -> bool:
        return (other.left & ~self.left == 0 and other.right & ~self.right == 0) or (
            other.left & ~self.right == 0 and other.right & ~self.left == 0
        )

    def __eq__(self, other):
        return (
            isinstance(other, CompleteBipartiteSub)
            and (self.left, self.right) == (other.left, other.right)
        )

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"Block({bit_list(self.left)}|{bit_list(self.right)})"


class DisjointFamily:
    __slots__ = ("blocks", "representatives")

    def __init__(self, blocks, representatives=None):
        self.blocks = list(blocks)
        if representatives is not None:
            representatives = [tuple(sorted(e)) for e in representatives]
            if len(representatives) != len(self.blocks):
                raise ValueError("one representative per block required")
        self.representatives = representatives

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def sigma(self) -> int:
        m = 0
        for b in self.blocks:
            m |= b.vertices
        return m

    @property
    def value(self) -> int:
        """|sigma| - r, the homological degree the family witnesses."""
        return self.sigma.bit_count() - self.r

    def to_json(self, g: SimpleGraph) -> dict:
        out = {
            "blocks": [
                {"left": g.label_set(b.left), "right": g.label_set(b.right)}
                for b in self.blocks
            ]
        }
        if self.representatives is not None:
            out["representatives"] = [
                [g.labels[u], g.labels[v]] for u, v in self.representatives
            ]
        return out

    @classmethod
    def from_json(cls, g: SimpleGraph, obj) -> "DisjointFamily":
        if isinstance(obj, str):
            obj = json.loads(obj)

        def vert(x):
            return g.index_of(x) if isinstance(x, str) else int(x)

        blocks = [
            CompleteBipartiteSub(
                bits_of(vert(v) for v in blk["left"]),
                bits_of(vert(v) for v in blk["right"]),
            )
            for blk in obj["blocks"]
        ]
        reps = obj.get("representatives")
        if reps is not None:
            reps = [(vert(u), vert(v)) for u, v in reps]
        return cls(blocks, reps)

    def __repr__(self):
        return f"DisjointFamily(blocks={self.blocks}, reps={self.representatives})"


def is_block(g: SimpleGraph, block: CompleteBipartiteSub) -> bool:
    """All left-right pairs must be edges of G."""
    for u in iter_bits(block.left):
        if block.right & ~g.adj[u]:
            return False
    return True


def representative_in(block: CompleteBipartiteSub, edge) -> bool:
    u, v = edge
    um, vm = 1 << u, 1 << v
    return bool(
        (um & block.left and vm & block.right) or (um & block.right and vm & block.left)
    )


def find_representatives(g: SimpleGraph, blocks) -> list[tuple[int, int]] | None:
    """One cross edge per block, pairwise 3-disjoint in G; None if impossible."""
    per_block = []
    for b in blocks:
        cross = [
            (u, v) if u < v else (v, u)
            for u in iter_bits(b.left)
            for v in iter_bits(b.right)
        ]
        per_block.append(cross)
    order = sorted(range(len(blocks)), key=lambda k: len(per_block[k]))
    chosen: list[tuple[int, int] | None] = [None] * len(blocks)

    def place(pos: int) -> bool:
        if pos == len(order):
            return True
        k = order[pos]
        for e in per_block[k]:
            if all(
                chosen[order[q]] is None or is_three_disjoint(g, e, chosen[order[q]])
                for q in range(pos)
            ):
                chosen[k] = e
                if place(pos + 1):
                    return True
                chosen[k] = None
        return False

    if place(0):
        return [e for e in chosen]  # type: ignore[misc]
    return None


def valid_representatives(g: SimpleGraph, fam: DisjointFamily) -> list[tuple[int, int]] | None:
    """The representatives of a valid family, or None when it is not valid.

    Valid means vertex-disjoint genuine blocks with pairwise 3-disjoint
    representatives.  A family that carries representatives gets them checked
    and returned; otherwise one assignment is searched for and returned.
    """
    used = 0
    for b in fam.blocks:
        if b.vertices & used:
            return None
        used |= b.vertices
        if b.vertices & ~g.vertex_mask():
            return None
        if not is_block(g, b):
            return None
    if not fam.blocks:
        return None
    reps = fam.representatives
    if reps is None:
        return find_representatives(g, fam.blocks)
    for e, b in zip(reps, fam.blocks):
        if not g.has_edge(*e) or not representative_in(b, e):
            return None
    # 3-disjoint: neither edge meets the other's closed neighbourhood
    ends = [1 << u | 1 << v for u, v in reps]
    for a, (u, v) in enumerate(reps):
        near = ends[a] | g.adj[u] | g.adj[v]
        if any(near & ends[b2] for b2 in range(a + 1, len(reps))):
            return None
    return reps


def is_valid_family(g: SimpleGraph, fam: DisjointFamily) -> bool:
    """Vertex-disjoint genuine blocks with pairwise 3-disjoint representatives.

    When the family carries no representatives, an assignment is searched for;
    validity then means some assignment exists.
    """
    return valid_representatives(g, fam) is not None


def all_blocks(
    g: SimpleGraph, max_vertices: int | None = None, within: int | None = None
) -> list[CompleteBipartiteSub]:
    """Every complete bipartite subgraph (as a block), canonically deduplicated.

    Enumerates left parts by increasing smallest vertex while intersecting
    common neighborhoods, so each unordered block appears exactly once.
    """
    if within is None:
        within = g.vertex_mask()
    cap = max_vertices if max_vertices is not None else g.n
    out: list[CompleteBipartiteSub] = []

    def extend(lmask: int, common: int, next_from: int):
        lsize = lmask.bit_count()
        if lmask:
            low = (lmask & -lmask).bit_length() - 1
            allowed = common & ~((1 << (low + 1)) - 1)
            for rmask in iter_subsets(allowed):
                if rmask and lsize + rmask.bit_count() <= cap:
                    out.append(CompleteBipartiteSub(lmask, rmask))
        if lsize + 2 > cap:
            return
        rest = within & ~((1 << next_from) - 1)
        for v in iter_bits(rest):
            new_common = (common if lmask else within) & g.adj[v] & within
            if new_common:
                extend(lmask | 1 << v, new_common, v + 1)

    extend(0, 0, 0)
    return out


def enumerate_blocks(g: SimpleGraph, sigma_cap: int | None = None) -> list[CompleteBipartiteSub]:
    """Inclusion-maximal blocks among those with at most sigma_cap vertices."""
    blocks = all_blocks(g, max_vertices=sigma_cap)
    blocks.sort(key=lambda b: -b.size)
    maximal: list[CompleteBipartiteSub] = []
    for b in blocks:
        if not any(big.contains(b) for big in maximal):
            maximal.append(b)
    return maximal


class WitnessResult:
    __slots__ = ("value", "family")

    def __init__(self, value: int, family: DisjointFamily | None):
        self.value = value
        self.family = family

    def __repr__(self):
        return f"WitnessResult(value={self.value}, family={self.family})"


def max_pd_witness(
    g: SimpleGraph, max_block_vertices: int | None = None
) -> WitnessResult:
    """Exact maximum of |sigma| - r over valid disjoint families (branch and bound)."""
    blocks = all_blocks(g, max_vertices=max_block_vertices)
    blocks.sort(key=lambda b: -b.size)
    n = g.n
    best_value = 0
    best_family: DisjointFamily | None = None

    def descend(start: int, used: int, value: int, chosen: list[CompleteBipartiteSub]):
        nonlocal best_value, best_family
        if chosen and value > best_value:
            reps = find_representatives(g, chosen)
            if reps is not None:
                best_value = value
                best_family = DisjointFamily(list(chosen), reps)
        free = n - used.bit_count()
        # one extra block on k of the free vertices adds k-1 <= free-1
        if value + max(0, free - 1) <= best_value:
            return
        for idx in range(start, len(blocks)):
            b = blocks[idx]
            if b.vertices & used:
                continue
            gain = b.size - 1
            if value + gain + max(0, free - b.size - 1) <= best_value:
                continue
            if find_representatives(g, chosen + [b]) is None:
                continue
            chosen.append(b)
            descend(idx + 1, used | b.vertices, value + gain, chosen)
            chosen.pop()

    descend(0, 0, 0, [])
    return WitnessResult(best_value, best_family)


def witness_for(g: SimpleGraph, i: int, sigma: int) -> DisjointFamily | None:
    """A valid family with union exactly sigma and value exactly i, if one exists."""
    size = sigma.bit_count()
    r = size - i
    if r < 1 or size < 2 * r:
        return None
    blocks = all_blocks(g, within=sigma)
    by_low: dict[int, list[CompleteBipartiteSub]] = {}
    for b in blocks:
        by_low.setdefault((b.vertices & -b.vertices).bit_length() - 1, []).append(b)

    found: DisjointFamily | None = None

    def cover(remaining: int, chosen: list[CompleteBipartiteSub]):
        nonlocal found
        if found is not None:
            return
        if remaining == 0:
            if len(chosen) == r:
                reps = find_representatives(g, chosen)
                if reps is not None:
                    found = DisjointFamily(list(chosen), reps)
            return
        left = r - len(chosen)
        if left <= 0 or remaining.bit_count() < 2 * left:
            return
        v = (remaining & -remaining).bit_length() - 1
        for b in by_low.get(v, ()):
            if b.vertices & ~remaining == 0:
                chosen.append(b)
                cover(remaining & ~b.vertices, chosen)
                chosen.pop()
                if found is not None:
                    return

    cover(sigma, [])
    return found


def linear_strand_betti(g: SimpleGraph, sigma: int) -> int:
    """beta_{|sigma|-1, sigma}(S/I(G)) = (number of components of complement of G_sigma) - 1."""
    if sigma == 0:
        raise ValueError("sigma must be nonempty")
    return complement_components(g, sigma) - 1


def cochordal_pd(g: SimpleGraph) -> int:
    """pd(S/I(G)) for co-chordal G: max of m+n-1 over complete bipartite subgraphs."""
    from .graphs import is_cochordal

    if not is_cochordal(g):
        raise ValueError("graph is not co-chordal")
    best = 0
    for b in enumerate_blocks(g):
        best = max(best, b.size - 1)
    return best


def bouquet_family(g: SimpleGraph, sigma: int) -> DisjointFamily | None:
    """The family of stars, when G_sigma is a disjoint union of bouquets."""
    if sigma == 0:
        return None
    blocks = []
    for comp in g.components(within=sigma):
        k = comp.bit_count()
        if k < 2:
            return None
        inner_deg = sum((g.adj[v] & comp).bit_count() for v in iter_bits(comp))
        if inner_deg != 2 * (k - 1):
            return None
        center = next(
            (v for v in iter_bits(comp) if g.adj[v] & comp == comp ^ (1 << v)), None
        )
        if center is None:
            return None
        blocks.append(CompleteBipartiteSub(1 << center, comp ^ (1 << center)))
    reps = find_representatives(g, blocks)
    if reps is None:
        return None
    return DisjointFamily(blocks, reps)
