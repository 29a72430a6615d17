"""Complete bipartite subgraph families witnessing nonzero Betti numbers.

A block is a complete bipartite subgraph (all left-right edges present in G;
edges inside the parts may or may not exist).  A disjoint family is a set of
vertex-disjoint blocks together with one representative edge per block, the
representatives pairwise 3-disjoint in G.  Such a family of r blocks covering
sigma witnesses beta_{|sigma|-r, sigma}(S/I(G)) != 0.

3-disjointness is decided here alone, by one rule: an edge is 3-disjoint
from a set of edges exactly when both its ends lie outside the union of
their closed neighbourhoods adj[u] | adj[v].  Every search extends a
family's representative assignments one block at a time with ``_extend``;
``valid_representatives`` applies the rule directly to the representatives
a family carries.
"""

from __future__ import annotations

import json

from .graphs import (
    SimpleGraph,
    bit_list,
    bits_of,
    check_keys,
    is_cochordal,
    iter_bits,
    iter_subsets,
    normalize_edge,
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
        if not isinstance(obj, dict):
            raise ValueError("family JSON must be an object")
        check_keys(obj, ("blocks", "representatives"), "family JSON")

        def vert(x):
            if isinstance(x, str):
                return g.index_of(x)
            if isinstance(x, int) and not isinstance(x, bool) and 0 <= x < g.n:
                return x
            raise ValueError(f"family vertex {x!r} is neither a label nor an index in 0..{g.n - 1}")

        def part(blk, side):
            if not isinstance(blk.get(side), list):
                raise ValueError(f"family block {side!r} must be a list of vertices")
            return bits_of(vert(v) for v in blk[side])

        if not isinstance(obj.get("blocks"), list):
            raise ValueError("family JSON needs 'blocks', a list of {left, right} objects")
        blocks = []
        for blk in obj["blocks"]:
            if not isinstance(blk, dict):
                raise ValueError("each family block must be an object")
            check_keys(blk, ("left", "right"), "family block")
            blocks.append(CompleteBipartiteSub(part(blk, "left"), part(blk, "right")))
        reps = obj.get("representatives")
        if reps is not None:
            if not isinstance(reps, list) or not all(isinstance(e, list) and len(e) == 2 for e in reps):
                raise ValueError("family 'representatives' must be a list of [u, v] pairs")
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


def is_three_disjoint(g: SimpleGraph, e1, e2) -> bool:
    """Edges are 3-disjoint when disjoint and inducing no third edge between them.

    Equivalently the induced subgraph on their four endpoints is exactly 2K2,
    that is, neither end of e2 lies in the closed neighbourhood of e1.
    """
    a, b = normalize_edge(g, e1)
    c, d = normalize_edge(g, e2)
    return not (g.adj[a] | g.adj[b]) & (1 << c | 1 << d)


def a_number(g: SimpleGraph) -> int:
    """Maximum size of a set of pairwise 3-disjoint edges."""
    edges = g.edges()
    near = [g.adj[u] | g.adj[v] for u, v in edges]
    ends = [1 << u | 1 << v for u, v in edges]
    compat = [bits_of(j for j, e in enumerate(ends) if not mask & e) for mask in near]
    best = 0
    # (edges that may still join, size of the set so far); a set that takes
    # its lowest candidate i pushes itself without i beneath the grown set,
    # so it resumes, with the best size found meanwhile, once that is done
    stack = [((1 << len(edges)) - 1, 0)]
    while stack:
        cand, size = stack.pop()
        if size > best:
            best = size
        if cand and size + cand.bit_count() > best:
            i = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            stack.append((cand, size))
            stack.append((cand & compat[i], size + 1))
    return best


def _extend(g: SimpleGraph, assignments, block: CompleteBipartiteSub):
    """Each (union, reps) that gives the block a representative.

    An assignment (blocked, reps) holds 3-disjoint representatives and the
    union of their closed neighbourhoods; cross edge uv joins it exactly when
    u and v lie outside blocked.  Later blocks see only the new union, so
    only its first assignment is yielded, in the order of assignments, u, v.
    """
    adj = g.adj
    seen = set()
    for blocked, reps in assignments:
        right = block.right & ~blocked
        for u in iter_bits(block.left & ~blocked):
            for v in iter_bits(right):
                union = blocked | adj[u] | adj[v]
                if union not in seen:
                    seen.add(union)
                    yield union, reps + ((u, v) if u < v else (v, u),)


def find_representatives(g: SimpleGraph, blocks) -> list[tuple[int, int]] | None:
    """One cross edge per block, pairwise 3-disjoint in G; None if impossible.

    Blocks are taken fewest cross edges first, and the assignment returned
    is the first in that order.
    """
    order = sorted(range(len(blocks)), key=lambda k: blocks[k].left.bit_count() * blocks[k].right.bit_count())
    assignments = [(0, ())]
    for k in order:
        assignments = list(_extend(g, assignments, blocks[k]))
        if not assignments:
            return None
    reps = dict(zip(order, assignments[0][1]))
    return [reps[k] for k in range(len(blocks))]


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
    # each representative must be a cross edge of its block, with both ends
    # outside the closed neighbourhoods of the earlier ones: the rule of
    # ``_extend`` on the block cut down to its two ends
    adj = g.adj
    blocked = 0
    for (u, v), b in zip(reps, fam.blocks):
        ends = 1 << u | 1 << v
        if not (b.left & ends and b.right & ends) or ends & blocked:
            return None
        blocked |= adj[u] | adj[v]
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
    # (left part, its common neighbours inside within, next vertex to add),
    # popped in depth-first preorder
    stack = [(0, 0, 0)]
    while stack:
        lmask, common, next_from = stack.pop()
        lsize = lmask.bit_count()
        if lmask:
            low = (lmask & -lmask).bit_length() - 1
            allowed = common & ~((1 << (low + 1)) - 1)
            for rmask in iter_subsets(allowed):
                if rmask and lsize + rmask.bit_count() <= cap:
                    out.append(CompleteBipartiteSub(lmask, rmask))
        if lsize + 2 > cap:
            continue
        children = []
        for v in iter_bits(within >> next_from << next_from):
            new_common = (common if lmask else within) & g.adj[v] & within
            if new_common:
                children.append((lmask | 1 << v, new_common, v + 1))
        stack.extend(reversed(children))
    return out


class WitnessResult:
    __slots__ = ("value", "family")

    def __init__(self, value: int, family: DisjointFamily | None):
        self.value = value
        self.family = family

    def __repr__(self):
        return f"WitnessResult(value={self.value}, family={self.family})"


def max_pd_witness(g: SimpleGraph) -> WitnessResult:
    """Exact maximum of |sigma| - r over valid disjoint families (branch and bound)."""
    blocks = all_blocks(g)
    blocks.sort(key=lambda b: -b.size)
    verts = [b.vertices for b in blocks]
    sizes = [v.bit_count() for v in verts]
    n = g.n
    best_value = 0
    best_blocks: list[CompleteBipartiteSub] = []
    # one frame per chosen list: (indices of blocks still to try, vertices
    # used, value, blocks chosen, assignments); a frame resumes where its
    # child was pushed, and a child whose bound fails is never pushed
    # (one extra block on k of the free vertices adds k-1 <= free-1)
    stack = [(iter(range(len(blocks))), 0, 0, [], [(0, ())])] if n > 1 else []
    while stack:
        todo, used, value, chosen, assignments = stack[-1]
        free = n - used.bit_count()
        for idx in todo:
            if verts[idx] & used:
                continue
            size = sizes[idx]
            grown_value = value + size - 1
            bound = grown_value + max(0, free - size - 1)
            if bound <= best_value:
                continue
            b = blocks[idx]
            extended = list(_extend(g, assignments, b))
            if not extended:
                continue
            grown = chosen + [b]
            if grown_value > best_value:
                best_value, best_blocks = grown_value, grown
            if bound > best_value:
                stack.append((iter(range(idx + 1, len(blocks))), used | verts[idx], grown_value, grown, extended))
                break
        else:
            stack.pop()
    family = DisjointFamily(best_blocks, find_representatives(g, best_blocks)) if best_blocks else None
    return WitnessResult(best_value, family)


def _spanning_block(g: SimpleGraph, sigma: int) -> CompleteBipartiteSub | None:
    """The first block of ``all_blocks(g, within=sigma)`` on all of sigma, or None.

    Its left part L holds sigma's lowest vertex, so only such parts are
    walked, in the same preorder: L grows by increasing vertices while a
    common neighbour inside sigma remains, and the first L with sigma - L
    nonempty and inside the common neighbourhood wins.  A vertex of sigma
    passed over stays out of every later L, so a part whose passed-over
    vertices are not all common neighbours is not grown.
    """
    adj = g.adj
    low = sigma & -sigma
    first = low.bit_length() - 1
    stack = [(low, adj[first] & sigma, first + 1)]
    while stack:
        lmask, common, next_from = stack.pop()
        rest = sigma & ~lmask
        if rest and rest & ~common == 0:
            return CompleteBipartiteSub(lmask, rest)
        children = []
        for v in iter_bits(sigma >> next_from << next_from):
            new_common = common & adj[v]
            passed = sigma & ((2 << v) - 1) & ~(lmask | 1 << v)
            if new_common and passed & ~new_common == 0:
                children.append((lmask | 1 << v, new_common, v + 1))
        stack.extend(reversed(children))
    return None


def witness_for(g: SimpleGraph, i: int, sigma: int) -> DisjointFamily | None:
    """A valid family with union exactly sigma and value exactly i, if one exists."""
    size = sigma.bit_count()
    r = size - i
    if r < 1 or size < 2 * r:
        return None
    if r == 1:
        block = _spanning_block(g, sigma)
        return None if block is None else DisjointFamily([block], find_representatives(g, [block]))
    blocks = all_blocks(g, within=sigma)
    by_low: dict[int, list[CompleteBipartiteSub]] = {}
    for b in blocks:
        by_low.setdefault((b.vertices & -b.vertices).bit_length() - 1, []).append(b)

    # one frame per partial cover: (blocks at the lowest uncovered vertex
    # still to try, vertices left to cover, blocks chosen, assignments); a
    # frame resumes where its child was pushed
    stack = [(iter(by_low.get((sigma & -sigma).bit_length() - 1, ())), sigma, [], [(0, ())])]
    while stack:
        candidates, remaining, chosen, assignments = stack[-1]
        left = r - len(chosen) - 1  # blocks left after the next one
        for b in candidates:
            rest = remaining & ~b.vertices
            if b.vertices & ~remaining or (rest == 0) != (left == 0) or rest.bit_count() < 2 * left:
                continue
            extended = list(_extend(g, assignments, b))
            if not extended:
                continue
            if rest == 0:
                found = chosen + [b]
                return DisjointFamily(found, find_representatives(g, found))
            stack.append((iter(by_low.get((rest & -rest).bit_length() - 1, ())), rest, chosen + [b], extended))
            break
        else:
            stack.pop()
    return None


def cochordal_pd(g: SimpleGraph) -> int:
    """pd(S/I(G)) for co-chordal G: max of m+n-1 over complete bipartite subgraphs.

    A block (L, R) has R inside the common neighbourhood N(L) of L, and
    (L, N(L)) is itself a block, so the maximum is that of |L| + |N(L)| - 1
    over the left parts L with N(L) nonempty.
    """
    if not is_cochordal(g):
        raise ValueError("graph is not co-chordal")
    best = 0
    # (left part's size, its common neighbours, next vertex that may join it)
    stack = [(0, g.vertex_mask(), 0)]
    while stack:
        size, common, start = stack.pop()
        for v in range(start, g.n):
            shared = common & g.adj[v]
            if shared:
                best = max(best, size + shared.bit_count())
                stack.append((size + 1, shared, v + 1))
    return best


def bouquet_family(g: SimpleGraph, sigma: int) -> DisjointFamily | None:
    """The family of stars, when G_sigma is a disjoint union of bouquets.

    G_sigma is a union of stars exactly when it has no isolated vertex and no
    two of its non-leaves (sigma-degree at least 2) are adjacent: then every
    non-leaf is a center whose neighbours are all leaves, and a component
    without one is a single edge.  The blocks come in component order, by
    lowest vertex, centred on a single edge's lower end.
    """
    if sigma == 0:
        return None
    adj = g.adj
    leaves = 0
    rest = sigma
    while rest:
        low = rest & -rest
        nbrs = adj[low.bit_length() - 1] & sigma
        if not nbrs:
            return None
        if nbrs & (nbrs - 1) == 0:
            leaves |= low
        rest ^= low
    blocks = []
    rest = sigma
    while rest:
        low = rest & -rest
        center = low.bit_length() - 1
        nbrs = adj[center] & sigma
        if low & leaves and nbrs & ~leaves:
            # the lowest vertex is a leaf of the star centred on its neighbour
            center = nbrs.bit_length() - 1
            nbrs = adj[center] & sigma
        if nbrs & ~leaves:
            return None
        blocks.append(CompleteBipartiteSub(1 << center, nbrs))
        rest &= ~(nbrs | 1 << center)
    reps = find_representatives(g, blocks)
    if reps is None:
        return None
    return DisjointFamily(blocks, reps)
