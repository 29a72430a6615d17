"""Finite simple graphs on at most 64 vertices, with bitset vertex sets.

Vertex sets are plain Python ints used as bitmasks (bit v set iff vertex v
is in the set), so unions/intersections/complements are single int ops and
a set fits in one machine word at the supported scale.
"""

from __future__ import annotations

import json

MAX_VERTICES = 64


def bits_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_table(width: int) -> list[tuple[int, ...]]:
    """Entry m lists the set bits of m in increasing order, for every m < 2**width:
    each doubling appends bit k to the entries of the new upper half."""
    table: list[tuple[int, ...]] = [()]
    for k in range(width):
        table += [bits + (k,) for bits in table]
    return table


_BITS = _bit_table(10)


def iter_bits(mask: int):
    """The set bits of mask in increasing order: a table tuple below 2**10, else a generator."""
    if 0 <= mask < 1 << 10:
        return _BITS[mask]
    return _iter_bits(mask)


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def iter_subsets(mask: int):
    """All submasks of mask, increasing in the submask order, ending at mask."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def check_keys(obj: dict, allowed, what: str) -> None:
    """Raise ValueError naming the first key of a JSON object outside ``allowed``."""
    for key in obj:
        if key not in allowed:
            expected = ", ".join(repr(k) for k in sorted(allowed))
            raise ValueError(f"unknown key {key!r} in {what}; expected {expected}")


class SimpleGraph:
    """Undirected simple graph; adjacency stored as one bitmask per vertex."""

    __slots__ = ("n", "labels", "adj")

    def __init__(self, n, edges=(), labels=None):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if labels is None:
            labels = [f"x{i + 1}" for i in range(n)]
        labels = list(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be distinct and match the vertex count")
        self.n = n
        self.labels = labels
        self.adj = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if self.adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u},{v})")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    # -- basic accessors ----------------------------------------------------

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u, v) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1))]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v) -> int:
        return self.adj[v].bit_count()

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def label_set(self, mask: int) -> list[str]:
        return [self.labels[v] for v in iter_bits(mask)]

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.labels == other.labels
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, tuple(self.labels), tuple(self.adj)))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={self.edges()})"

    # -- derived graphs -----------------------------------------------------

    def induced_subgraph(self, sigma: int) -> "SimpleGraph":
        """Subgraph on the vertices of sigma, reindexed in original order."""
        verts = bit_list(sigma & self.vertex_mask())
        pos = {v: i for i, v in enumerate(verts)}
        g = SimpleGraph(len(verts), labels=[self.labels[v] for v in verts])
        for u in verts:
            for w in iter_bits(self.adj[u] & sigma):
                if w > u:
                    g.add_edge(pos[u], pos[w])
        return g

    def complement(self) -> "SimpleGraph":
        g = SimpleGraph(self.n, labels=list(self.labels))
        full = self.vertex_mask()
        for v in range(self.n):
            g.adj[v] = full & ~self.adj[v] & ~(1 << v)
        return g

    # -- connectivity -------------------------------------------------------

    def component_of(self, v: int, within: int | None = None) -> int:
        """Bitmask of the connected component of v inside `within`."""
        if within is None:
            within = self.vertex_mask()
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= self.adj[u] & within
            frontier = nxt & ~comp
            comp |= frontier
        return comp

    def components(self, within: int | None = None) -> list[int]:
        if within is None:
            within = self.vertex_mask()
        left = within
        out = []
        while left:
            v = (left & -left).bit_length() - 1
            comp = self.component_of(v, within)
            out.append(comp)
            left &= ~comp
        return out

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "SimpleGraph":
        """Parse the line format: first data line n, then one `u v` per edge.

        Lines starting with `#` (or inline `#` tails) are comments; vertex
        indices are 0-based; duplicate edges and self-loops are rejected.
        """
        rows = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append(line)
        if not rows:
            raise ValueError("empty graph file")
        try:
            n = int(rows[0])
        except ValueError:
            raise ValueError(f"first line must be the vertex count, got {rows[0]!r}")
        g = cls(n)
        for line in rows[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line {line!r}")
            g.add_edge(int(parts[0]), int(parts[1]))
        return g

    @classmethod
    def from_json(cls, obj) -> "SimpleGraph":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("graph JSON must be an object")
        check_keys(obj, ("labels", "edges"), "graph JSON")
        labels = obj.get("labels")
        edges = obj.get("edges", [])
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise ValueError("'labels' must be a list of strings")
        if not isinstance(edges, list) or not all(
            isinstance(e, (list, tuple))
            and len(e) == 2
            and all(isinstance(x, (int, str)) and not isinstance(x, bool) for x in e)
            for e in edges
        ):
            raise ValueError("'edges' must be a list of [u, v] pairs of indices or labels")
        if labels is None:
            if any(isinstance(x, str) for e in edges for x in e):
                raise ValueError("edges name vertex labels, but no 'labels' list is given")
            n = 1 + max((max(e) for e in edges), default=-1)
            labels = [f"x{i + 1}" for i in range(n)]
        g = cls(len(labels), labels=labels)
        for e in edges:
            u, v = e
            if isinstance(u, str):
                u = g.index_of(u)
            if isinstance(v, str):
                v = g.index_of(v)
            g.add_edge(u, v)
        return g

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "edges": [list(e) for e in self.edges()]}

    @classmethod
    def parse(cls, text: str) -> "SimpleGraph":
        """The graph of a file's text: JSON when its first non-blank character
        is '{', else the line format.  JSON errors name their line in the text."""
        if text.lstrip().startswith("{"):
            return cls.from_json(text)
        return cls.from_text(text)

    @classmethod
    def load(cls, path: str) -> "SimpleGraph":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())


# -- constructors ------------------------------------------------------------


def path_graph(n) -> SimpleGraph:
    return SimpleGraph(n, edges=[(i, i + 1) for i in range(n - 1)])


def cycle_graph(n) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph(n, edges=[(i, (i + 1) % n) for i in range(n)])


def complete_graph(n) -> SimpleGraph:
    return SimpleGraph(n, edges=[(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m, n) -> SimpleGraph:
    labels = [f"u{i + 1}" for i in range(m)] + [f"v{j + 1}" for j in range(n)]
    g = SimpleGraph(m + n, labels=labels)
    for i in range(m):
        for j in range(n):
            g.add_edge(i, m + j)
    return g


def ferrers_graph(shape) -> SimpleGraph:
    """Bipartite graph of a partition: row i meets columns 1..shape[i]."""
    shape = list(shape)
    if not shape or any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or shape[-1] < 1:
        raise ValueError(f"not a partition: {shape}")
    r, c = len(shape), shape[0]
    labels = [f"u{i + 1}" for i in range(r)] + [f"v{j + 1}" for j in range(c)]
    g = SimpleGraph(r + c, labels=labels)
    for i, row in enumerate(shape):
        for j in range(row):
            g.add_edge(i, r + j)
    return g


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    g = SimpleGraph(g1.n + g2.n, labels=[f"x{i + 1}" for i in range(g1.n + g2.n)])
    for u, v in g1.edges():
        g.add_edge(u, v)
    for u, v in g2.edges():
        g.add_edge(g1.n + u, g1.n + v)
    return g


# -- graph-theoretic quantities ----------------------------------------------


def normalize_edge(g: SimpleGraph, e) -> tuple[int, int]:
    u, v = e
    if isinstance(u, str):
        u = g.index_of(u)
    if isinstance(v, str):
        v = g.index_of(v)
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    return (u, v) if u < v else (v, u)


def complement_components(g: SimpleGraph, within: int) -> int:
    """Number of connected components of the complement of G_within.

    Grows each component on adjacency masks: the complement neighbours of u
    inside `within` are ``within & ~adj[u]``, so no subgraph is built.
    """
    count = 0
    left = within
    while left:
        comp = frontier = left & -left
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= within & ~g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        left &= ~comp
        count += 1
    return count


def c_number(g: SimpleGraph) -> int:
    """Largest c with a spanning complete c-partite subgraph; 1 if none.

    The parts of such a subgraph are unions of connected components of the
    complement, so the maximum equals the complement's component count.
    """
    if g.n == 0:
        raise ValueError("c-number needs at least one vertex")
    return complement_components(g, g.vertex_mask())


def bipartition(g: SimpleGraph) -> tuple[int, int] | None:
    """2-coloring as (left_mask, right_mask), or None. Isolated vertices go left."""
    color = [-1] * g.n
    left = right = 0
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for w in iter_bits(g.adj[u]):
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    for v in range(g.n):
        if color[v] == 0:
            left |= 1 << v
        else:
            right |= 1 << v
    return left, right


def is_complete_bipartite(g: SimpleGraph, within: int | None = None) -> tuple[int, int] | None:
    """The (left, right) partition if G_within (default: G) is complete bipartite
    with both parts nonempty; left holds the lowest vertex.

    Works on adjacency masks: the parts can only be the neighbours of the
    lowest vertex and the rest, and each part must see exactly the other.
    """
    if within is None:
        within = g.vertex_mask()
    low = (within & -within).bit_length() - 1
    if low < 0:
        return None
    right = g.adj[low] & within
    left = within & ~right
    if right == 0:
        return None
    for u in iter_bits(left):
        if g.adj[u] & within != right:
            return None
    for u in iter_bits(right):
        if g.adj[u] & within != left:
            return None
    return left, right


def is_chordal(g: SimpleGraph) -> bool:
    """Maximum cardinality search followed by the perfect-elimination check."""
    n = g.n
    if n <= 2:
        return True
    weight = [0] * n
    order = []
    placed = 0
    for _ in range(n):
        v = max((u for u in range(n) if not placed >> u & 1), key=lambda u: weight[u])
        order.append(v)
        placed |= 1 << v
        for w in iter_bits(g.adj[v] & ~placed):
            weight[w] += 1
    # order[k] was numbered at step k; check reverse order is a PEO:
    # earlier-numbered neighbors of v must form a clique with its latest one.
    num = [0] * n
    for k, v in enumerate(order):
        num[v] = k
    for v in order:
        earlier = [w for w in iter_bits(g.adj[v]) if num[w] < num[v]]
        if not earlier:
            continue
        u = max(earlier, key=lambda w: num[w])
        need = bits_of(earlier) & ~(1 << u)
        if need & ~g.adj[u]:
            return False
    return True


def is_cochordal(g: SimpleGraph) -> bool:
    return is_chordal(g.complement())


# -- isomorphism-canonical forms ----------------------------------------------


def _refine_colors(adj, colors, k):
    """Coarsest equitable refinement of an ordered colouring with colours 0..k-1.

    Each round splits every class by how many neighbours a vertex has in each
    class, and renumbers by rank of (colour, counts); it stops at the first
    round that splits no class, or at a discrete colouring.  The ranks depend
    on the graph only, not on its labels.  Returns the colouring and its
    number of classes.
    """
    n = len(colors)
    while k < n:
        masks = [0] * k
        for v, c in enumerate(colors):
            masks[c] |= 1 << v
        sig = [(c, *map(int.bit_count, map(a.__and__, masks))) for c, a in zip(colors, adj)]
        ranks = sorted(set(sig))
        if len(ranks) == k:
            break
        rank = {s: i for i, s in enumerate(ranks)}
        colors = [rank[s] for s in sig]
        k = len(ranks)
    return colors, k


def canonical_form(g: SimpleGraph) -> tuple:
    """Label-independent canonical key: (n, least edge bitstring over the leaves
    of an individualization-refinement search).

    A node of the search is an ordered equitable colouring.  Its target is
    the first class whose members are not all twins (u, w with the same
    neighbours apart from each other); each member of the target is
    individualized in turn and the colouring refined again.  Swapping twins
    is an automorphism that fixes the colouring, so a member that is a twin
    of one already tried gives the same leaves and is skipped.  At a leaf
    every class is a twin class, so numbering the vertices by (colour,
    vertex) gives the same graph whatever the order inside each class.
    """
    n, adj = g.n, g.adj
    if n == 0:
        return (0, 0)
    edges = g.edges()
    best = None
    stack = [_refine_colors(adj, [0] * n, 1)]
    while stack:
        colors, k = stack.pop()
        target = _target_cell(adj, colors, k) if k < n else None
        if target is None:
            pos = colors
            if k < n:
                pos = [0] * n
                for i, v in enumerate(sorted(range(n), key=colors.__getitem__)):
                    pos[v] = i
            code = 0
            for u, v in edges:
                a, b = pos[u], pos[v]
                code |= 1 << (a * n + b if a < b else b * n + a)
            if best is None or code < best:
                best = code
            continue
        tried = []
        for v in target:
            if any(_twins(adj, u, v) for u in tried):
                continue
            tried.append(v)
            c = colors[v]
            split = [d + (d >= c) for d in colors]
            split[v] = c
            stack.append(_refine_colors(adj, split, k + 1))
    return (n, best)


def _twins(adj, u, w) -> bool:
    return (adj[u] ^ adj[w]) & ~(1 << u | 1 << w) == 0


def _target_cell(adj, colors, k) -> list[int] | None:
    """The first class whose members are not all twins; None if there is none.

    Twins of one vertex are all adjacent to it or all not, so twinship is an
    equivalence and each member is compared with the first one only.
    """
    cells = [[] for _ in range(k)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    for first, *rest in cells:
        if not all(_twins(adj, first, w) for w in rest):
            return [first, *rest]
    return None


def are_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Equal vertex counts, edge counts and canonical forms."""
    return g.n == h.n and g.edge_count() == h.edge_count() and canonical_form(g) == canonical_form(h)


def is_ferrers(g: SimpleGraph) -> bool:
    """Connected bipartite with one side's neighborhoods forming a chain.

    Sorting the rows by degree then pairing columns by degree realizes any
    such graph as the bipartite graph of a partition shape, and conversely.
    """
    if g.edge_count() == 0 or len(g.components()) != 1:
        return False
    parts = bipartition(g)
    if parts is None:
        return False
    nbrs = sorted((g.adj[v] for v in iter_bits(parts[0])), key=lambda m: -m.bit_count())
    return all(nbrs[k] & ~nbrs[k - 1] == 0 for k in range(1, len(nbrs)))
