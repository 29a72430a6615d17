"""Taylor complexes, ordered-generator admissibility, and non-vanishing certificates.

Fix a monomial ideal I with ordered minimal generators m_0, ..., m_{u-1}
(positions are 0-based throughout).  A symbol is a strictly increasing index
tuple; it is admissible when for every non-final member l_t, no earlier
generator m_q (q < l_t) divides lcm(m_{l_t}, ..., m_{l_s}).  The admissible
symbols span a subcomplex of the Taylor complex that resolves S/I, so a
maximal admissible symbol whose entire boundary has non-unit cofactors, or a
cycle of admissible symbols whose unit-cofactor boundary cancels and whose
leading symbol is maximal, certifies a nonzero multigraded Betti number.
Every function here reads the ideal's own generator order; another order is
another ideal, ``MonomialIdeal.reordered``.  The one exception is
``lyubeznik_betti_table``, which resolves in an order of its own choosing
(``_connector_order``): Lyubeznik's complex is a free resolution of S/I for
every generator order (Lyubeznik, J. Pure Appl. Algebra 51, 1988), and the
multigraded Betti numbers of S/I do not depend on the resolution, so every
order gives the same table.

Cycle cancellation is checked over the integers, which is sound over every
coefficient field at once.

Admissibility and the strand tables work on the ideal's polarized generator
masks (``MonomialIdeal.masks``): m_q divides an lcm exactly when its mask is
inside the OR of the members' masks, and a boundary term has a unit cofactor
exactly when dropping that member leaves the OR unchanged.  The public
degrees and cofactors of ``symbol_degree``, ``taylor_boundary``,
``check_cycle_certificate`` and ``barile_certificate`` stay ``Monomial``s;
the memo of ``main_theorem_certificate`` keeps degree masks.

Each symbol costs time linear in its length:

- *First-divisor memo.*  The suffix lcm at member l_t contains m_{l_t}, so
  the least generator position whose mask lies inside it is at most l_t,
  and the member passes exactly when that position is l_t.
  ``MonomialIdeal.first_divisor`` finds the position once per distinct lcm
  mask and keeps it in the ideal's own ``first_divisors`` memo, so
  ``is_admissible`` makes one lookup per member instead of scanning every
  earlier generator.  The memo lives and dies with one ideal object;
  nothing is shared across ideals or orders.
- *Pair filter.*  Every pair of members of an admissible symbol is
  admissible, so ``admissible_symbols`` extends a prefix only by positions
  whose pairs with all of its members are admissible (one mask AND per
  extension), and checks each such candidate once with ``is_admissible``.
  The filter is exact for every monomial ideal.
- *Pair lemma.*  When every generator mask has at most two bits (an edge
  ideal), a symbol whose pairs are all admissible is admissible.  Suppose
  m_q lies inside lcm(m_{l_t}, ..., m_{l_s}) with q < l_t.  As m_q has at
  most two bits, it lies inside m_x | m_y for members l_t <= x <= y, and
  x < y since no generator mask lies inside another.  If x = l_t, the pair
  (x, y) fails at l_t; otherwise q < l_t < x, and the pair fails at x.
  So on an edge ideal ``is_admissible`` passes every candidate and runs
  once per symbol.
- *Edge-join lemma.*  On an edge ideal let ``before[i]`` be the vertices
  joined to an end of edge i by an edge that comes earlier than i.  For
  i < j the pair (i, j) is admissible exactly when edge j misses
  ``before[i]``.  A generator q < i inside e_i | e_j is neither e_i nor
  e_j, so it has an end in each: it joins an end of e_i to an end of e_j,
  which then lies in ``before[i]``.  Conversely a vertex of e_j in
  ``before[i]`` names such an edge q < i inside e_i | e_j.  With the pair
  lemma this decides admissibility and maximality of a symbol in one pass
  over the edges (``_maximal_edge_symbol``).
- *Twice-covered facets.*  While a strand table ORs a symbol's masks into
  its degree, it also collects ``twice``, the bits that two or more members
  cover.  Dropping member t leaves the degree unchanged, that is the facet
  has a unit cofactor, exactly when ``masks[t] & ~twice == 0``; only those
  facets are built.
- *Prefix strands.*  A strand table reads a symbol's degree, ``twice`` and
  position mask from its prefix, one OR each, and finds each facet by its
  position mask (see ``lyubeznik_betti_table``).
- ``taylor_boundary`` takes each facet's lcm as the lcm of a prefix and a
  suffix lcm of the members, O(s) lcms per symbol instead of O(s^2).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import ResourceLimitError
from .graphs import SimpleGraph, iter_bits
from .ideals import BettiTable, Monomial, MonomialIdeal, lcm_of
from .linalg import GF2, FieldSpec, rank_over
from .witness import DisjointFamily, valid_representatives

MAX_ADMISSIBLE_GENS = 24


def symbol_degree(ideal: MonomialIdeal, indices) -> Monomial:
    gens = ideal.generators
    return lcm_of([gens[i] for i in indices], ideal.nvars)


def _check_symbol(ideal: MonomialIdeal, indices) -> tuple[int, ...]:
    indices = tuple(indices)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"symbol indices must strictly increase: {indices}")
    if indices and not 0 <= indices[0] <= indices[-1] < ideal.ngens:
        raise ValueError(f"symbol indices out of range: {indices}")
    return indices


def _running_lcms(monomials, one: Monomial) -> list[Monomial]:
    """[lcm of the first t monomials for t = 0, 1, ...], starting from one."""
    out = [one]
    for m in monomials:
        out.append(m if len(out) == 1 else out[-1].lcm(m))
    return out


def taylor_boundary(ideal: MonomialIdeal, indices):
    """Boundary of a Taylor symbol: list of (subsymbol, sign, cofactor monomial)."""
    indices = _check_symbol(ideal, indices)
    members = [ideal.generators[i] for i in indices]
    one = Monomial.one(ideal.nvars)
    # before[t] is the lcm of members[:t], after[t] that of members[t + 1:]
    before = _running_lcms(members, one)
    after = _running_lcms(members[:0:-1], one)[::-1]
    full = before[-1]
    last = len(members) - 1
    out = []
    for t in range(len(members)):
        if t == 0:
            rest = after[0]
        elif t == last:
            rest = before[t]
        else:
            rest = before[t].lcm(after[t])
        out.append((indices[:t] + indices[t + 1 :], -1 if t & 1 else 1, full.quotient(rest)))
    return out


def is_admissible(ideal: MonomialIdeal, indices) -> bool:
    """Whether the symbol is admissible, in one backward walk over it.

    The walk checks order and range as it goes, and a symbol that is not
    strictly increasing or not in range raises the ValueError of
    ``_check_symbol`` even when it is already known to be inadmissible.
    """
    indices = tuple(indices)
    if not indices:
        return True
    masks = ideal.masks
    first = ideal.first_divisors
    nxt = indices[-1]
    if not 0 <= nxt < len(masks):
        _check_symbol(ideal, indices)
    lcm = masks[nxt]
    admissible = True
    for t in range(len(indices) - 2, -1, -1):
        i = indices[t]
        if not 0 <= i < nxt:
            _check_symbol(ideal, indices)
        nxt = i
        if admissible:
            lcm |= masks[i]
            q = first.get(lcm)
            if q is None:
                q = ideal.first_divisor(lcm)
            # masks[i] lies inside lcm, so q <= i
            admissible = q == i
    return admissible


def _check_cap(u: int):
    if u > MAX_ADMISSIBLE_GENS:
        raise ResourceLimitError(
            f"{u} generators exceeds the admissible-symbol cap of {MAX_ADMISSIBLE_GENS}"
        )


def admissible_symbols(ideal: MonomialIdeal, s: int | None = None):
    """All admissible symbols (of homological degree s when given), in
    depth-first preorder.

    Admissibility is closed under taking subsets, so pruning inadmissible
    extensions never loses a symbol, and every pair of members of an
    admissible symbol is admissible.  So a prefix is extended only by the
    positions in the AND of ``later[i]`` over its members i, ``later[i]``
    being the mask of the j > i with (i, j) admissible, and ``is_admissible``
    runs once per such candidate: once per symbol on an edge ideal, by the
    pair lemma of the module docstring.
    """
    u = ideal.ngens
    _check_cap(u)
    masks = ideal.masks
    first = ideal.first_divisor
    later = []
    for i, mi in enumerate(masks):
        row = 0
        for j in range(i + 1, u):
            # the pair's lcm contains masks[i], so its first divisor is at most i
            if first(mi | masks[j]) == i:
                row |= 1 << j
        later.append(row)
    out: list[tuple[int, ...]] = []
    # candidates still to check, the next one on top: (candidate, the
    # positions whose pairs with all of its members are admissible)
    stack = [((i,), later[i]) for i in reversed(range(u))] if s != 0 else []
    while stack:
        cand, cands = stack.pop()
        if not is_admissible(ideal, cand):
            continue
        if s is None or len(cand) == s:
            out.append(cand)
        if s is None or len(cand) != s:
            # pushed from the highest position down, so the lowest comes next
            rest = cands
            while rest:
                j = rest.bit_length() - 1
                rest ^= 1 << j
                stack.append((cand + (j,), cands & later[j]))
    return out


def is_maximal_admissible(ideal: MonomialIdeal, indices) -> bool:
    """No admissible proper superset exists.

    Downward closure of admissibility makes single-element extensions a
    complete test.
    """
    indices = _check_symbol(ideal, indices)
    if not is_admissible(ideal, indices):
        raise ValueError("symbol is not admissible")
    members = set(indices)
    for k in range(ideal.ngens):
        if k in members:
            continue
        cand = tuple(sorted(members | {k}))
        if is_admissible(ideal, cand):
            return False
    return True


def barile_certificate(ideal: MonomialIdeal, indices):
    """(s, degree) when the symbol is maximal admissible with no unit cofactor.

    Every boundary facet then has strictly smaller degree, so the symbol
    survives in the minimalization and beta_{s, deg} (S/I) is nonzero.
    """
    indices = _check_symbol(ideal, indices)
    if not is_admissible(ideal, indices):
        return None
    if not is_maximal_admissible(ideal, indices):
        return None
    for _, _, cof in taylor_boundary(ideal, indices):
        if cof.is_one():
            return None
    return len(indices), symbol_degree(ideal, indices)


class Cycle:
    """Formal integer combination of same-degree admissible symbols.

    The designated leading symbol must carry coefficient 1.
    """

    __slots__ = ("terms", "leading")

    def __init__(self, terms: dict, leading):
        self.terms = {tuple(k): int(v) for k, v in terms.items() if v}
        self.leading = tuple(leading)
        if self.terms.get(self.leading) != 1:
            raise ValueError("leading symbol must have coefficient 1")
        sizes = {len(k) for k in self.terms}
        if len(sizes) != 1:
            raise ValueError("cycle terms must share one homological degree")

    @property
    def s(self) -> int:
        return len(self.leading)

    def __repr__(self):
        body = " + ".join(f"{v}*e{list(k)}" for k, v in sorted(self.terms.items()))
        return f"Cycle({body}; leading=e{list(self.leading)})"


def _cycle_cancels(ideal: MonomialIdeal, cycle: Cycle) -> bool:
    """Whether the cycle's unit-cofactor boundary cancels over the integers.

    Raises ValueError if the terms are not same-degree admissible symbols.
    Terms are compared by the OR of their generator masks, which is equal
    exactly when their lcms are.
    """
    masks = ideal.masks
    degrees = set()
    for sym in cycle.terms:
        _check_symbol(ideal, sym)
        if not is_admissible(ideal, sym):
            raise ValueError(f"cycle term {sym} is not admissible")
        deg = 0
        for i in sym:
            deg |= masks[i]
        degrees.add(deg)
    if len(degrees) != 1:
        raise ValueError("cycle terms have mixed multidegrees")
    image: dict[tuple[int, ...], int] = {}
    for sym, coeff in cycle.terms.items():
        for sub, sign, cof in taylor_boundary(ideal, sym):
            if cof.is_one():
                image[sub] = image.get(sub, 0) + coeff * sign
    return not any(image.values())


def check_cycle_certificate(ideal: MonomialIdeal, cycle: Cycle):
    """(s, degree) when the unit-cofactor boundary cancels integrally and the
    leading symbol is maximal admissible; None otherwise.

    Raises ValueError if the terms are not same-degree admissible symbols
    (see ``_cycle_cancels``); only the leading symbol's degree is built
    as a ``Monomial``.
    """
    if not _cycle_cancels(ideal, cycle):
        return None
    if not is_maximal_admissible(ideal, cycle.leading):
        return None
    return cycle.s, symbol_degree(ideal, cycle.leading)


def bipartite_cycle(m: int, n: int):
    """The canonical non-vanishing cycle for I(K_{m,n}).

    Returns (ideal, cycle): the edge ideal of K_{m,n} with generators in the
    row-major order u_1 v_1, ..., u_m v_1, u_1 v_2, ..., u_m v_n, and the
    alternating-sign cycle over all threshold symbols tau(t_1 <= ... <= t_{n-1}),
    in homological degree m+n-1 with multidegree the full vertex set.  The
    leading symbol is tau(m, ..., m), normalized to coefficient 1.
    """
    if m < 1 or n < 1:
        raise ValueError("both sides must be nonempty")
    variables = [f"u{i + 1}" for i in range(m)] + [f"v{j + 1}" for j in range(n)]
    gens = []
    for beta in range(n):
        for alpha in range(m):
            gens.append(1 << alpha | 1 << (m + beta))

    def tau(ts: tuple[int, ...]) -> tuple[int, ...]:
        bounds = (1,) + ts + (m,)
        idx = []
        for beta in range(1, n + 1):
            for alpha in range(bounds[beta - 1], bounds[beta] + 1):
                idx.append((beta - 1) * m + alpha - 1)
        return tuple(idx)

    # thresholds 1 <= t_1 <= ... <= t_{n-1} <= m, in lexicographic order
    all_ts = combinations_with_replacement(range(1, m + 1), n - 1)
    norm = (-1) ** (m * (n - 1))
    terms = {tau(ts): norm * (-1) ** sum(ts) for ts in all_ts}
    return MonomialIdeal(variables, gens), Cycle(terms, tau((m,) * (n - 1)))


def product_cycle(parts) -> Cycle:
    """Cycle of a product symbol over variable-disjoint ordered blocks.

    parts is a list of (ngens, block_cycle), ngens being the block's number of
    generators; indices are shifted by the generator counts of the preceding
    blocks, matching an order that lists each block's generators
    consecutively, in block order.
    """
    if not parts:
        raise ValueError("need at least one block")
    terms: dict[tuple[int, ...], int] = {(): 1}
    leading: tuple[int, ...] = ()
    offset = 0
    for ngens, cyc in parts:
        nxt: dict[tuple[int, ...], int] = {}
        for base, c0 in terms.items():
            for sym, c1 in cyc.terms.items():
                nxt[base + tuple(offset + i for i in sym)] = c0 * c1
        terms = nxt
        leading = leading + tuple(offset + i for i in cyc.leading)
        offset += ngens
    return Cycle(terms, leading)


def _block_order_certificate(shapes, rows, memo: dict):
    """The cycle check of ``main_theorem_certificate`` for the key (shapes, rows).

    Positions follow block order; each block (m, n) holds m positions of the
    representative's first end's part, then n of the other part.  The
    generator supports are each block's cross edges row-major, then its
    edges inside a part, then every edge between blocks, each run in
    increasing position pairs.  The certificate is the product of the
    blocks' threshold cycles (``bipartite_cycle``), and it is checked block
    by block; every member of a product term is a cross edge of its block.

    - *Admissibility.*  Every generator before a member in block k lies
      inside an earlier block, which is disjoint from the suffix lcm, or is
      an earlier cross edge of block k, which meets only block k's part of
      it.  So a product term is admissible exactly when each factor is
      admissible in the ideal of ``bipartite_cycle(m, n)``.
    - *One multidegree.*  All product terms share one multidegree exactly
      when the terms of each block do.
    - *Cancellation.*  Dropping a member changes the lcm only inside its own
      block, and all terms of one block have one length, so the product's
      unit-cofactor image is a signed sum, over the blocks, of that block's
      image times the other blocks' cycles.  It vanishes exactly when each
      block's image does.

    So these three checks (``_cycle_cancels``) run once per block shape,
    on ``bipartite_cycle(m, n)``, and memo keeps under (m, n) the cycle's
    leading symbol, or None when they fail.  Maximality is not asked
    inside K_{m,n}: an admissible extension there would also extend the
    product's leading symbol, which each key checks anyway.  Each key then
    asks only that the concatenated, shifted leading symbols be maximal
    admissible among its generator supports, on the masks alone: by the
    edge-join lemma of the module docstring, the pair (i, j), i < j, is
    admissible exactly when edge j misses the vertices that edges before i
    join to the ends of edge i (``_maximal_edge_symbol``).  No ideal and
    no ``Monomial`` is built: the result is (s, degree mask), or None.
    """
    supports: list[int] = []
    leading: list[int] = []
    start = 0
    for m, n in shapes:
        if (m, n) not in memo:
            ideal, cycle = bipartite_cycle(m, n)
            memo[m, n] = cycle.leading if _cycle_cancels(ideal, cycle) else None
        block = memo[m, n]
        if block is None:
            return None
        leading += [len(supports) + i for i in block]
        mid, end = start + m, start + m + n
        supports.extend(1 << a | 1 << b for b in range(mid, end) for a in range(start, mid))
        for a in range(start, end):
            top = mid if a < mid else end
            for b in iter_bits(rows[a] & (1 << top) - (2 << a)):
                supports.append(1 << a | 1 << b)
        start = end
    start = 0
    for m, n in shapes:
        end = start + m + n
        for a in range(start, end):
            for b in iter_bits(rows[a] >> end << end):
                supports.append(1 << a | 1 << b)
        start = end
    degree = _maximal_edge_symbol(supports, leading)
    if degree is None:
        return None
    return len(leading), degree


def _maximal_edge_symbol(supports, leading):
    """The degree mask of the symbol leading when it is maximal admissible
    for the edge supports in their order; None when it is admissible but
    not maximal.  Raises ValueError when it is not admissible.

    ``before[i]`` is built from running ``near`` masks, the vertices that
    the edges so far join to each vertex, read before edge i is added.  By
    the edge-join and pair lemmas of the module docstring, leading is
    admissible when each member's ``before`` misses the later members'
    edges, and another position k extends it when edge k misses the
    ``before`` of every member below k and ``before[k]`` misses every
    member above k.  Downward closure makes one-position extensions a
    complete maximality test.
    """
    near = [0] * max(supports, default=0).bit_length()
    before = []
    for s in supports:
        low = s & -s
        a, b = low.bit_length() - 1, s.bit_length() - 1
        before.append(near[a] | near[b])
        near[a] |= s ^ low
        near[b] |= low
    # after[t] is the OR of the edges of leading[t:]
    after = [0] * (len(leading) + 1)
    for t in range(len(leading) - 1, -1, -1):
        i = leading[t]
        if before[i] & after[t + 1]:
            raise ValueError("symbol is not admissible")
        after[t] = after[t + 1] | supports[i]
    # below is the OR of before[l] over the members l < k
    below = t = 0
    for k, s in enumerate(supports):
        if t < len(leading) and leading[t] == k:
            below |= before[k]
            t += 1
        elif not s & below and not before[k] & after[t]:
            return None
    return after[0]


def main_theorem_certificate(g: SimpleGraph, fam: DisjointFamily, memo: dict | None = None):
    """Certify beta_{|sigma|-r, sigma}(S/I(G)) != 0 for a valid disjoint family.

    Works inside the induced subgraph on sigma (Betti numbers in degree sigma
    only depend on it) and numbers sigma's vertices in block order: blocks
    in family order, each listing first the part that holds the
    representative's end u, with u last, then the other part, with the
    other end v last, other vertices in increasing label order.  Each
    block's generators come first (cross edges row-major, then the edges
    inside its parts), then the edges between blocks; the product of the
    blocks' threshold cycles is the certificate, checked block by block in
    ``_block_order_certificate``.  Returns (|sigma| - r, sigma) on success.

    That check reads only the block shapes (m, n) and the block-ordered
    adjacency of G[sigma], so memo, a dict the caller owns, keeps its result
    under the key (shapes, rows), rows[i] being the mask, over these
    positions, of the i-th vertex's neighbours inside sigma: an (s, degree)
    pair, degree being the position mask of the leading symbol's lcm, or
    None.  The same memo keeps the verdict of each block shape under
    (m, n): the leading symbol of ``bipartite_cycle(m, n)`` when that cycle
    passes ``_cycle_cancels``, else None.  No key names the
    graph, its labels or the field, so one memo serves every graph and
    field; campaigns keep one per ``run_campaign`` call and other callers
    pass none, so every part of the check runs, ``taylor_boundary``
    included.  The family is validated, and the result's strand checked,
    on every call, memo hit or not.
    """
    reps = valid_representatives(g, fam)
    if reps is None:
        raise ValueError("family is not valid for this graph")
    order: list[int] = []
    shapes = []
    sigma = 0
    for block, (u, v) in zip(fam.blocks, reps):
        # a valid family's representatives are cross edges of their blocks
        upart, vpart = (block.left, block.right) if 1 << u & block.left else (block.right, block.left)
        for part, end in ((upart, u), (vpart, v)):
            rest = part & ~(1 << end)
            while rest:
                low = rest & -rest
                order.append(low.bit_length() - 1)
                rest ^= low
            order.append(end)
        shapes.append((upart.bit_count(), vpart.bit_count()))
        sigma |= upart | vpart
    # bit[w] is the position mask of sigma's vertex w
    bit = [0] * g.n
    for i, w in enumerate(order):
        bit[w] = 1 << i
    adj = g.adj
    rows = []
    for w in order:
        row = 0
        nbrs = adj[w] & sigma
        while nbrs:
            low = nbrs & -nbrs
            row |= bit[low.bit_length() - 1]
            nbrs ^= low
        rows.append(row)
    key = (tuple(shapes), tuple(rows))
    if memo is None:
        memo = {}
    if key not in memo:
        memo[key] = _block_order_certificate(*key, memo)
    res = memo[key]
    if res is None:
        raise RuntimeError("certificate construction failed; theorem hypothesis violated")
    s, degree = res
    if s != len(order) - len(shapes) or degree != (1 << len(order)) - 1:
        raise RuntimeError("certificate landed in an unexpected strand")
    return s, sigma


def _connector_order(masks) -> list[int]:
    """A generator order that leaves few pairs admissible: connectors first.

    A greedy pass places, one at a time, the unplaced generator whose mask
    lies inside the lcm (mask OR) of the most still-admissible pairs of
    unplaced generators; ties go to the lowest position.  A pair dies once a
    generator placed before both of its members divides its lcm, which is
    the pair test of the module docstring, and by the pair filter a dead
    pair prunes every symbol that holds both members.  The masks are the
    polarized ones, so this works for every monomial ideal.

    The pair (a, b), a < b, is bit a * u + b of a pair mask, and inside[q]
    is the mask of the pairs whose lcm holds masks[q], q not among them.
    Such a q meets masks[a], since no generator mask lies inside another,
    and the b that qualify are the positions whose masks hold every bit of
    masks[q] & ~masks[a]: one AND per bit of that difference, for each q
    that meets masks[a].
    """
    u = len(masks)
    # holders[v] is the position mask of the generators whose mask holds bit v
    holders: dict[int, int] = {}
    for q, m in enumerate(masks):
        for v in iter_bits(m):
            holders[v] = holders.get(v, 0) | 1 << q
    full = (1 << u) - 1
    inside = [0] * u
    for a, ma in enumerate(masks):
        near = 0
        for v in iter_bits(ma):
            near |= holders[v]
        above = full ^ ((2 << a) - 1)
        for q in iter_bits(near ^ 1 << a):
            bs = above & ~(1 << q)
            for v in iter_bits(masks[q] & ~ma):
                bs &= holders[v]
            if bs:
                inside[q] |= bs << a * u
    alive = (1 << u * u) - 1
    # one bit per row, at column 0: the pairs (a, q) are column << q
    column = alive // full if u else 0
    left = list(range(u))
    order = []
    while left:
        # max keeps the first of equal scores, the lowest position
        q = max(left, key=lambda q: (inside[q] & alive).bit_count())
        if not inside[q] & alive:
            return order + left
        left.remove(q)
        order.append(q)
        alive &= ~(inside[q] | full << q * u | column << q)
    return order


def lyubeznik_betti_table(ideal: MonomialIdeal, field: FieldSpec = GF2) -> BettiTable:
    """Betti table of S/I from the Lyubeznik resolution in the connector order.

    The table resolves ``ideal.reordered(_connector_order(ideal.masks))``,
    not the ideal's own order.  Every generator order gives a free
    resolution of S/I, and entries are keyed by degree masks, which a
    permutation of the generators leaves unchanged, so the table is the
    same for every order; the connector order only leaves fewer admissible
    symbols to enumerate (on P12, 671 in place of all 2,047 subsets of its
    11 edges).  The generator cap is checked before the order is built.

    The complex splits by multidegree after tensoring with the residue field;
    each strand keeps only unit-cofactor boundary terms, as sparse rows for
    ``linalg.rank_over``.  Degrees are ORs of generator masks, which for a
    squarefree ideal are the supports.  Independent of the Hochster engine,
    so the two routes cross-check each other.

    Symbols come in depth-first preorder, so the prefix of a symbol of
    length k (the symbol without its last member) is the last symbol of
    length k - 1 seen before it; its degree, twice-covered bits and key, the
    mask of its members' positions, are each one OR away.  A facet is found
    by its key.
    """
    if not ideal.is_squarefree():
        raise ValueError("Betti tables here are for squarefree ideals")
    _check_cap(ideal.ngens)
    ideal = ideal.reordered(_connector_order(ideal.masks))
    masks = ideal.masks
    # degree -> s -> [(symbol, key, bits that two or more of its members cover)]
    by_degree: dict[int, dict[int, list[tuple[tuple[int, ...], int, int]]]] = {}
    # last[k] is (degree, twice, key) of the last symbol of length k so far
    last = [(0, 0, 0)] * (ideal.ngens + 1)
    for sym in admissible_symbols(ideal):
        k = len(sym)
        deg, twice, key = last[k - 1]
        i = sym[-1]
        m = masks[i]
        twice |= deg & m
        deg |= m
        key |= 1 << i
        last[k] = (deg, twice, key)
        by_degree.setdefault(deg, {}).setdefault(k, []).append((sym, key, twice))
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for deg, strata in by_degree.items():
        ranks: dict[int, int] = {}
        for s, terms in strata.items():
            below = strata.get(s - 1)
            if not below:
                ranks[s] = 0
                continue
            lower = {key: k for k, (_, key, _) in enumerate(below)}
            rows = []
            for sym, key, twice in terms:
                row = {}
                for t, i in enumerate(sym):
                    # the facet without member t has a unit cofactor
                    if masks[i] & ~twice == 0:
                        row[lower[key ^ 1 << i]] = -1 if t & 1 else 1
                rows.append(row)
            ranks[s] = rank_over(field, rows)
        for s, terms in strata.items():
            dim = len(terms) - ranks.get(s, 0) - ranks.get(s + 1, 0)
            if dim:
                entries[(s, deg)] = dim
    return BettiTable("quotient", field, ideal.variables, entries)
