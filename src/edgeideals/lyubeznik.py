"""Taylor complexes, ordered-generator admissibility, and non-vanishing certificates.

Fix a monomial ideal I with ordered minimal generators m_0, ..., m_{u-1}
(positions are 0-based throughout).  A symbol is a strictly increasing index
tuple; it is admissible when for every non-final member l_t, no earlier
generator m_q (q < l_t) divides lcm(m_{l_t}, ..., m_{l_s}).  The admissible
symbols span a subcomplex of the Taylor complex that resolves S/I, so a
maximal admissible symbol whose entire boundary has non-unit cofactors, or a
cycle of admissible symbols whose unit-cofactor boundary cancels and whose
leading symbol is maximal, certifies a nonzero multigraded Betti number.

Cycle cancellation is checked over the integers, which is sound over every
coefficient field at once.

Admissibility and the strand tables work on the ideal's polarized generator
masks (``MonomialIdeal.masks``): m_q divides an lcm exactly when its mask is
inside the OR of the members' masks, and a boundary term has a unit cofactor
exactly when dropping that member leaves the OR unchanged.  The public
degrees and cofactors of ``symbol_degree``, ``taylor_boundary`` and the
certificates stay ``Monomial``s.
"""

from __future__ import annotations

from .errors import ResourceLimitError
from .graphs import SimpleGraph, bit_list, iter_bits
from .hochster import BettiTable
from .ideals import Monomial, MonomialIdeal, edge_ideal, lcm_of
from .linalg import GF2, FieldSpec, rank_over
from .witness import DisjointFamily, valid_representatives

MAX_ADMISSIBLE_GENS = 24


def _ordered(ideal: MonomialIdeal, order) -> MonomialIdeal:
    if order is None:
        return ideal
    return ideal.reordered(order)


def symbol_degree(ideal: MonomialIdeal, indices, order=None) -> Monomial:
    gens = _ordered(ideal, order).generators
    return lcm_of([gens[i] for i in indices], ideal.nvars)


def _check_symbol(ideal: MonomialIdeal, indices) -> tuple[int, ...]:
    indices = tuple(indices)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"symbol indices must strictly increase: {indices}")
    if indices and not 0 <= indices[0] <= indices[-1] < ideal.ngens:
        raise ValueError(f"symbol indices out of range: {indices}")
    return indices


def taylor_boundary(ideal: MonomialIdeal, indices, order=None):
    """Boundary of a Taylor symbol: list of (subsymbol, sign, cofactor monomial)."""
    ordered = _ordered(ideal, order)
    indices = _check_symbol(ordered, indices)
    gens = ordered.generators
    full = lcm_of([gens[i] for i in indices], ordered.nvars)
    out = []
    for t in range(len(indices)):
        sub = indices[:t] + indices[t + 1 :]
        rest = lcm_of([gens[i] for i in sub], ordered.nvars)
        out.append((sub, -1 if t & 1 else 1, full.quotient(rest)))
    return out


def is_admissible(ideal: MonomialIdeal, indices, order=None) -> bool:
    """Whether the symbol is admissible, in one backward walk over it.

    The walk checks order and range as it goes, and a symbol that is not
    strictly increasing or not in range raises the ValueError of
    ``_check_symbol`` even when it is already known to be inadmissible.
    """
    ordered = _ordered(ideal, order)
    indices = tuple(indices)
    if not indices:
        return True
    masks = ordered.masks
    nxt = indices[-1]
    if not 0 <= nxt < len(masks):
        _check_symbol(ordered, indices)
    lcm = masks[nxt]
    admissible = True
    for t in range(len(indices) - 2, -1, -1):
        i = indices[t]
        if not 0 <= i < nxt:
            _check_symbol(ordered, indices)
        nxt = i
        if admissible:
            lcm |= masks[i]
            for q in range(i):
                if masks[q] & ~lcm == 0:
                    admissible = False
                    break
    return admissible


def admissible_symbols(ideal: MonomialIdeal, order=None, s: int | None = None):
    """All admissible symbols (of homological degree s when given), by DFS.

    Admissibility is closed under taking subsets, so pruning inadmissible
    extensions never loses a symbol.
    """
    ordered = _ordered(ideal, order)
    u = ordered.ngens
    if u > MAX_ADMISSIBLE_GENS:
        raise ResourceLimitError(
            f"{u} generators exceeds the admissible-symbol cap of {MAX_ADMISSIBLE_GENS}"
        )
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], start: int):
        if s is None or len(prefix) == s:
            if prefix:
                out.append(prefix)
            if s is not None:
                return
        for nxt in range(start, u):
            cand = prefix + (nxt,)
            if is_admissible(ordered, cand):
                grow(cand, nxt + 1)

    grow((), 0)
    return out


def is_maximal_admissible(ideal: MonomialIdeal, indices, order=None, paranoid=False) -> bool:
    """No admissible proper superset exists.

    Downward closure of admissibility makes single-element extensions a
    complete test; paranoid=True additionally walks every superset.
    """
    ordered = _ordered(ideal, order)
    indices = _check_symbol(ordered, indices)
    if not is_admissible(ordered, indices):
        raise ValueError("symbol is not admissible")
    members = set(indices)
    for k in range(ordered.ngens):
        if k in members:
            continue
        cand = tuple(sorted(members | {k}))
        if is_admissible(ordered, cand):
            return False
    if paranoid:
        outside = [k for k in range(ordered.ngens) if k not in members]

        def any_admissible_superset(extra: tuple[int, ...], start: int) -> bool:
            if extra:
                cand = tuple(sorted(members.union(extra)))
                if is_admissible(ordered, cand):
                    return True
            return any(
                any_admissible_superset(extra + (outside[j],), j + 1)
                for j in range(start, len(outside))
            )

        if any_admissible_superset((), 0):
            return False
    return True


def barile_certificate(ideal: MonomialIdeal, indices, order=None):
    """(s, degree) when the symbol is maximal admissible with no unit cofactor.

    Every boundary facet then has strictly smaller degree, so the symbol
    survives in the minimalization and beta_{s, deg} (S/I) is nonzero.
    """
    ordered = _ordered(ideal, order)
    indices = _check_symbol(ordered, indices)
    if not is_admissible(ordered, indices):
        return None
    if not is_maximal_admissible(ordered, indices):
        return None
    for _, _, cof in taylor_boundary(ordered, indices):
        if cof.is_one():
            return None
    return len(indices), symbol_degree(ordered, indices)


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

    def scaled_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def to_json(self) -> list[dict]:
        return [
            {"indices": list(k), "coefficient": v, "leading": k == self.leading}
            for k, v in self.scaled_terms()
        ]

    def __repr__(self):
        body = " + ".join(f"{v}*e{list(k)}" for k, v in self.scaled_terms())
        return f"Cycle({body}; leading=e{list(self.leading)})"


def check_cycle_certificate(ideal: MonomialIdeal, cycle: Cycle, order=None):
    """(s, degree) when the unit-cofactor boundary cancels integrally and the
    leading symbol is maximal admissible; None otherwise.

    Raises ValueError if the terms are not same-degree admissible symbols.
    """
    ordered = _ordered(ideal, order)
    degrees = set()
    for sym in cycle.terms:
        _check_symbol(ordered, sym)
        if not is_admissible(ordered, sym):
            raise ValueError(f"cycle term {sym} is not admissible")
        degrees.add(symbol_degree(ordered, sym))
    if len(degrees) != 1:
        raise ValueError("cycle terms have mixed multidegrees")
    image: dict[tuple[int, ...], int] = {}
    for sym, coeff in cycle.terms.items():
        for sub, sign, cof in taylor_boundary(ordered, sym):
            if cof.is_one():
                image[sub] = image.get(sub, 0) + coeff * sign
    if any(image.values()):
        return None
    if not is_maximal_admissible(ordered, cycle.leading):
        return None
    return cycle.s, next(iter(degrees))


def bipartite_cycle(m: int, n: int, left_labels=None, right_labels=None):
    """The canonical non-vanishing cycle for I(K_{m,n}).

    Returns (ideal, cycle): the edge ideal of K_{m,n} with generators in the
    row-major order u_1 v_1, ..., u_m v_1, u_1 v_2, ..., u_m v_n, and the
    alternating-sign cycle over all threshold symbols tau(t_1 <= ... <= t_{n-1}),
    in homological degree m+n-1 with multidegree the full vertex set.  The
    leading symbol is tau(m, ..., m), normalized to coefficient 1.
    """
    if m < 1 or n < 1:
        raise ValueError("both sides must be nonempty")
    if left_labels is None:
        left_labels = [f"u{i + 1}" for i in range(m)]
    if right_labels is None:
        right_labels = [f"v{j + 1}" for j in range(n)]
    variables = list(left_labels) + list(right_labels)
    gens = []
    for beta in range(n):
        for alpha in range(m):
            gens.append(Monomial.from_support(1 << alpha | 1 << (m + beta), m + n))
    return MonomialIdeal(variables, gens), _threshold_cycle(m, n)


def _threshold_cycle(m: int, n: int) -> Cycle:
    """The cycle of ``bipartite_cycle(m, n)``, which depends on (m, n) alone."""

    def tau(ts: tuple[int, ...]) -> tuple[int, ...]:
        bounds = (1,) + ts + (m,)
        idx = []
        for beta in range(1, n + 1):
            for alpha in range(bounds[beta - 1], bounds[beta] + 1):
                idx.append((beta - 1) * m + alpha - 1)
        return tuple(idx)

    def thresholds(depth: int, lo: int, acc: tuple[int, ...], sink: list):
        if depth == 0:
            sink.append(acc)
            return
        for t in range(lo, m + 1):
            thresholds(depth - 1, t, acc + (t,), sink)

    all_ts: list[tuple[int, ...]] = []
    thresholds(n - 1, 1, (), all_ts)
    norm = (-1) ** (m * (n - 1))
    terms = {tau(ts): norm * (-1) ** sum(ts) for ts in all_ts}
    leading = tau((m,) * (n - 1))
    return Cycle(terms, leading)


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


def _block_run(g: SimpleGraph, block, rep, bit: dict[int, int]):
    """Generator supports for one block, with bit[w] the bit of vertex w: cross
    edges row-major with the representative endpoints last in their parts,
    then the block's other induced edges.  Also returns the part sizes."""
    u, v = rep
    if 1 << u & block.left and 1 << v & block.right:
        left, right = block.left, block.right
    elif 1 << u & block.right and 1 << v & block.left:
        left, right = block.right, block.left
    else:
        raise ValueError("representative must be a cross edge of its block")
    lefts = [w for w in iter_bits(left) if w != u] + [u]
    rights = [w for w in iter_bits(right) if w != v] + [v]
    run = [bit[a] | bit[b] for b in rights for a in lefts]
    # then the edges inside a part, each as (a, b) with a < b, in increasing order
    for a in iter_bits(block.vertices):
        part = left if left >> a & 1 else right
        for b in iter_bits(g.adj[a] & part & ~((2 << a) - 1)):
            run.append(bit[a] | bit[b])
    return run, len(lefts), len(rights)


def main_theorem_certificate(g: SimpleGraph, fam: DisjointFamily, memo: dict | None = None):
    """Certify beta_{|sigma|-r, sigma}(S/I(G)) != 0 for a valid disjoint family.

    Works inside the induced subgraph on sigma (Betti numbers in degree sigma
    only depend on it), lists each block's generators first (cross edges
    row-major with the representative last, then the block's other induced
    edges), forms the product of the blocks' threshold cycles, and runs the
    cycle certificate.  Returns (|sigma| - r, sigma) on success.

    The cycle check reads only the ordered generator supports (bitmasks over
    sigma's positions) and each block's shape (m, n, run length), so memo, a
    dict the caller owns, keeps its result under exactly that key.  The key
    names neither the graph nor the field, so one memo serves every graph and
    field; campaigns keep one per ``run_campaign`` call and other callers pass
    none.  Validating the family and checking the strand run on every call.
    """
    reps = valid_representatives(g, fam)
    if reps is None:
        raise ValueError("family is not valid for this graph")
    sigma = fam.sigma
    verts = bit_list(sigma)
    bit = {w: 1 << i for i, w in enumerate(verts)}
    supports: list[int] = []
    shapes = []
    for block, rep in zip(fam.blocks, reps):
        run, msize, nsize = _block_run(g, block, rep, bit)
        supports.extend(run)
        shapes.append((msize, nsize, len(run)))
    seen = set(supports)
    for a in iter_bits(sigma):
        for b in iter_bits(g.adj[a] & sigma & ~((2 << a) - 1)):
            if bit[a] | bit[b] not in seen:
                supports.append(bit[a] | bit[b])
    key = (tuple(supports), tuple(shapes))
    if memo is None:
        memo = {}
    if key not in memo:
        nvars = len(verts)
        ideal = MonomialIdeal(
            [g.labels[w] for w in verts],
            [Monomial.from_support(s, nvars) for s in supports],
        )
        cycle = product_cycle([(k, _threshold_cycle(m, n)) for m, n, k in shapes])
        memo[key] = check_cycle_certificate(ideal, cycle)
    res = memo[key]
    if res is None:
        raise RuntimeError("certificate construction failed; theorem hypothesis violated")
    s, degree = res
    if s != fam.value or degree.support() != (1 << len(verts)) - 1:
        raise RuntimeError("certificate landed in an unexpected strand")
    return s, sigma


def lyubeznik_betti_table(
    ideal: MonomialIdeal, order=None, field: FieldSpec = GF2
) -> BettiTable:
    """Betti table of S/I from the Lyubeznik resolution for the given order.

    The complex splits by multidegree after tensoring with the residue field;
    each strand keeps only unit-cofactor boundary terms, as sparse rows for
    ``linalg.rank_over``.  Degrees are ORs of generator masks, which for a
    squarefree ideal are the supports.  Independent of the Hochster engine,
    so the two routes cross-check each other.
    """
    ordered = _ordered(ideal, order)
    if not ordered.is_squarefree():
        raise ValueError("Betti tables here are for squarefree ideals")
    masks = ordered.masks
    by_degree: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    for sym in admissible_symbols(ordered):
        deg = 0
        for i in sym:
            deg |= masks[i]
        by_degree.setdefault(deg, {}).setdefault(len(sym), []).append(sym)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for deg, strata in by_degree.items():
        index = {
            s: {sym: k for k, sym in enumerate(syms)} for s, syms in strata.items()
        }
        ranks: dict[int, int] = {}
        for s, syms in strata.items():
            lower = index.get(s - 1)
            if not lower:
                ranks[s] = 0
                continue
            rows = []
            for sym in syms:
                row = {}
                for t in range(s):
                    sub = sym[:t] + sym[t + 1 :]
                    rest = 0
                    for i in sub:
                        rest |= masks[i]
                    if rest == deg:
                        row[lower[sub]] = -1 if t & 1 else 1
                rows.append(row)
            ranks[s] = rank_over(field, rows)
        for s, syms in strata.items():
            dim = len(syms) - ranks.get(s, 0) - ranks.get(s + 1, 0)
            if dim:
                entries[(s, deg)] = dim
    return BettiTable("quotient", field, ordered.variables, entries)


def graph_lyubeznik_table(g: SimpleGraph, order=None, field: FieldSpec = GF2) -> BettiTable:
    return lyubeznik_betti_table(edge_ideal(g), order=order, field=field)
