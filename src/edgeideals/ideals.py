"""Monomials, monomial ideals, covers, Alexander duals and Betti tables.

Everything this package stores is squarefree (edge ideals and their duals),
but monomials carry full exponent vectors so that Taylor-complex cofactors
and lcm arithmetic work for arbitrary monomial input.

Each ideal also carries the polarized bitmask of every generator
(``MonomialIdeal.masks``).  Variable i gets one bit per distinct nonzero
exponent it takes among the generators, and exponent e sets the bit of every
such threshold <= e.  Polarization keeps the lcm lattice of the generators:
divisibility is mask inclusion, lcm is OR, and two lcms are equal exactly
when their masks are.  Bit i is the lowest threshold of variable i and
further thresholds sit above bit nvars - 1, so ``mask & (2**nvars - 1)`` is
the support, and the masks of a squarefree ideal are its supports.  The
width counts distinct exponents, not their size: an exponent of 10**9 costs
one bit.

``BettiTable`` holds a multigraded Betti table; it lives here, beside the
ideals, because both table engines (Hochster's formula and the Lyubeznik
strands) build one and neither should have to import the other.
"""

from __future__ import annotations

import json
import operator

from .graphs import SimpleGraph, bit_list, check_keys, iter_bits


class Monomial:
    """Monomial as a dense exponent vector over a fixed variable list."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        self.exps = tuple(exps)
        if self.exps and min(self.exps) < 0:
            raise ValueError(f"negative exponent in {self.exps}")

    @classmethod
    def one(cls, nvars):
        return cls((0,) * nvars)

    @classmethod
    def from_support(cls, mask: int, nvars: int):
        return cls(tuple(mask >> i & 1 for i in range(nvars)))

    def degree(self) -> int:
        return sum(self.exps)

    def support(self) -> int:
        m = 0
        for i, e in enumerate(self.exps):
            if e:
                m |= 1 << i
        return m

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def is_one(self) -> bool:
        return not any(self.exps)

    def divides(self, other: "Monomial") -> bool:
        return all(map(operator.le, self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exps, other.exps)))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(operator.add, self.exps, other.exps)))

    def quotient(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError("inexact monomial division")
        return Monomial(tuple(map(operator.sub, self.exps, other.exps)))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Monomial({self.exps})"

    def pretty(self, variables) -> str:
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(variables[i])
            elif e > 1:
                parts.append(f"{variables[i]}^{e}")
        return "*".join(parts) if parts else "1"


def lcm_of(monomials, nvars) -> Monomial:
    out = Monomial.one(nvars)
    for m in monomials:
        out = out.lcm(m)
    return out


def _polarized_masks(generators, nvars: int) -> tuple[int, ...]:
    """Polarized bitmask of each generator (layout in the module docstring)."""
    masks = [0] * len(generators)
    spare = nvars
    for i, column in enumerate(zip(*(g.exps for g in generators))):
        levels = sorted(set(column) - {0})
        if not levels:
            continue
        acc = 1 << i
        threshold = {levels[0]: acc}
        for e in levels[1:]:
            acc |= 1 << spare
            spare += 1
            threshold[e] = acc
        for k, e in enumerate(column):
            if e:
                masks[k] |= threshold[e]
    return tuple(masks)


def _first_divisor_pair(masks) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with i != j and masks[i] inside
    masks[j], or None when the masks form an antichain.

    Distinct masks of one bit count form an antichain, which this tells in
    O(g): every edge ideal is such a list.  In any other list a mask lies
    inside another with as many bits only when the two are equal, so each
    mask is tested against its own duplicates and the distinct masks with
    more bits.
    """
    if len(set(masks)) == len(masks) and len({m.bit_count() for m in masks}) < 2:
        return None
    # positions of each distinct mask, and the distinct masks of each bit count
    where: dict[int, list[int]] = {}
    for j, m in enumerate(masks):
        where.setdefault(m, []).append(j)
    by_count: dict[int, list[int]] = {}
    for m in where:
        by_count.setdefault(m.bit_count(), []).append(m)
    for i, mi in enumerate(masks):
        same = where[mi]
        # the first other position holding the same mask
        hits = [same[1] if same[0] == i else same[0]] if len(same) > 1 else []
        count = mi.bit_count()
        for c, group in by_count.items():
            if c > count:
                hits += [where[mj][0] for mj in group if mi & ~mj == 0]
        if hits:
            return i, min(hits)
    return None


class MonomialIdeal:
    """Monomial ideal given by a minimal generating set; generator order is significant.

    ``masks[k]`` is the polarized bitmask of ``generators[k]``.
    ``first_divisors`` is the first-divisor memo of ``first_divisor``: it maps
    a mask to the least generator position whose mask lies inside it.  It
    starts empty, fills as masks are asked about, and belongs to this object
    alone: ``reordered`` gives the copy an empty one, since positions move.
    """

    __slots__ = ("variables", "generators", "masks", "first_divisors")

    def __init__(self, variables, generators):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        gens = []
        for g in generators:
            if not isinstance(g, Monomial):
                g = Monomial(g)
            if len(g.exps) != len(self.variables):
                raise ValueError("generator length does not match variable count")
            if g.is_one():
                raise ValueError("unit generator: the ideal is not proper")
            gens.append(g)
        masks = _polarized_masks(gens, len(self.variables))
        pair = _first_divisor_pair(masks)
        if pair is not None:
            i, j = pair
            raise ValueError(f"generators not minimal: #{i} divides #{j}")
        self.generators = tuple(gens)
        self.masks = masks
        self.first_divisors: dict[int, int] = {}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.generators)

    def first_divisor(self, mask: int) -> int:
        """Least position k with ``masks[k]`` inside mask (``ngens`` when there is
        none), memoized in ``first_divisors``."""
        k = self.first_divisors.get(mask)
        if k is None:
            k = next((q for q, m in enumerate(self.masks) if m & ~mask == 0), len(self.masks))
            self.first_divisors[mask] = k
        return k

    def supports(self) -> list[int]:
        full = (1 << self.nvars) - 1
        return [m & full for m in self.masks]

    def reordered(self, order) -> "MonomialIdeal":
        """The same ideal with generators (and masks) in the given order; a
        permutation of a minimal generating set stays minimal, so nothing is
        checked again."""
        order = tuple(order)
        if sorted(order) != list(range(self.ngens)):
            raise ValueError(f"order {order} is not a permutation of 0..{self.ngens - 1}")
        out = object.__new__(MonomialIdeal)
        out.variables = self.variables
        out.generators = tuple(self.generators[i] for i in order)
        out.masks = tuple(self.masks[i] for i in order)
        out.first_divisors = {}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.variables == other.variables
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.variables, self.generators))

    def same_generators(self, other: "MonomialIdeal") -> bool:
        """Equality as ideals (generating sets compared unordered)."""
        return self.variables == other.variables and set(self.generators) == set(
            other.generators
        )

    def __repr__(self):
        gens = ", ".join(g.pretty(self.variables) for g in self.generators)
        return f"MonomialIdeal({gens})"

    @classmethod
    def from_json(cls, obj) -> "MonomialIdeal":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("ideal JSON must be an object")
        check_keys(obj, ("variables", "generators"), "ideal JSON")
        missing = [key for key in ("variables", "generators") if key not in obj]
        if missing:
            raise ValueError(f"ideal JSON needs {' and '.join(map(repr, missing))}")
        variables, gens = obj["variables"], obj["generators"]
        if not (isinstance(variables, list) and all(isinstance(x, str) for x in variables)):
            raise ValueError("'variables' must be a list of strings")
        if not isinstance(gens, list) or not all(
            isinstance(e, list)
            and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
            for e in gens
        ):
            raise ValueError("'generators' must be a list of integer exponent vectors")
        return cls(variables, [Monomial(e) for e in gens])

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "generators": [list(g.exps) for g in self.generators],
        }

    @classmethod
    def load(cls, path: str) -> "MonomialIdeal":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class BettiTable:
    """Multigraded Betti numbers, either of S/I (quotient) or of I itself."""

    __slots__ = ("subject", "field", "variables", "entries")

    def __init__(self, subject, field, variables, entries):
        if subject not in ("quotient", "ideal"):
            raise ValueError(f"unknown subject {subject!r}")
        self.subject = subject
        self.field = field
        self.variables = tuple(variables)
        self.entries = {k: v for k, v in entries.items() if v}

    def entry(self, i: int, sigma: int) -> int:
        return self.entries.get((i, sigma), 0)

    def nonzero(self) -> list[tuple[int, int, int]]:
        return sorted((i, s, v) for (i, s), v in self.entries.items())

    def pd(self) -> int:
        """Largest homological degree with a nonzero entry."""
        return max((i for i, _ in self.entries), default=0)

    def reg(self) -> int:
        """max |sigma| - i over nonzero entries."""
        return max((s.bit_count() - i for i, s in self.entries), default=0)

    def graded(self) -> dict[tuple[int, int], int]:
        """N-graded Betti numbers beta_{i,j} = sum over |sigma| = j."""
        out: dict[tuple[int, int], int] = {}
        for (i, s), v in self.entries.items():
            key = (i, s.bit_count())
            out[key] = out.get(key, 0) + v
        return out

    def linear_strand(self) -> dict[tuple[int, int], int]:
        return {(i, s): v for (i, s), v in self.entries.items() if s.bit_count() == i + 1}

    def extremal(self) -> list[tuple[int, int]]:
        """Entries (i, sigma) with no nonzero entry weakly above-and-beyond them.

        (j, tau) dominates (i, sigma) when j >= i, tau strictly contains sigma,
        and |tau| - |sigma| >= j - i.
        """
        keys = list(self.entries)
        out = []
        for i, s in keys:
            size = s.bit_count()
            dominated = any(
                j >= i and t != s and s & ~t == 0 and t.bit_count() - size >= j - i
                for j, t in keys
            )
            if not dominated:
                out.append((i, s))
        return sorted(out)

    def diagram_text(self) -> str:
        """ASCII Betti diagram: rows j, columns i, entry beta_{i,i+j}; blank = 0."""
        graded = self.graded()
        if not graded:
            return "(empty table)"
        pdeg = max(i for i, _ in graded)
        maxreg = max(j - i for i, j in graded)
        minreg = min(j - i for i, j in graded)
        width = max(len(str(v)) for v in graded.values())
        width = max(width, len(str(pdeg)), 2)
        lines = ["j\\i " + " ".join(f"{i:>{width}}" for i in range(pdeg + 1))]
        for j in range(min(0, minreg), maxreg + 1):
            cells = []
            for i in range(pdeg + 1):
                v = graded.get((i, i + j), 0)
                cells.append(f"{v:>{width}}" if v else " " * width)
            lines.append(f"{j:>3} " + " ".join(cells))
        return "\n".join(lines)

    def multigraded_rows(self) -> list[dict]:
        return [
            {"i": i, "sigma": [self.variables[v] for v in iter_bits(s)], "value": v}
            for i, s, v in self.nonzero()
        ]

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "field": repr(self.field),
            "variables": list(self.variables),
            "entries": [
                {"i": i, "sigma": bit_list(s), "value": v} for i, s, v in self.nonzero()
            ],
            "pd": self.pd(),
            "reg": self.reg(),
        }


def edge_ideal(g: SimpleGraph) -> MonomialIdeal:
    """I(G), generators ordered lexicographically on sorted endpoint pairs."""
    gens = [
        Monomial.from_support(1 << u | 1 << v, g.n) for u, v in sorted(g.edges())
    ]
    return MonomialIdeal(g.labels, gens)


def maximal_independent_sets(g: SimpleGraph) -> list[int]:
    """Bron-Kerbosch with pivoting, run on the graph itself (independent sets)."""
    if g.n == 0:
        return [0]
    non_adj = [
        ((1 << g.n) - 1) & ~g.adj[v] & ~(1 << v) for v in range(g.n)
    ]
    out = []
    # pending calls (r, p, x); a call pushes one call per vertex of p outside
    # the pivot's non-neighbours, moving each from p to x for the later ones
    stack = [(0, (1 << g.n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        pivot = max(iter_bits(p | x), key=lambda u: (non_adj[u] & p).bit_count())
        for v in bit_list(p & ~non_adj[pivot]):
            stack.append((r | 1 << v, p & non_adj[v], x & non_adj[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return sorted(out)


def minimal_vertex_covers(g: SimpleGraph) -> list[int]:
    """Minimal vertex covers as bitmasks, sorted by (size, mask)."""
    full = g.vertex_mask()
    covers = [full & ~s for s in maximal_independent_sets(g)]
    return sorted(covers, key=lambda c: (c.bit_count(), c))


def is_unmixed(g: SimpleGraph) -> bool:
    sizes = {c.bit_count() for c in minimal_vertex_covers(g)}
    return len(sizes) <= 1


def cover_ideal(g: SimpleGraph) -> MonomialIdeal:
    """Alexander dual of I(G): generated by the minimal vertex covers."""
    if g.edge_count() == 0:
        raise ValueError("edgeless graph: the dual of the zero ideal is the unit ideal")
    gens = [Monomial.from_support(c, g.n) for c in minimal_vertex_covers(g)]
    return MonomialIdeal(g.labels, gens)


def alexander_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """Squarefree Alexander dual: one generator per minimal prime (transversal)."""
    if not ideal.is_squarefree():
        raise ValueError("Alexander dual needs a squarefree ideal")
    if ideal.ngens == 0:
        raise ValueError("zero ideal: the dual would be the unit ideal")
    # facets of the Stanley-Reisner complex: the maximal sets that contain
    # no support, reached by deleting one vertex of a contained support at
    # a time; their complements are the minimal transversals
    supports = ideal.supports()
    full = (1 << ideal.nvars) - 1
    free = set()
    seen = set()
    stack = [full]
    while stack:
        avail = stack.pop()
        if avail in seen:
            continue
        seen.add(avail)
        for s in supports:
            if s & ~avail == 0:
                stack.extend(avail & ~(1 << v) for v in iter_bits(s))
                break
        else:
            free.add(avail)
    transversals = sorted(
        (full & ~f for f in free if not any(f != h and f & ~h == 0 for h in free)),
        key=lambda c: (c.bit_count(), c),
    )
    return MonomialIdeal(
        ideal.variables, [Monomial.from_support(t, ideal.nvars) for t in transversals]
    )
