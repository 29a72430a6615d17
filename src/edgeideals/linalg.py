"""Exact rank computations over prime fields and the rationals.

One kernel, ``rank_over``, takes integer matrices as sparse rows (a dict
from column to nonzero entry).  It eliminates unit (+-1) pivots over Z
first, pivoting each row on its largest column as persistence reduction
pivots on the "low" entry; every such step is unimodular, so it is exact
over every field at once.  What no unit pivot clears is compacted into a
small dense residual and finished by field arithmetic: fraction-free
Bareiss elimination over the rationals (all arithmetic stays in the
integers), bit-packed rows over GF(2), modular elimination over GF(p).
"""

from __future__ import annotations


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases.

    Deterministic for n < 3.18 * 10**23, which covers every 64-bit prime;
    beyond that a pass means a strong probable prime to all twelve bases.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A coefficient field: GF(p) for a prime p, or the exact rationals."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind == "gf":
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"GF order must be prime, got {p}")
        elif kind == "rat":
            p = None
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        text = text.strip().lower()
        if text in ("rat", "q", "rational", "rationals"):
            return cls("rat")
        if text.startswith("gf") and text[2:].isdecimal():
            return cls("gf", int(text[2:]))
        raise ValueError(f"cannot parse field {text!r}; use gf<p> or rat")

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"gf{self.p}" if self.kind == "gf" else "rat"


GF2 = FieldSpec("gf", 2)
RATIONALS = FieldSpec("rat")


def rank_over(field: FieldSpec, int_rows: list[dict[int, int]]) -> int:
    """Rank over the field of an integer matrix given as sparse rows.

    Each row maps a column to a nonzero integer; the rows are not mutated.
    Every row is first reduced over Z by pivot rows whose largest column
    holds a unit (+-1), and becomes one itself when its own largest column
    does.  Each step adds an integer multiple of a unit-pivot row, so it is
    unimodular, and the pivot rows are independent over every field.  The
    rows left over are reduced against the final pivots; the rank is the
    number of pivots plus the rank of that residual over the field.
    """
    pivots: dict[int, dict[int, int]] = {}
    rest: list[dict[int, int]] = []
    for row in int_rows:
        row = dict(row)
        while row:
            col = max(row)
            head = row[col]
            piv = pivots.get(col)
            if piv is None:
                if head == 1 or head == -1:
                    pivots[col] = row
                else:
                    rest.append(row)
                break
            _eliminate(row, piv, head * piv[col])
    if not rest:
        return len(pivots)
    # eliminating a pivot column only touches smaller columns, so one
    # descending sweep clears every pivot column
    order = sorted(pivots, reverse=True)
    residual = []
    for row in rest:
        for col in order:
            if col in row:
                piv = pivots[col]
                _eliminate(row, piv, row[col] * piv[col])
        if row:
            residual.append(row)
    return len(pivots) + _residual_rank(field, residual)


def _eliminate(row: dict[int, int], piv: dict[int, int], factor: int) -> None:
    """row -= factor * piv, dropping the entries that cancel."""
    for c, x in piv.items():
        v = row.get(c, 0) - factor * x
        if v:
            row[c] = v
        else:
            del row[c]


def _residual_rank(field: FieldSpec, rows: list[dict[int, int]]) -> int:
    """Rank of the rows no unit pivot eliminated, compacted to dense form."""
    if not rows:
        return 0
    cols = {c: k for k, c in enumerate(sorted(set().union(*rows)))}
    if field.p == 2:
        packed = []
        for row in rows:
            bits = 0
            for c, x in row.items():
                if x & 1:
                    bits |= 1 << cols[c]
            packed.append(bits)
        return _rank_gf2(packed)
    dense = []
    for row in rows:
        out = [0] * len(cols)
        for c, x in row.items():
            out[cols[c]] = x
        dense.append(out)
    if field.kind == "rat":
        return _rank_bareiss(dense)
    return _rank_gfp(dense, field.p)


def _rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmasks."""
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            if row & (p & -p):
                row ^= p
        if row:
            pivots.append(row)
    return len(pivots)


def _rank_gfp(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by modular elimination."""
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0])
    nrows = len(mat)
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(rank + 1, nrows):
            if mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def _rank_bareiss(mat: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free Bareiss elimination; consumes mat."""
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        # rows below must be updated even when their head is zero, to keep
        # every entry an exact subdeterminant (the division stays integral)
        for r in range(rank + 1, nrows):
            head = mat[r][col]
            row = mat[r]
            top = mat[rank]
            for c in range(col, ncols):
                row[c] = (pivot * row[c] - head * top[c]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank
