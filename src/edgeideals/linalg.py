"""Exact rank computations over prime fields and the rationals.

GF(2) matrices are lists of int bitmasks (one per row); general matrices are
lists of int lists.  Rational ranks use fraction-free Bareiss elimination so
all intermediate arithmetic stays in the integers.
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
        if text.startswith("gf"):
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


def rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2); rows are bitmasks and are consumed by elimination."""
    pivots: list[int] = []
    rank = 0
    for row in rows:
        for p in pivots:
            if row & (p & -p):
                row ^= p
        if row:
            pivots.append(row)
            rank += 1
    return rank


def rank_gfp(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by straightforward modular elimination."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def rank_bareiss(rows: list[list[int]]) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination."""
    mat = [list(row) for row in rows]
    if not mat:
        return 0
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


def rank_over(field: FieldSpec, int_rows: list[list[int]]) -> int:
    """Rank of an integer matrix viewed over the given field."""
    if not int_rows or not int_rows[0]:
        return 0
    if field.kind == "rat":
        return rank_bareiss(int_rows)
    if field.p == 2:
        packed = []
        for row in int_rows:
            bits = 0
            for c, x in enumerate(row):
                if x & 1:
                    bits |= 1 << c
            packed.append(bits)
        return rank_gf2(packed)
    return rank_gfp(int_rows, field.p)
