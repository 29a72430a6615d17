"""Exact rank computations over prime fields and the rationals.

One kernel, ``rank_over``, takes integer matrices as sparse rows (a dict
from column to nonzero entry) and pivots each row on its largest column,
as persistence reduction pivots on the "low" entry.  A first pass over Z
takes only unit (+-1) pivots; every such step is unimodular, so it is
exact over every field at once.  The rows whose lead is not a unit are
set aside and finished by the same elimination over the field: over
GF(p) on residues, over the rationals on integer rows divided by their
content, so no fractions arise.  Torsion, where the rank depends on the
characteristic, lives only in those rows.
"""

from __future__ import annotations

import math


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
    rows set aside are then finished by the same elimination over the
    field, against every pivot; the rank is the number of pivots.
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
    p = field.p
    for row in rest:
        row = _normalise(row, p)
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            # scaling by the pivot's lead, a unit of the field, keeps the
            # span and keeps the arithmetic in the integers
            a = piv[col]
            head = row[col]
            if a != 1:
                for c in row:
                    row[c] *= a
            _eliminate(row, piv, head)
            row = _normalise(row, p)
    return len(pivots)


def _eliminate(row: dict[int, int], piv: dict[int, int], factor: int) -> None:
    """row -= factor * piv, dropping the entries that cancel."""
    for c, x in piv.items():
        v = row.get(c, 0) - factor * x
        if v:
            row[c] = v
        else:
            del row[c]


def _normalise(row: dict[int, int], p: int | None) -> dict[int, int]:
    """The row's residues mod p without zeros, or over Q the row divided by its content."""
    if p is not None:
        return {c: r for c, x in row.items() if (r := x % p)}
    g = math.gcd(*row.values())
    if g > 1:
        return {c: x // g for c, x in row.items()}
    return row
