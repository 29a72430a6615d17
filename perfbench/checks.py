"""Output checks that share no code with the edgeideals engines.

Tables arrive as plain data: a dict {(i, sigma): beta} with sigma a vertex
bitmask, as produced by ``run.fingerprint``.  Every check returns a list of
error strings; an empty list means the output passed.

- Euler identity: for every vertex subset sigma,
  sum_i (-1)^i beta_{i,sigma} = (-1)^|sigma| * I(G_sigma; -1), where I is
  the independence polynomial, computed here by the O(2^n) recursion
  f(sigma) = f(sigma - v) - f(sigma - N[v]).
- Top strand: beta_{|sigma|-1, sigma} is the number of connected components
  of the complement of G_sigma, minus one (sigma nonempty).
- K_{m,n} linear strand: beta_{i,i+1} = sum over a+b = i+1, a,b >= 1, of
  C(m,a) C(n,b).
- Stored values: pd, reg and the graded table, for every graph and field in
  ``expected.json``.
- Full table: for a graph and field with no stored values (the random graphs
  of a seed that was not recorded), the whole multigraded table must equal
  the one computed here by Hochster's formula,
  beta_{i,sigma} = dim H~_{|sigma|-i-1}(Ind(G)|_sigma), with this module's
  own face enumeration and elimination.
- Certificates: (s, sigma) equals the family's value and support, that entry
  of the table is nonzero, and the value does not exceed pd.
- Campaigns: no violations, and the summary counts equal the stored ones.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from fractions import Fraction
from math import comb

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def graph_key(graph) -> str:
    n, edges = graph
    return f"{n}:" + ",".join(f"{u}-{v}" for u, v in sorted(edges))


def _adjacency(graph) -> list[int]:
    n, edges = graph
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def independence_at_minus_one(graph) -> list[int]:
    """f[sigma] = I(G_sigma; -1) for every vertex subset sigma."""
    n, _ = graph
    adj = _adjacency(graph)
    f = [0] * (1 << n)
    f[0] = 1
    for sigma in range(1, 1 << n):
        v = (sigma & -sigma).bit_length() - 1
        f[sigma] = f[sigma & ~(1 << v)] - f[sigma & ~(1 << v) & ~adj[v]]
    return f


def complement_components(graph) -> list[int]:
    """c[sigma] = number of components of the complement of G_sigma."""
    n, _ = graph
    adj = _adjacency(graph)
    full = (1 << n) - 1
    co = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out = [0] * (1 << n)
    for sigma in range(1, 1 << n):
        left, count = sigma, 0
        while left:
            comp = left & -left
            frontier = comp
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = co[v] & sigma & ~comp
                comp |= new
                frontier |= new
            left &= ~comp
            count += 1
        out[sigma] = count
    return out


def independent_sets(graph) -> list[int]:
    """Every independent vertex set of the graph, as bitmasks, the empty set first."""
    n, _ = graph
    adj = _adjacency(graph)
    out = [0]
    for v in range(n):
        out += [s | 1 << v for s in out if not s & adj[v]]
    return out


def _rank(rows: list[dict[int, int]], p: int | None) -> int:
    """Rank of a matrix given as sparse rows {column: entry}, over GF(p) or, when p is None, over Q."""
    pivots: dict[int, dict] = {}  # pivot column -> row scaled to 1 there, zero at earlier pivots
    for row in rows:
        row = {c: Fraction(v) if p is None else v % p for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = 1 / row[col] if p is None else pow(row[col], p - 2, p)
                pivots[col] = {c: v * inv if p is None else v * inv % p for c, v in row.items()}
                break
            f = row[col]
            for c, v in piv.items():
                x = row.get(c, 0) - f * v
                if p is not None:
                    x %= p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


def hochster_table(graph, field: str) -> dict:
    """{(i, sigma): beta} by Hochster's formula over gf<p> or rat, computed from scratch."""
    p = None if field == "rat" else int(field[2:])
    n, _ = graph
    faces = independent_sets(graph)
    table = {}
    for sigma in range(1 << n):
        by_size: dict[int, list[int]] = defaultdict(list)
        for f in faces:
            if not f & ~sigma:
                by_size[f.bit_count()].append(f)
        # ranks[k]: rank of the boundary map from faces with k vertices to faces with k - 1
        ranks = {}
        for k in range(1, max(by_size) + 1):
            index = {f: j for j, f in enumerate(by_size[k - 1])}
            rows = []
            for f in by_size[k]:
                row, sign, rest = {}, 1, f
                while rest:
                    low = rest & -rest
                    row[index[f ^ low]] = sign
                    sign, rest = -sign, rest ^ low
                rows.append(row)
            ranks[k] = _rank(rows, p)
        for k, fs in by_size.items():
            # faces with k vertices have dimension k - 1, so they give beta_{|sigma| - k, sigma}
            h = len(fs) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if h:
                table[(sigma.bit_count() - k, sigma)] = h
    return table


def summarize(entries: dict) -> dict:
    """pd, reg and graded table of a multigraded table, as stored in expected.json."""
    graded: dict[tuple[int, int], int] = {}
    for (i, s), v in entries.items():
        key = (i, s.bit_count())
        graded[key] = graded.get(key, 0) + v
    return {
        "pd": max((i for i, _ in entries), default=0),
        "reg": max((s.bit_count() - i for i, s in entries), default=0),
        "graded": sorted([i, j, v] for (i, j), v in graded.items()),
    }


def kmn_linear_strand(m: int, n: int) -> dict[int, int]:
    out = {}
    for i in range(1, m + n):
        out[i] = sum(comb(m, a) * comb(n, i + 1 - a) for a in range(1, i + 1) if 1 <= i + 1 - a <= n)
    return out


def kmn_shape(graph):
    """(m, n) when the graph is K_{m,n} on vertices 0..m-1 | m..m+n-1, else None."""
    n_all, edges = graph
    es = set(edges)
    for m in range(1, n_all):
        if len(es) == m * (n_all - m) and all((u, v) in es for u in range(m) for v in range(m, n_all)):
            return m, n_all - m
    return None


class Oracle:
    """Independent expectations for the tables of one graph."""

    def __init__(self, graph, expected: dict | None):
        self.graph = graph
        self.euler = independence_at_minus_one(graph)
        self.components = complement_components(graph)
        self.kmn = kmn_shape(graph)
        self.expected = expected or {}
        self._full: dict[str, dict] = {}

    def full_table(self, field: str) -> dict:
        """The independently computed table over field (cached)."""
        if field not in self._full:
            self._full[field] = hochster_table(self.graph, field)
        return self._full[field]

    def check_table(self, entries: dict, field: str) -> list[str]:
        n, _ = self.graph
        errors = []
        if entries.get((0, 0)) != 1:
            errors.append("beta_{0,empty} != 1")
        alt = [0] * (1 << n)
        for (i, s), v in entries.items():
            if v < 0 or i < 0 or s >> n:
                errors.append(f"malformed entry ({i}, {s}) = {v}")
                continue
            alt[s] += -v if i & 1 else v
        for s in range(1 << n):
            want = -self.euler[s] if s.bit_count() & 1 else self.euler[s]
            if alt[s] != want:
                errors.append(f"Euler identity fails at sigma={s}: {alt[s]} != {want}")
                break
        for s in range(1, 1 << n):
            top = entries.get((s.bit_count() - 1, s), 0)
            if top != self.components[s] - 1:
                errors.append(f"top strand fails at sigma={s}: {top} != {self.components[s] - 1}")
                break
        if self.kmn is not None:
            graded = {(i, j): v for i, j, v in summarize(entries)["graded"]}
            for i, want in kmn_linear_strand(*self.kmn).items():
                if graded.get((i, i + 1), 0) != want:
                    errors.append(f"K_{self.kmn} linear strand fails at i={i}")
        stored = self.expected.get(field)
        if stored is not None:
            got = summarize(entries)
            for key in ("pd", "reg", "graded"):
                if got[key] != stored[key]:
                    errors.append(f"{key} {got[key]} != stored {stored[key]}")
        elif {k: v for k, v in entries.items() if v} != self.full_table(field):
            errors.append("table differs from the one computed by Hochster's formula here")
        return errors

    def check_certificate(self, entries: dict, witness_value: int, family_sigma: int, cert) -> list[str]:
        errors = []
        if cert != (witness_value, family_sigma):
            errors.append(f"certificate {cert} != family ({witness_value}, {family_sigma})")
        if entries.get((witness_value, family_sigma), 0) < 1:
            errors.append("certified entry is zero in the table")
        pd = max((i for i, _ in entries), default=0)
        if witness_value > pd:
            errors.append(f"witness value {witness_value} exceeds pd {pd}")
        stored = self.expected.get("witness")
        if stored is not None and stored != witness_value:
            errors.append(f"witness value {witness_value} != stored {stored}")
        return errors


def check_campaign(summary: dict, expected: dict | None) -> list[str]:
    errors = []
    if summary.get("violation", 0):
        errors.append(f"{summary['violation']} violations")
    if expected is not None and summary != expected:
        errors.append(f"summary {summary} != stored {expected}")
    return errors


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def campaign_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)
