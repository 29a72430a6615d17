"""Field parsing, the primality test behind GF(p), and the sparse rank kernel."""

import copy
import math
import random
from fractions import Fraction

import pytest

from edgeideals.graphs import bit_list
from edgeideals.linalg import FieldSpec, is_prime, rank_over

FIELDS = [FieldSpec.parse(f) for f in ("gf2", "gf3", "gf5", "rat")]


def reference_rank(field, dense):
    """Plain Gaussian elimination: Fractions over Q, residues mod p over GF(p)."""
    p = field.p
    mat = [[Fraction(x) if p is None else x % p for x in row] for row in dense]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            if p is None:
                f = mat[r][c] / top[c]
                mat[r] = [a - f * b for a, b in zip(mat[r], top)]
            else:
                f = mat[r][c] * pow(top[c], -1, p)
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], top)]
        rank += 1
    return rank


def sparse(dense):
    return [{c: x for c, x in enumerate(row) if x} for row in dense]


def test_is_prime_matches_trial_division():
    trial = [n for n in range(2000) if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if is_prime(n)] == trial


def test_large_and_pseudoprime_orders():
    mersenne = 2**61 - 1
    assert FieldSpec.parse(f"gf{mersenne}").p == mersenne
    for bad in (2**61 + 1, 561):  # 3 divides 2^61 + 1; 561 is a Carmichael number
        with pytest.raises(ValueError, match="must be prime"):
            FieldSpec.parse(f"gf{bad}")


def test_unparsable_field_names_the_accepted_forms():
    for text in ("gfx", "gf", "gf-3", "gf 3", "real"):
        with pytest.raises(ValueError) as exc:
            FieldSpec.parse(text)
        assert str(exc.value) == f"cannot parse field {text.strip().lower()!r}; use gf<p> or rat"


def test_rank_matches_reference_on_random_integer_matrices():
    rng = random.Random(5)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        dense = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rows = sparse(dense)
        before = copy.deepcopy(rows)
        for field in FIELDS:
            assert rank_over(field, rows) == reference_rank(field, dense), (dense, field)
        assert rows == before


def test_rank_of_unit_free_and_scaled_matrices():
    # no entry is a unit, so every row is finished over the field
    rng = random.Random(11)
    for _ in range(100):
        dense = [[rng.choice((-3, -2, 0, 2, 3)) for _ in range(5)] for _ in range(5)]
        for field in FIELDS:
            assert rank_over(field, sparse(dense)) == reference_rank(field, dense), (dense, field)
    # 6 * identity vanishes over GF(2) and GF(3), not over GF(5) or Q
    six = [[6 if r == c else 0 for c in range(4)] for r in range(4)]
    assert [rank_over(f, sparse(six)) for f in FIELDS] == [0, 0, 4, 4]


def test_rank_of_larger_unit_free_and_mixed_matrices():
    # up to 30 x 30 over small and large primes and Q.  Unit-free matrices
    # are finished wholly over the field; products of thin factors are rank
    # deficient, so rows cancel only after their entries have grown past p;
    # scaled rows carry a content for the elimination over Q to divide out
    fields = FIELDS + [FieldSpec.parse(f"gf{2**61 - 1}")]
    rng = random.Random(61)
    for k in range(36):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
        if k % 3 == 0:
            dense = [
                [rng.choice((0, 0, 0, 2, -2, 3, -3, 4, 6, -9, 10)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
        elif k % 3 == 1:
            density = rng.choice((0.1, 0.3, 0.7))
            dense = [
                [rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
        else:
            inner = rng.randint(1, min(nrows, ncols))
            left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(nrows)]
            right = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(inner)]
            dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        for r, row in enumerate(dense):
            scale = rng.choice((1, 1, 2, 3, 6))
            dense[r] = [x * scale for x in row]
        rows = sparse(dense)
        for field in fields:
            assert rank_over(field, rows) == reference_rank(field, dense), (dense, field)


def test_empty_and_zero_rows():
    for field in FIELDS:
        assert rank_over(field, []) == 0
        assert rank_over(field, [{}, {}]) == 0
        assert rank_over(field, [{}, {3: 1}, {}, {3: -1}]) == 1


def test_torsion_cases():
    expect = {"gf2": (0, 1), "gf3": (1, 2), "gf5": (1, 2), "rat": (1, 2)}
    for field in FIELDS:
        two = rank_over(field, [{0: 2}])
        hadamard = rank_over(field, [{0: 1, 1: 1}, {0: 1, 1: -1}])
        assert (two, hadamard) == expect[repr(field)]


def test_residual_rows_are_reduced_against_later_pivots():
    # row 0 leads with 2 and is set aside before row 1 becomes the unit pivot
    # of its column; cleared against that pivot it vanishes, so only 3 at
    # column 1 is left for field arithmetic
    dense = [[2, 0, 2], [1, 0, 1], [0, 3, 0]]
    expect = {"gf2": 2, "gf3": 1, "gf5": 2, "rat": 2}
    for field in FIELDS:
        assert rank_over(field, sparse(dense)) == expect[repr(field)] == reference_rank(field, dense)


def test_rank_of_boundary_matrices_of_simplices():
    # the boundary of the full simplex on k vertices has rank C(k-1, d)
    k = 6
    faces = {d: [f for f in range(1 << k) if f.bit_count() == d + 1] for d in range(-1, k)}
    for d in range(k):
        index = {f: i for i, f in enumerate(faces[d - 1])}
        rows = [
            {index[f ^ (1 << v)]: -1 if t & 1 else 1 for t, v in enumerate(bit_list(f))}
            for f in faces[d]
        ]
        for field in FIELDS:
            assert rank_over(field, rows) == math.comb(k - 1, d)
