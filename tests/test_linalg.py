"""Field parsing and the primality test behind GF(p)."""

import pytest

from edgeideals.linalg import FieldSpec, is_prime


def test_is_prime_matches_trial_division():
    trial = [n for n in range(2000) if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if is_prime(n)] == trial


def test_large_and_pseudoprime_orders():
    mersenne = 2**61 - 1
    assert FieldSpec.parse(f"gf{mersenne}").p == mersenne
    for bad in (2**61 + 1, 561):  # 3 divides 2^61 + 1; 561 is a Carmichael number
        with pytest.raises(ValueError, match="must be prime"):
            FieldSpec.parse(f"gf{bad}")
