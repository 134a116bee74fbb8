import math
import random

import pytest

from helpers import jacobi
from legdet import cli
from legdet.identities import c_polynomial, verify_theorem
from legdet.ntheory import (
    _SPRP_LIMIT,
    OddPrime,
    factorial_mod,
    is_prime,
    legendre,
    odd_primes_upto,
    primitive_root,
)

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_against_list():
    assert [m for m in range(100) if is_prime(m)] == PRIMES_BELOW_100
    assert is_prime(229)
    assert not is_prime(221)  # 13 * 17
    with pytest.raises(ValueError):
        is_prime(-3)


def test_is_prime_refuses_non_integers():
    """A float or a str raises TypeError, as in OddPrime; trial division
    alone would call 2.5 and 3.0 prime."""
    for m in (2.5, 3.0, "7"):
        with pytest.raises(TypeError):
            is_prime(m)


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert [m for m in range(10**5) if is_prime(m)] == [
        m for m in range(10**5) if m > 1 and all(m % f for f in range(2, math.isqrt(m) + 1))]


def test_is_prime_rejects_strong_pseudoprimes():
    """3215031751 = 151 * 751 * 28351 is a strong probable prime to the
    bases 2, 3, 5, 7 (and 19, 37), and 3825123056546413051 =
    149491 * 747451 * 34233211 to every prime base up to 31: only the base
    37 exposes it."""
    for m, factors in ((3215031751, (151, 751, 28351)), (3825123056546413051, (149491, 747451, 34233211))):
        assert math.prod(factors) == m
        assert not is_prime(m)


def test_is_prime_accepts_split_primes_below_2_62():
    """The three largest primes q < 2^62 with q = 1 (mod 29), each proven
    prime by Lucas's test on the factors of q - 1 (each below 10^10, prime
    by trial division); every odd q = 1 (mod 29) between them has a Fermat
    witness, so it is composite."""
    certificates = {
        4611686018427382099: (2, 3, 29, 109178599, 242757673),
        4611686018427381577: (2, 2, 2, 3, 29, 31, 41047, 5207237383),
        4611686018427381287: (2, 29, 113, 257, 4567, 599499961),
    }
    for q, factors in certificates.items():
        assert q % 29 == 1 and q < 1 << 62 and math.prod(factors) == q - 1
        assert all(all(f % d for d in range(2, math.isqrt(f) + 1)) for f in set(factors))
        assert any(pow(a, q - 1, q) == 1 and all(pow(a, (q - 1) // f, q) != 1 for f in set(factors))
                   for a in range(2, 100))
        assert is_prime(q)
    for c in range((((1 << 62) - 2) // 58) * 58 + 1, min(certificates), -58):
        if c not in certificates:
            assert any(pow(b, c - 1, c) != 1 for b in range(2, 50))
            assert not is_prime(c)


def test_is_prime_refuses_unproven_sizes():
    """_SPRP_LIMIT, the least strong pseudoprime to the twelve bases, and
    larger m with no factor up to 37 raise ValueError naming the bound,
    where trial division would run for days; larger m with such a factor
    are still answered.  The CLI exits 2 on that prime at once."""
    assert _SPRP_LIMIT == 399165290221 * 798330580441
    for m in (_SPRP_LIMIT, _SPRP_LIMIT + 6, 2**89 - 1):
        assert all(m % b for b in range(2, 38))
        with pytest.raises(ValueError, match=f"only below {_SPRP_LIMIT}; {m} "):
            is_prime(m)
    assert not is_prime(_SPRP_LIMIT + 1) and not is_prime(_SPRP_LIMIT + 2)
    assert cli.main(["cx", "--p", str(_SPRP_LIMIT)]) == 2


def test_odd_prime_type():
    p = OddPrime(13)
    assert p == 13 and isinstance(p, int)
    assert p.n == 6
    assert p.mod4 == 1
    assert OddPrime(7).mod4 == 3
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            OddPrime(bad)


def test_odd_prime_rejects_non_integers():
    """A float or str is refused, not truncated: int(13.9) would silently
    check p = 13 and report a pass for an input that is no prime."""
    for bad in (13.9, 13.0, "13"):
        with pytest.raises(TypeError):
            OddPrime(bad)
    with pytest.raises(TypeError):
        verify_theorem(13.9)
    with pytest.raises(TypeError):
        c_polynomial(13.2)


def test_odd_prime_of_odd_prime_is_the_same_object():
    p = OddPrime(13)
    assert OddPrime(p) is p
    assert OddPrime(p).n == 6


def test_odd_primes_upto():
    assert odd_primes_upto(20) == [3, 5, 7, 11, 13, 17, 19]
    assert odd_primes_upto(2) == []
    assert odd_primes_upto(3) == [3]


def test_legendre_small_values():
    # residues mod 5 are {1, 4}
    assert [legendre(a, 5) for a in range(5)] == [0, 1, -1, -1, 1]
    assert legendre(2, 7) == 1
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1
    assert legendre(10, 5) == 0


def test_legendre_matches_reciprocity_oracle():
    """Euler's criterion against a Jacobi-symbol computation that only uses
    quadratic reciprocity and the supplementary laws."""
    rng = random.Random(11)
    for p in odd_primes_upto(97):
        for _ in range(20):
            a = rng.randint(-3 * p, 3 * p)
            assert legendre(a, p) == jacobi(a, p)


def test_legendre_multiplicative():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice(odd_primes_upto(50))
        a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_factorial_mod():
    for p in (5, 13, 29):
        for k in (0, 1, 5, 10):
            assert factorial_mod(k, p) == math.factorial(k) % p
    # Wilson: (p-1)! = -1 (mod p)
    for p in odd_primes_upto(40):
        assert factorial_mod(p - 1, p) == p - 1
    with pytest.raises(ValueError):
        factorial_mod(-1, 5)


def test_primitive_root_against_brute_force_order():
    for p in odd_primes_upto(200):
        g = primitive_root(p)
        orders = []
        for h in range(2, g + 1):
            k, x = 1, h
            while x != 1:
                x = x * h % p
                k += 1
            orders.append(k)
        # g is a generator, and no smaller h >= 2 is
        assert orders[-1] == p - 1
        assert all(k < p - 1 for k in orders[:-1])
    assert primitive_root(3) == 2
    assert primitive_root(7) == 3
    with pytest.raises(ValueError):
        primitive_root(9)
    assert primitive_root(13) == 2
    with pytest.raises(TypeError):
        primitive_root(13.0)
