"""Primality, Legendre symbols, and small modular helpers.

Everything here is deterministic.  The odd primes p of the identities stay
far below 10**4; is_prime is exact all the same below about 3.2 * 10^23, by
strong-probable-prime tests to bases proven to leave no composite there, so
it can check the Proth primes of the cyclotomic determinant independently;
it refuses larger inputs with no small factor.  The Legendre symbol is
Euler's criterion with fast modular exponentiation.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index


# the first twelve primes, and the least strong pseudoprime to all of them
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SPRP_LIMIT = 318665857834031151167461


def is_prime(m: int) -> bool:
    """Deterministic primality.

    m is first divided by the bases 2, 3, ..., 37; an m with no such factor
    below 41^2 is prime.  Up to _SPRP_LIMIT (about 3.2 * 10^23) m is then
    prime exactly when it is a strong probable prime to each of those
    twelve bases: the least composite that passes all twelve is
    318665857834031151167461 (Sorenson and Webster, Math. Comp. 86, 2017;
    with the base 41 added the range grows to 3.3 * 10^24).  Above that, an
    m with no factor up to 37 raises ValueError: no answer rests on an
    unproven test, and trial division would take days.  Only true integers
    are accepted: a float or a str raises TypeError, as in OddPrime.
    """
    m = index(m)
    if m < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if m < 2:
        return False
    for b in _SPRP_BASES:
        if m % b == 0:
            return m == b
    if m < 41 * 41:
        return True
    if m >= _SPRP_LIMIT:
        raise ValueError(f"is_prime is proven only below {_SPRP_LIMIT}; {m} has no factor up to 37")
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _SPRP_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class OddPrime(int):
    """An int that is checked to be an odd prime at construction.

    Carries the two derived quantities used everywhere: ``n = (p-1)/2`` and
    the residue class mod 4.  Only true integers are accepted: a float or a
    str raises TypeError rather than being truncated to a different prime.
    """

    def __new__(cls, value: int) -> "OddPrime":
        if isinstance(value, cls):
            return value
        value = index(value)
        if value < 3 or not is_prime(value):
            raise ValueError(f"{value} is not an odd prime")
        return super().__new__(cls, value)

    @property
    def n(self) -> int:
        return (self - 1) // 2

    @property
    def mod4(self) -> int:
        return self % 4


def odd_primes_upto(limit: int) -> list[OddPrime]:
    return [OddPrime(m) for m in range(3, limit + 1, 2) if is_prime(m)]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion; p must be an odd prime."""
    p = OddPrime(p)
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise RuntimeError(f"Euler criterion produced {r} for ({a}/{p})")


# typed, so that a float equal to a cached prime still meets OddPrime's TypeError
@lru_cache(maxsize=None, typed=True)
def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group (Z/p)^*."""
    p = OddPrime(p)
    order = p - 1
    factors = []
    m, f = order, 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(2, p) if all(pow(g, order // q, p) != 1 for q in factors))


def factorial_mod(k: int, p: int) -> int:
    """k! reduced to [0, p)."""
    if k < 0:
        raise ValueError("factorial of a negative integer")
    p = OddPrime(p)
    acc = 1
    for i in range(2, k + 1):
        acc = acc * i % p
    return acc
