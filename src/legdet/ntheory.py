"""Primality, Legendre symbols, and small modular helpers.

Everything here is deterministic.  The primes this package ever touches stay
far below 10**4, so trial division is the whole primality story and the
Legendre symbol is Euler's criterion with fast modular exponentiation.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from operator import index


def is_prime(m: int) -> bool:
    """Deterministic primality by trial division."""
    if m < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f <= isqrt(m):
        if m % f == 0:
            return False
        f += 2
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


@cache
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
