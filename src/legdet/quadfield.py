"""Units and class numbers of Q(sqrt(p)) for primes p = 1 (mod 4).

This module is the independent side of the dual check on the closed-form
determinant: the coefficients a, b come from the fundamental unit raised to
(2 - (2/p)) * h, where the unit is found by the continued-fraction (PQa)
expansion of (1 + sqrt(p))/2 and h by counting cycles of reduced indefinite
binary quadratic forms of discriminant p.  No floating point anywhere; all
square-root comparisons go through isqrt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .exact import as_rational
from .ntheory import OddPrime, legendre


def _require_1mod4(p: int) -> OddPrime:
    p = OddPrime(p)
    if p.mod4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4); unit data is only defined for p = 1 (mod 4)")
    return p


@dataclass(frozen=True)
class QuadElem:
    """An element x + y*sqrt(p) of Q(sqrt(p)) with exact rational coordinates."""

    x: Fraction
    y: Fraction
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "y", as_rational(self.y))

    def _check(self, other: "QuadElem") -> None:
        if self.p != other.p:
            raise ValueError("elements of different quadratic fields")

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(
            self.x * other.x + self.p * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.p,
        )

    def norm(self) -> Fraction:
        return self.x * self.x - self.p * self.y * self.y

    def __str__(self) -> str:
        from .render import format_quad

        return format_quad(self)


def quad_pow(e: QuadElem, k: int) -> QuadElem:
    """Exact k-th power by square-and-multiply, k >= 0."""
    if k < 0:
        raise ValueError("negative exponent")
    acc = QuadElem(Fraction(1), Fraction(0), e.p)
    base = e
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


# typed, so that a float equal to a cached prime still meets OddPrime's TypeError
@lru_cache(maxsize=None, typed=True)
def fundamental_unit(p: int) -> QuadElem:
    """Smallest unit > 1 of the ring of integers Z[(1+sqrt(p))/2], p = 1 (mod 4).

    Runs the PQa recurrence on (1 + sqrt(p))/2 and returns the first
    convergent h/k whose associated element (2h - k)/2 + (k/2) sqrt(p) has
    norm of absolute value 1.  Units of the order only arise at period ends
    of the expansion, so the first hit is the fundamental one.
    """
    p = _require_1mod4(p)
    s = isqrt(p)
    # omega = (P + sqrt(p)) / Q, starting from (1 + sqrt(p)) / 2
    P, Q = 1, 2
    h1, h0 = 1, 0  # convergent numerators h_{i-1}, h_{i-2}
    k1, k0 = 0, 1  # convergent denominators
    for _ in range(20 * p + 100):
        a = (P + s) // Q
        h1, h0 = a * h1 + h0, h1
        k1, k0 = a * k1 + k0, k1
        # candidate unit (2h - k)/2 + (k/2) sqrt(p); norm times 4 below
        x2, y2 = 2 * h1 - k1, k1
        if abs(x2 * x2 - p * y2 * y2) == 4:
            return QuadElem(Fraction(x2, 2), Fraction(y2, 2), p)
        P = a * Q - P
        Q = (p - P * P) // Q  # exact: Q | p - P*P along the whole expansion
    raise RuntimeError(f"continued-fraction expansion for p={p} did not close")


# -- class number via cycles of reduced indefinite forms ---------------------

def _is_reduced(a: int, b: int, p: int, s: int) -> bool:
    # |sqrt(p) - 2|a|| < b < sqrt(p), with s = isqrt(p) and p non-square
    if not 0 < b <= s:
        return False
    t = 2 * abs(a)
    if (t + b) * (t + b) <= p:  # need 2|a| > sqrt(p) - b
        return False
    return t <= b or (t - b) * (t - b) < p  # need 2|a| < sqrt(p) + b


def _reduced_forms(p: OddPrime) -> set[tuple[int, int, int]]:
    s = isqrt(p)
    forms = set()
    for b in range(1, s + 1, 2):
        m = (p - b * b) // 4  # a*c = -m, m > 0
        for u in range(1, isqrt(m) + 1):
            if m % u:
                continue
            for aa in (u, m // u):
                if _is_reduced(aa, b, p, s):
                    forms.add((aa, b, -(m // aa)))
                    forms.add((-aa, b, m // aa))
    return forms


def _rho(form: tuple[int, int, int], p: int, s: int) -> tuple[int, int, int]:
    # reduction step: (a, b, c) -> (c, r, (r^2 - p)/(4c)) with r = -b (mod 2|c|)
    # and r the unique such integer in (sqrt(p) - 2|c|, sqrt(p))
    _, b, c = form
    t = 2 * abs(c)
    r = s - (s - (-b) % t) % t
    return (c, r, (r * r - p) // (4 * c))


def class_number(p: int) -> int:
    """Class number of Q(sqrt(p)) by counting reduction cycles, p = 1 (mod 4).

    Counts cycles of the rho operator on the full set of reduced indefinite
    forms of discriminant p.  That count is the narrow class number; it
    equals the wide one because the fundamental unit has norm -1, which is
    asserted rather than assumed.
    """
    p = _require_1mod4(p)
    eps = fundamental_unit(p)
    if eps.norm() != -1:
        raise RuntimeError(f"fundamental unit of Q(sqrt({p})) has norm {eps.norm()}, expected -1")
    s = isqrt(p)
    forms = _reduced_forms(p)
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for start in sorted(forms):
        if start in seen:
            continue
        cycles += 1
        f = start
        while f not in seen:
            seen.add(f)
            f = _rho(f, p, s)
            if f not in forms:
                raise RuntimeError(f"reduction left the reduced set at {f} (discriminant {p})")
    return cycles


@dataclass(frozen=True)
class UnitData:
    """Fundamental unit, class number, and the coefficients of eps**((2-(2/p))h)."""

    eps: QuadElem
    h: int
    exponent: int
    a: Fraction
    b: Fraction


def ab_coeffs(p: int) -> UnitData:
    """Decompose eps_p**((2 - (2/p)) h_p) as a + b*sqrt(p)."""
    p = _require_1mod4(p)
    eps = fundamental_unit(p)
    h = class_number(p)
    m = (2 - legendre(2, p)) * h
    u = quad_pow(eps, m)
    if u.y <= 0:
        raise RuntimeError(f"power of fundamental unit has nonpositive sqrt coefficient for p={p}")
    if u.norm() != (-1) ** m:
        raise RuntimeError(f"norm of eps**{m} is {u.norm()}, expected {(-1) ** m} (p={p})")
    return UnitData(eps=eps, h=h, exponent=m, a=u.x, b=u.y)
