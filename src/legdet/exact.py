"""Exact rationals and the polynomial value type of C(x).

Rationals are stdlib ``fractions.Fraction`` values, which already maintain
the invariants every caller relies on: positive denominator, fully reduced,
canonical zero.

Polynomials are dense coefficient tuples over Fraction.  They are the value
of C(x), degree at most one, and the entries of the one symbolic determinant
over QQ[x] (c_polynomial's cross-check at p <= 13), so they carry just the
ring operations between polynomials and the exact division that fraction-free
elimination needs; there is no arithmetic with bare scalars.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def as_rational(v) -> Fraction:
    """v as a Fraction; the one gate for exact rational input.  Any
    numbers.Rational is accepted (int and Fraction are tested first, since the
    ABC test is slow); a float, str or Decimal raises TypeError rather than
    being read as a nearby rational (a float as its binary value)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, Rational)):
        return Fraction(v)
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(v).__name__}")


class UniPoly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[k]`` is the coefficient of x**k; the empty tuple is the zero
    polynomial and the last stored coefficient is always nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((as_rational(c),))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Polynomial long division, quotient and remainder."""
        if not isinstance(other, UniPoly):
            raise TypeError(f"cannot divide a polynomial by {other!r}")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            q = rem[k + other.degree] / lead
            quo[k] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= q * b
        return UniPoly(quo), UniPoly(rem)

    def __truediv__(self, other: "UniPoly") -> "UniPoly":
        """Division that must leave no remainder (used by fraction-free elimination)."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return quo

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        from .render import format_poly

        return format_poly(self)
