import numbers
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import poly_mul, poly_sub
from legdet.exact import UniPoly, as_rational


@numbers.Rational.register
class _Half:
    numerator = 1
    denominator = 2


def test_as_rational_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_rational((3, 6))
    with pytest.raises(TypeError):
        as_rational("3")
    for inexact in (0.5, Decimal("0.5")):
        with pytest.raises(TypeError, match="exact rational"):
            as_rational(inexact)
    # any numbers.Rational other than int and Fraction is read through
    # its numerator and denominator
    assert as_rational(_Half()) == Fraction(1, 2)


def test_unipoly_normalization():
    assert UniPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert UniPoly(()).degree == -1
    assert UniPoly((0, 0)).is_zero()
    assert not UniPoly((0, 1)).is_zero()
    assert UniPoly.constant(5).degree == 0
    assert UniPoly((0, 1)).degree == 1
    assert UniPoly((1, 2)).coeff(7) == 0


def test_unipoly_has_no_scalar_arithmetic():
    """A polynomial is a value, with no arithmetic operators: it combines
    with neither a polynomial nor a bare int or Fraction, and is not equal
    to the constant it holds."""
    one = UniPoly((1,))
    for other in (one, 1, 2, Fraction(1, 2)):
        for op in (lambda: one + other, lambda: other + one, lambda: one - other,
                   lambda: other - one, lambda: one * other, lambda: other * one):
            with pytest.raises(TypeError):
                op()
    assert (UniPoly.constant(2) == 2) is False
    assert (UniPoly.constant(2) != 2) is True
    assert (UniPoly() == 0) is False


def test_unipoly_divmod_roundtrip():
    """a = q b + r with deg r < deg b, checked on coefficient lists."""
    rng = random.Random(7)
    for _ in range(50):
        a = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        b = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert poly_sub(list(a.coeffs), poly_mul(q.coeffs, b.coeffs)) == list(r.coeffs)
        assert r.degree < b.degree


def test_unipoly_exact_div():
    """An exact product divides back with no remainder; a zero divisor and a
    scalar one raise."""
    f = UniPoly((1, 2))
    g = UniPoly((-1, 0, 3))
    assert UniPoly(poly_mul(f.coeffs, g.coeffs)).divmod(f) == (g, UniPoly())
    assert UniPoly((1, 1)).divmod(UniPoly((0, 1))) == (UniPoly.constant(1), UniPoly.constant(1))
    with pytest.raises(ZeroDivisionError):
        f.divmod(UniPoly())
    # a scalar divisor is a type error, not a division by zero
    with pytest.raises(TypeError):
        f.divmod(2)


def test_unipoly_eq_hash():
    assert UniPoly((2,)) == UniPoly.constant(2)
    assert hash(UniPoly((1, 2))) == hash(UniPoly((Fraction(1), Fraction(2))))
    assert UniPoly((1, 2)) != UniPoly((1, 2, 1))

