from fractions import Fraction

import pytest

from helpers import brute_pell_4
from legdet.ntheory import odd_primes_upto
from legdet.quadfield import QuadElem, UnitData, ab_coeffs, class_number, fundamental_unit, quad_pow

P1MOD4_TO_97 = [p for p in odd_primes_upto(97) if p % 4 == 1]


def test_quadelem_arithmetic():
    a = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
    sq = a * a
    assert (sq.x, sq.y) == (Fraction(3, 2), Fraction(1, 2))
    assert a.norm() == -1
    assert (a * QuadElem(a.x, -a.y, 5)).x == a.norm()
    with pytest.raises(ValueError):
        a * QuadElem(Fraction(1), Fraction(1), 13)


def test_quadelem_coordinates_are_exact_rationals():
    """A float coordinate raises instead of making quad_pow compute in
    floats; int coordinates become Fractions."""
    for x, y in ((0.5, 0.25), (Fraction(1, 2), 0.25), (0.5, 1), ("1/2", 1)):
        with pytest.raises(TypeError, match="exact rational"):
            QuadElem(x, y, 5)
    e = QuadElem(1, 2, 5)
    assert (type(e.x), type(e.y)) == (Fraction, Fraction)
    assert e == QuadElem(Fraction(1), Fraction(2), 5)


def test_quad_pow():
    eps = fundamental_unit(13)
    acc = QuadElem(Fraction(1), Fraction(0), 13)
    for k in range(6):
        assert quad_pow(eps, k) == acc
        acc = acc * eps
    with pytest.raises(ValueError):
        quad_pow(eps, -1)


def test_fundamental_unit_against_brute_force():
    """PQa result equals the minimal |x^2 - p y^2| = 4 solution found by
    direct search, for every p = 1 (mod 4) up to 97."""
    for p in P1MOD4_TO_97:
        x, y = brute_pell_4(p)
        eps = fundamental_unit(p)
        assert eps == QuadElem(Fraction(x, 2), Fraction(y, 2), p)
        assert eps.norm() in (1, -1)
        # a unit of norm +-1 exceeds 1 exactly when both coordinates are positive
        assert eps.x > 0 and eps.y > 0


def test_fundamental_unit_spot_values():
    assert fundamental_unit(5) == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
    assert fundamental_unit(13) == QuadElem(Fraction(3, 2), Fraction(1, 2), 13)
    assert fundamental_unit(17) == QuadElem(Fraction(4), Fraction(1), 17)
    assert fundamental_unit(29) == QuadElem(Fraction(5, 2), Fraction(1, 2), 29)
    with pytest.raises(ValueError):
        fundamental_unit(7)
    # the PQa walk is cached per p and per type: with 13 cached (ab_coeffs
    # passes an OddPrime), the float 13.0 is still refused, not looked up
    ab_coeffs(13)
    with pytest.raises(TypeError):
        fundamental_unit(13.0)


def test_class_numbers():
    assert class_number(5) == 1
    assert class_number(13) == 1
    for p in P1MOD4_TO_97:
        assert class_number(p) == 1
    assert class_number(229) == 3
    with pytest.raises(ValueError):
        class_number(11)


def test_ab_coeffs_spot_values():
    cases = {
        5: (3, 2, 1),
        13: (3, 18, 5),
        17: (1, 4, 1),
        29: (3, 70, 13),
        37: (3, 882, 145),
    }
    for p, (exponent, a, b) in cases.items():
        ud = ab_coeffs(p)
        assert isinstance(ud, UnitData)
        assert ud.exponent == exponent
        assert (ud.a, ud.b) == (a, b)
        # a + b sqrt(p) really is eps^exponent
        assert quad_pow(ud.eps, ud.exponent) == QuadElem(ud.a, ud.b, p)


def test_ab_coeffs_norm_sign():
    """eps^m has norm (-1)^m, so a^2 - p b^2 = -1 exactly when m is odd."""
    for p in P1MOD4_TO_97:
        ud = ab_coeffs(p)
        assert ud.a * ud.a - p * ud.b * ud.b == (-1) ** ud.exponent
        assert ud.a.denominator == 1 and ud.b.denominator == 1
        assert ud.b > 0


def test_ab_coeffs_usage_errors():
    with pytest.raises(ValueError):
        ab_coeffs(7)
    with pytest.raises(ValueError):
        ab_coeffs(15)
