from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import parse_cyclo, parse_poly, parse_quad, parse_rational, parse_value, zeta
from legdet.cyclotomic import CycloElem, zeta_pow
from legdet.exact import UniPoly
from legdet.quadfield import QuadElem, fundamental_unit
from legdet.render import format_cyclo, format_poly, format_quad, format_rational, format_value


def test_rational_forms():
    assert format_rational(Fraction(-18)) == "-18"
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(0) == "0"
    # an int takes the Decimal fast path; bool, a Rational, goes through as_rational
    assert (format_rational(-18), format_rational(True), format_rational(False)) == ("-18", "1", "0")
    assert parse_rational("-65/3") == Fraction(-65, 3)
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)
    # a float is refused, not rendered as 3602879701896397/36028797018963968
    for bad in (0.1, 2.0, "3/2", Decimal("0.5")):
        with pytest.raises(TypeError, match="exact rational"):
            format_rational(bad)


def test_rational_forms_past_the_int_str_digit_limit():
    """Integers of over 4300 digits, which str refuses on CPython 3.10.7
    and later, print in full; the digits come here from divmod by 10^1000."""
    n = 7 ** 20000
    chunks, m = [], n
    while m:
        m, r = divmod(m, 10 ** 1000)
        chunks.append(f"{r:01000d}")
    digits = "".join(reversed(chunks)).lstrip("0")
    assert len(digits) == 16902
    assert format_rational(n) == digits and format_rational(-n) == "-" + digits
    assert format_value(Fraction(-n, 2)) == f"-{digits}/2"
    assert format_value(Fraction(2, n)) == f"2/{digits}"


def test_poly_canonical_forms():
    assert format_poly(UniPoly((-18, -65))) == "-65*x - 18"
    assert format_poly(UniPoly((-4, 17))) == "17*x - 4"
    assert format_poly(UniPoly.constant(1)) == "1"
    assert format_poly(UniPoly()) == "0"
    assert format_poly(UniPoly((0, 1))) == "x"
    assert format_poly(UniPoly((0, -1))) == "-x"
    assert format_poly(UniPoly((Fraction(1, 2), 0, 3))) == "3*x^2 + 1/2"


def test_poly_roundtrip():
    for f in (UniPoly((-18, -65)), UniPoly((0, 1, 2)), UniPoly(), UniPoly.constant(-7),
              UniPoly((Fraction(2, 3), Fraction(-1, 5)))):
        assert parse_poly(format_poly(f)) == f
    assert parse_poly("-65*x - 18") == UniPoly((-18, -65))
    assert parse_poly("1") == UniPoly.constant(1)


def test_cyclo_canonical_forms():
    z = zeta(5, 1)
    assert format_cyclo(z) == "z"
    assert format_cyclo(z - z * z) == "z - z^2"
    assert format_cyclo(CycloElem(5, (0, 0, 0, 3), 2)) == "3/2*z^3"
    assert format_cyclo(CycloElem.zero(5)) == "0"
    assert format_cyclo(CycloElem.from_rational(5, -2)) == "-2"
    assert format_cyclo(zeta_pow(5, 4)) == "-1 - z - z^2 - z^3"


def test_cyclo_roundtrip():
    for e in (zeta_pow(7, 3), CycloElem.zero(7), CycloElem.one(7),
              CycloElem(7, (2, -1, 0, 0, 4, 0), 2),
              zeta_pow(7, 6)):
        assert parse_cyclo(format_cyclo(e), 7) == e
    with pytest.raises(ValueError):
        parse_cyclo("z^6", 7)  # outside the power basis


def test_quad_forms():
    assert format_quad(QuadElem(Fraction(1, 2), Fraction(1, 2), 5)) == "(1 + sqrt(5))/2"
    assert format_quad(QuadElem(Fraction(4), Fraction(1), 17)) == "4 + sqrt(17)"
    assert format_quad(QuadElem(Fraction(18), Fraction(5), 13)) == "18 + 5*sqrt(13)"
    assert format_quad(QuadElem(Fraction(4), Fraction(-1), 17)) == "4 - sqrt(17)"
    for p in (5, 13, 17, 29, 229):
        eps = fundamental_unit(p)
        assert parse_quad(format_quad(eps)) == eps


def test_quad_forms_beyond_halves():
    """The halves form is only for coordinates in (1/2)Z: thirds, quarters
    and sixths print as rational coefficients and parse back unchanged."""
    assert format_quad(QuadElem(Fraction(1, 3), Fraction(1, 2), 5)) == "1/3 + 1/2*sqrt(5)"
    assert format_quad(QuadElem(Fraction(-1, 6), Fraction(5, 4), 13)) == "-1/6 + 5/4*sqrt(13)"
    assert format_quad(QuadElem(Fraction(1, 2), Fraction(1), 5)) == "(1 + 2*sqrt(5))/2"
    for x in (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-7, 6)):
        for y in (Fraction(1, 3), Fraction(-5, 4), Fraction(1, 6), Fraction(2), Fraction(-1, 2)):
            e = QuadElem(x, y, 13)
            assert parse_quad(format_quad(e)) == e


def test_quad_forms_without_sqrt_part():
    """An element with y = 0 prints as its rational part, over 2 in the
    halves case; given the field index p it parses back to the same element,
    without p it raises, and a sqrt part of another field raises."""
    assert format_quad(QuadElem(Fraction(1, 3), Fraction(0), 5)) == "1/3"
    assert format_quad(QuadElem(Fraction(0), Fraction(0), 5)) == "0"
    assert format_quad(QuadElem(Fraction(1, 2), Fraction(0), 5)) == "1/2"
    for p in (5, 13):
        for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(-3, 2), Fraction(7), Fraction(-5, 4)):
            e = QuadElem(x, Fraction(0), p)
            s = format_quad(e)
            assert parse_quad(s, p) == e
            with pytest.raises(ValueError):
                parse_quad(s)
        eps = fundamental_unit(p)
        assert parse_quad(format_quad(eps), p) == eps
    # with no sqrt part, parse_value reads the rational it prints as
    assert parse_value("-3/2", p=13) == Fraction(-3, 2)
    with pytest.raises(ValueError):
        parse_quad("1 + sqrt(13)", 5)


def test_quad_halves_with_one_term():
    """A lone term over 2 prints without parentheses, and both halves forms
    parse back: the sqrt-free ones given p, the others with or without it."""
    assert format_quad(QuadElem(Fraction(1, 2), Fraction(0), 5)) == "1/2"
    assert format_quad(QuadElem(Fraction(0), Fraction(1, 2), 5)) == "sqrt(5)/2"
    assert format_quad(QuadElem(Fraction(-3, 2), Fraction(0), 5)) == "-3/2"
    assert format_quad(QuadElem(Fraction(0), Fraction(-3, 2), 13)) == "-3*sqrt(13)/2"
    for p in (5, 13):
        for x in (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(2)):
            for y in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(5, 2), Fraction(-3)):
                e = QuadElem(x, y, p)
                s = format_quad(e)
                assert parse_quad(s, p) == e
                if y:
                    assert parse_quad(s) == e == parse_value(s)


def test_parse_value_dispatch():
    assert parse_value("-65*x - 18") == UniPoly((-18, -65))
    assert parse_value("3/2") == Fraction(3, 2)
    assert parse_value("z - z^2", p=5) == zeta(5, 1) - zeta(5, 2)
    assert parse_value("(1 + sqrt(5))/2") == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        parse_value("z + 1")  # needs p


def test_compound_values():
    v = (zeta_pow(5, 1) * 5, zeta_pow(5, 1))
    s = format_value(v)
    assert s == "5*z ; z"
    assert parse_value(s, p=5) == v


def test_format_value_types():
    assert format_value(3) == "3"
    assert format_value(Fraction(1, 3)) == "1/3"
    assert format_value(UniPoly((0, 2))) == "2*x"
    with pytest.raises(TypeError):
        format_value(object())
