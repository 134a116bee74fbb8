"""Canonical text forms for the exact values in a report.

Each value has one canonical form; the test suite parses every form back to
check that it loses nothing.  Grammar, by type:

  rational   -18, 3/2, 0
  polynomial -65*x - 18     (descending powers, unit coefficients omitted)
  cyclotomic z - z^2 + 3/2*z^4   (ascending powers of z, zero is "0")
  quadratic  (3 + sqrt(13))/2, 4 + sqrt(17), 18 + 5*sqrt(13), 1/3 + 1/2*sqrt(5),
             sqrt(5)/2, -3*sqrt(5)/2, 1/2   (over 2, parentheses only for two terms)
  compound   v1 ; v2    (joint value of a two-part identity, from a tuple)

Signs are folded into the joining " + " / " - " separators; no other
whitespace is significant.  A quadratic value with y = 0 prints with no
sqrt(...) part (1/3, 0, 1/2), so parsing it back needs its field index p,
as parsing a cyclotomic value does.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .cyclotomic import CycloElem
from .exact import UniPoly, as_rational
from .quadfield import QuadElem


def format_rational(r) -> str:
    """n or n/d, its digits from Decimal: str(int) refuses more digits than
    sys.get_int_max_str_digits() (4300 by default, CPython >= 3.10.7).  An
    int prints without a Fraction; bool and any other Rational go through
    as_rational."""
    if type(r) is int:
        return str(Decimal(r))
    r = as_rational(r)
    n = str(Decimal(r.numerator))
    return n if r.denominator == 1 else f"{n}/{Decimal(r.denominator)}"


def _join_terms(terms: list[tuple[Fraction, str]]) -> str:
    """Render (coefficient, symbol) terms, folding signs and unit coefficients."""
    if not terms:
        return "0"
    parts: list[str] = []
    for coeff, sym in terms:
        mag = abs(coeff)
        if not sym:
            body = format_rational(mag)
        elif mag == 1:
            body = sym
        else:
            body = f"{format_rational(mag)}*{sym}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _series(coeffs, var: str) -> list[tuple[Fraction, str]]:
    """The nonzero (coefficient, symbol) terms of sum coeffs[k] * var^k, ascending."""
    return [(c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
            for k, c in enumerate(coeffs) if c != 0]


def format_poly(f: UniPoly) -> str:
    return _join_terms(_series(f.coeffs, "x")[::-1])


def format_cyclo(e: CycloElem) -> str:
    return _join_terms(_series(e.coeffs, "z"))


def format_quad(e: QuadElem) -> str:
    """x + y*sqrt(p), written over 2 when 2x and 2y are integers and x or y
    is not, in parentheses if both terms are there; any other coefficients
    are printed as rationals."""
    halves = max(e.x.denominator, e.y.denominator) == 2
    scale = 2 if halves else 1
    terms = [(c, sym) for c, sym in ((scale * e.x, ""), (scale * e.y, f"sqrt({e.p})")) if c != 0]
    body = _join_terms(terms)
    if not halves:
        return body
    return f"({body})/2" if len(terms) == 2 else f"{body}/2"


def format_value(v) -> str:
    if isinstance(v, (int, Fraction)):
        return format_rational(v)
    if isinstance(v, tuple):
        return " ; ".join(format_value(part) for part in v)
    if isinstance(v, UniPoly):
        return format_poly(v)
    if isinstance(v, CycloElem):
        return format_cyclo(v)
    if isinstance(v, QuadElem):
        return format_quad(v)
    raise TypeError(f"no canonical form for {type(v).__name__}")
