"""Independent oracles for the test suite.

Everything here is deliberately naive and self-contained so that agreement
with the package is meaningful: cofactor determinants, reciprocity-based
Jacobi symbols, a brute-force Pell search, polynomial products and
differences on coefficient lists, cyclotomic inversion by the extended
Euclidean algorithm on them, adjugates from explicit cofactors by Gaussian
elimination, the two-vector lemma's closed form in Fraction arithmetic, and
the kernels that faster ones
replaced: the O(p^2) cyclotomic convolution, Gaussian elimination mod p on
lists of lists, the entrywise cyclotomic matrix product, and Gaussian
elimination over a field (det_gauss), which fraction-free elimination on
integer-scaled rows replaced over QQ and a CRT over split primes replaced
over Q(zeta_p).

The inverse parsers of legdet.render's canonical forms also live here, as
the round-trip oracle for report strings: parse_rational, parse_poly,
parse_cyclo, parse_quad and the dispatching parse_value (cyclotomic values,
and quadratic ones with no sqrt(...) part, need the field index p).
"""

import re
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod

from legdet.cyclotomic import CycloElem
from legdet.exact import UniPoly
from legdet.linalg import ZZ, ExactMatrix
from legdet.quadfield import QuadElem


def naive_det(rows):
    """Cofactor expansion along the first row over any ring whose elements
    carry +, - and *; exponential, sizes <= 6 only."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] - rows[0][0]
    for j in range(n):
        minor = [list(r[:j]) + list(r[j + 1:]) for r in rows[1:]]
        term = rows[0][j] * naive_det(minor)
        total = total - term if j % 2 else total + term
    return total


def det_gauss(rows):
    """Determinant by Gaussian elimination over a field, with a row swap
    wherever a pivot is zero: the kernel that integer routes replaced in the
    package, over QQ and over Q(zeta_p).  Integer and rational entries are
    taken as Fractions, and their determinant is always a Fraction;
    CycloElem entries divide through CycloElem.inv."""
    a = [[x if isinstance(x, CycloElem) else Fraction(x) for x in row] for row in rows]
    k = len(a)
    det = Fraction(1)
    for c in range(k):
        r = next((r for r in range(c, k) if a[r][c] != 0), None)
        if r is None:
            return Fraction(0)
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, k):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def matmul_entrywise(a, b):
    """The entries of a @ b for two ExactMatrix over Q(zeta_p), each a sum
    of CycloElems whose products come from convolve_cyclo."""
    p = a.ring.zero.p
    out = []
    for row in a.entries:
        out.append([sum((CycloElem(p, convolve_cyclo(p, x.num, y.num), x.den * y.den)
                         for x, y in zip(row, col)), start=a.ring.zero)
                    for col in zip(*b.entries)])
    return out


def cofactor_adjugate(m):
    """Transpose of the cofactor matrix of an integer matrix.

    Each minor is det_gauss, elimination in Fractions, a route that shares
    nothing with the package's fraction-free elimination; O(k^5), fine for
    the small matrices of the tests.  The 1x1 case is adj([h]) = [1].
    """
    k = m.rows
    out = [[Fraction(1)] * k for _ in range(k)]
    if k > 1:
        for i in range(k):
            for j in range(k):
                minor = det_gauss(m.submatrix(i, j).entries)
                out[j][i] = minor if (i + j) % 2 == 0 else -minor
    assert all(x.denominator == 1 for row in out for x in row)
    return ExactMatrix(ZZ, [[x.numerator for x in row] for row in out])


def convolve_cyclo(p, a, b):
    """Product of two integer power-basis vectors of Q(zeta_p), entry by
    entry: convolve with exponents mod p, then fold zeta^(p-1) away."""
    acc = [0] * p
    for e, c in enumerate(a):
        for f, d in enumerate(b):
            acc[(e + f) % p] += c * d
    return [c - acc[-1] for c in acc[:-1]]


def det_mod_p_lists(rows, p):
    """det(rows) mod p by Gaussian elimination over F_p, reducing every
    entry after every update."""
    a = [[x % p for x in row] for row in rows]
    k = len(a)
    det = 1
    for c in range(k):
        r = next((r for r in range(c, k) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        piv = a[c][c]
        det = det * piv % p
        pivinv = pow(piv, -1, p)
        for i in range(c + 1, k):
            f = a[i][c] * pivinv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def lemma_uv_rhs_fraction(m, u, v):
    """Closed form of det[(u_i+v_j)/(1+u_i v_j)], term by term in Fractions:
    ((prod(1+u_i)(1+v_i) + (-1)^m prod(1-u_i)(1-v_i)) / 2)
    * prod_{i<j}(u_i-u_j)(v_j-v_i) / prod_{i,j}(1+u_i v_j)."""
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    assert len(u) == len(v) == m
    plus = prod((1 + ui) * (1 + vi) for ui, vi in zip(u, v))
    minus = prod((1 - ui) * (1 - vi) for ui, vi in zip(u, v))
    vandermonde = prod((ui - uj) * (vj - vi) for (ui, vi), (uj, vj) in combinations(zip(u, v), 2))
    denom = prod(1 + ui * vj for ui in u for vj in v)
    return (plus + (-1) ** m * minus) / 2 * vandermonde / denom


def jacobi(a, n):
    """Jacobi symbol via quadratic reciprocity, no modular exponentiation."""
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def brute_pell_4(p):
    """Smallest y >= 1 with x^2 - p*y^2 = -4 or +4 solvable; returns (x, y).

    Tries -4 before +4 at each y: if both are hits the -4 one has the
    smaller x, hence the smaller unit (x + y*sqrt(p))/2.
    """
    y = 1
    while True:
        for t in (-4, 4):
            x2 = p * y * y + t
            if x2 > 0:
                x = isqrt(x2)
                if x * x == x2:
                    return x, y
        y += 1


def rand_int_rows(rng, k, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]


def toeplitz_matrix(t, k):
    """The k x k integer matrix [t_(j-i)] from its diagonals t_(1-k), ..., t_(k-1)."""
    return ExactMatrix(ZZ, [[t[k - 1 + j - i] for j in range(k)] for i in range(k)])


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    """Product of two polynomials given as coefficient lists, lowest degree
    first; [] is zero."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_sub(a, b):
    """a - b on coefficient lists, with no trailing zeros."""
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def euclid_inverse(a):
    """Inverse of a nonzero CycloElem by extended Euclid against
    1 + x + ... + x^(p-1), on Fraction coefficient lists."""
    p = a.p
    r0, r1 = [Fraction(1)] * p, _trim(list(a.coeffs))
    t0, t1 = [], [Fraction(1)]
    while r1:
        # long division r0 = q r1 + r0
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        for k in range(len(q) - 1, -1, -1):
            q[k] = r0[k + len(r1) - 1] / r1[-1]
            r0 = r0[:k] + [x - q[k] * y for x, y in zip(r0[k:], r1)] + r0[k + len(r1):]
        r0, r1 = r1, _trim(r0)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    # r0 is a nonzero constant: the cyclotomic polynomial is irreducible
    if len(r0) != 1:
        raise RuntimeError("gcd with the cyclotomic polynomial is not constant")
    return CycloElem.from_coeffs(p, [(t0[k] if k < len(t0) else 0) / r0[0] for k in range(p - 1)])


def parse_rational(s: str) -> Fraction:
    return Fraction(s.strip())


def _split_terms(s: str) -> list[tuple[int, str]]:
    """Inverse of the sign folding: (sign, bare term) pairs."""
    s = s.strip()
    if not s:
        raise ValueError("empty value")
    out: list[tuple[int, str]] = []
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    for piece in re.split(r"\s+([+-])\s+", s):
        if piece == "+":
            sign = 1
        elif piece == "-":
            sign = -1
        else:
            out.append((sign, piece.strip()))
    return out


def _parse_term(term: str, var: str) -> tuple[Fraction, int]:
    """One additive term -> (coefficient, exponent of var)."""
    m = re.fullmatch(
        rf"(?:(?P<c>\d+(?:/\d+)?)\*)?(?:{var}(?:\^(?P<e>\d+))?)?",
        term,
    ) or re.fullmatch(rf"(?P<c>\d+(?:/\d+)?)(?P<e>)?", term)
    if m is None or not term:
        raise ValueError(f"cannot parse term {term!r}")
    has_var = var in term
    coeff = Fraction(m.group("c")) if m.group("c") else Fraction(1)
    if not has_var:
        return coeff, 0
    exp = int(m.group("e")) if m.group("e") else 1
    return coeff, exp


def parse_poly(s: str) -> UniPoly:
    acc: dict[int, Fraction] = {}
    for sign, term in _split_terms(s):
        c, e = _parse_term(term, "x")
        acc[e] = acc.get(e, Fraction(0)) + sign * c
    if not acc:
        return UniPoly()
    coeffs = [acc.get(k, Fraction(0)) for k in range(max(acc) + 1)]
    return UniPoly(coeffs)


def parse_cyclo(s: str, p: int) -> CycloElem:
    acc: dict[int, Fraction] = {}
    for sign, term in _split_terms(s):
        c, e = _parse_term(term, "z")
        if e > p - 2:
            raise ValueError(f"exponent {e} outside the power basis for p={p}")
        acc[e] = acc.get(e, Fraction(0)) + sign * c
    vec = [acc.get(k, Fraction(0)) for k in range(p - 1)]
    return CycloElem.from_coeffs(p, vec)


def parse_quad(s: str, p: int | None = None) -> QuadElem:
    """Inverse of format_quad, halves forms "(x + y*sqrt(p))/2" and
    "y*sqrt(p)/2" included.  A form with no sqrt(...) part is an element
    with y = 0, whose field only the index p names: without p it raises.  A
    sqrt(q) part with q != p raises too."""
    s = s.strip()
    halves = False
    m = re.fullmatch(r"\((.*)\)/2", s) or re.fullmatch(r"(.*sqrt\(\d+\))/2", s)
    if m:
        halves = True
        s = m.group(1)
    root = None
    a = Fraction(0)
    b = Fraction(0)
    for sign, term in _split_terms(s):
        sm = re.fullmatch(r"(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)", term)
        if sm:
            root = int(sm.group(2))
            b += sign * (Fraction(sm.group(1)) if sm.group(1) else Fraction(1))
        else:
            a += sign * Fraction(term)
    if p is None:
        if root is None:
            raise ValueError(f"no sqrt(...) part in {s!r} and no field index p")
        p = root
    elif root not in (None, p):
        raise ValueError(f"sqrt({root}) in a value of Q(sqrt({p}))")
    if halves:
        a, b = a / 2, b / 2
    return QuadElem(a, b, p)


def parse_value(s: str, p: int | None = None):
    """Inverse of format_value.  Cyclotomic values need the field index p;
    a quadratic value is one with a sqrt(...) part, and its field is checked
    against p when p is given.  A quadratic value with y = 0 reads as the
    rational it prints as."""
    if " ; " in s:
        return tuple(parse_value(part, p) for part in s.split(" ; "))
    if "sqrt" in s:
        return parse_quad(s, p)
    if "z" in s:
        if p is None:
            raise ValueError("parsing a cyclotomic value needs p")
        return parse_cyclo(s, p)
    if "x" in s:
        return parse_poly(s)
    return parse_rational(s)
