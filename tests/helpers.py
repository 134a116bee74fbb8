"""Independent oracles for the test suite.

Everything here is deliberately naive and self-contained so that agreement
with the package is meaningful: cofactor determinants, reciprocity-based
Jacobi symbols, a brute-force Pell search, cyclotomic inversion by the
extended Euclidean algorithm, and adjugates from explicit cofactors.
"""

from fractions import Fraction
from math import isqrt

from legdet.cyclotomic import CycloElem
from legdet.exact import UniPoly
from legdet.linalg import QQ, ZZ, ExactMatrix, det_field


def naive_det(rows):
    """Cofactor expansion along the first row; exponential, sizes <= 6 only."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] * 0
    for j in range(n):
        minor = [list(r[:j]) + list(r[j + 1:]) for r in rows[1:]]
        term = rows[0][j] * naive_det(minor)
        total = total - term if j % 2 else total + term
    return total


def cofactor_adjugate(m):
    """Transpose of the cofactor matrix of an integer or rational matrix.

    Each minor is a rational determinant by Gaussian elimination, a route
    that shares nothing with fraction-free elimination; O(k^5), fine for the
    small matrices of the tests.  The 1x1 case is adj([h]) = [1].
    """
    k = m.rows
    q = ExactMatrix(QQ, [[Fraction(x) for x in row] for row in m.entries])
    out = [[Fraction(1)] * k for _ in range(k)]
    if k > 1:
        for i in range(k):
            for j in range(k):
                minor = det_field(q.submatrix(i, j))
                out[j][i] = minor if (i + j) % 2 == 0 else -minor
    if m.ring is ZZ:
        assert all(x.denominator == 1 for row in out for x in row)
        out = [[x.numerator for x in row] for row in out]
    return ExactMatrix(m.ring, out)


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


def euclid_inverse(a):
    """Inverse of a nonzero CycloElem by extended Euclid against 1 + x + ... + x^(p-1)."""
    p = a.p
    r0 = UniPoly([1] * p)
    r1 = UniPoly(a.coeffs)
    t0, t1 = UniPoly(), UniPoly.constant(1)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    # r0 is a nonzero constant: the cyclotomic polynomial is irreducible
    if r0.degree != 0:
        raise RuntimeError("gcd with the cyclotomic polynomial is not constant")
    inv_poly = t0.scale(1 / r0.coeff(0))
    return CycloElem.from_coeffs(p, [inv_poly.coeff(k) for k in range(p - 1)])
