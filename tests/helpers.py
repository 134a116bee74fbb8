"""Independent oracles for the test suite.

Everything here is deliberately naive and self-contained so that agreement
with the package is meaningful: cofactor determinants, reciprocity-based
Jacobi symbols, a brute-force Pell search, polynomial products and
differences on coefficient lists, cyclotomic inversion by the extended
Euclidean algorithm on them, adjugates from explicit cofactors by Gaussian
elimination (the oracle wherever the package's adjugate refuses a singular
matrix), the two-vector lemma's closed form in Fraction arithmetic,
circulant matrices, the Carlitz matrix and its Toeplitz form T (the
Levinson kernel's Carlitz input), Vsemirnov's U, D and the Cauchy-type
matrix by inverting their definitions, Vsemirnov's V, which the package
never builds, and naive forms of the fast kernels: the O(p^2) cyclic and
cyclotomic convolutions, Gaussian elimination and Gauss-Jordan mod p on
lists of lists, the integer and the entrywise cyclotomic matrix products,
and Gaussian elimination over a field (det_gauss), which fraction-free
elimination on integer-scaled rows replaced over QQ and images mod one
Proth prime replaced over Q(zeta_p).
mutant recompiles a package function with one expression edited, for
negative controls.

Three retired paths stay as oracles for the ones that replaced them:
json_report_dumps, the stdlib json.dumps of a whole report that
cli.emit_report's row template must match byte for byte,
random_uv_instance_randint, the randint draws whose random stream
identities.random_uv_instance must reproduce, and the decomposition's
p-slot list forms, _times_v (a row times V by list rotations) and w_slots
(W = s D U D by cyclotomic._mul_cyclic), against which the packed ring of
identities.verify_decomposition is checked.

The ring arithmetic of Q(zeta_p) lives here too, as Cyclo: the package
multiplies binomials as p-slot vectors and reports a CycloElem, which has
no +, - or /, so naive_det, det_gauss, matmul_entrywise, the inversion
builds, parse_cyclo and the tests that build values by hand compute with
Cyclo, along with zeta (zeta^k) and gauss_sum.

The inverse parsers of legdet.render's canonical forms also live here, as
the round-trip oracle for report strings: parse_rational, parse_poly,
parse_cyclo, parse_quad and the dispatching parse_value (cyclotomic values,
and quadratic ones with no sqrt(...) part, need the field index p).
"""

import __future__
import inspect
import json
import re
import textwrap
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm, prod

import pytest

from legdet.cyclotomic import CycloElem, _fold, _mul_cyclic, _mul_vec, zeta_pow
from legdet.exact import UniPoly, as_rational
from legdet.linalg import ZZ, ExactMatrix, adjugate, cyclo_ring
from legdet.ntheory import legendre
from legdet.quadfield import QuadElem


class Cyclo(CycloElem):
    """An element of Q(zeta_p) with ring arithmetic, the oracle's: a
    CycloElem, so ==, hash, coeffs, rendering and the Galois-norm inv are
    the package's, plus + - neg * / on its normalized integer vector over
    one denominator.  An int or a Fraction operand is coerced as a
    rational, a CycloElem one is taken as it is, and every result is a
    Cyclo.  Products go through the package's _mul_vec, which its own tests
    hold against convolve_cyclo; a / b is a * b.inv(), and inv is
    CycloElem.inv looked up at call time, so a test that patches it reaches
    the oracle too."""

    __slots__ = ()

    @classmethod
    def of(cls, e: CycloElem) -> "Cyclo":
        return cls(e.p, e.num, e.den)

    @classmethod
    def from_coeffs(cls, p, coeffs) -> "Cyclo":
        """Build from a vector of rationals in the power basis."""
        fr = [as_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fr))
        return cls(p, [c.numerator * (den // c.denominator) for c in fr], den)

    def __neg__(self):
        return Cyclo(self.p, [-c for c in self.num], self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.p, [a * o.den + b * self.den for a, b in zip(self.num, o.num)], self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -Cyclo.of(o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.p, _mul_vec(self.p, self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inv(self):
        return Cyclo.of(super().inv())

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * Cyclo.of(o).inv()


def zeta(p, k):
    """zeta^k as a Cyclo; k may be any integer (reduced mod p)."""
    return Cyclo.of(zeta_pow(p, k))


def gauss_sum(p):
    """The quadratic Gauss sum g = sum of (k/p) zeta^k over k = 1..p-1, a
    Cyclo, for p = 1 (mod 4); there g*g = p, and under zeta = e^(2 pi i / p)
    g is the positive square root of p, the sqrt(p) of the decomposition."""
    if p % 4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4); the sum squares to -p there")
    # (0/p) = 0 fills the k = 0 slot
    return Cyclo(p, _fold([legendre(k, p) for k in range(p)]))


def naive_det(rows):
    """Cofactor expansion along the first row over any ring whose elements
    carry +, - and *, CycloElems taken as Cyclos; exponential, sizes <= 6
    only."""
    rows = [[Cyclo.of(x) if isinstance(x, CycloElem) else x for x in row] for row in rows]
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
    CycloElem entries are taken as Cyclos, which divide through
    CycloElem.inv."""
    a = [[Cyclo.of(x) if isinstance(x, CycloElem) else Fraction(x) for x in row] for row in rows]
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


def matmul(a, b):
    """The product of two integer ExactMatrix, entry by entry."""
    return ExactMatrix(ZZ, [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.entries)]
                            for row in a.entries])


def matmul_entrywise(a, b):
    """The entries of the product a b of two ExactMatrix over Q(zeta_p),
    each a sum of Cyclos whose products come from convolve_cyclo."""
    p = a.ring.zero.p
    out = []
    for row in a.entries:
        out.append([sum((Cyclo(p, convolve_cyclo(p, x.num, y.num), x.den * y.den)
                         for x, y in zip(row, col)), start=Cyclo.zero(p))
                    for col in zip(*b.entries)])
    return out


def minor_rows(m, i, j):
    """The rows of the ExactMatrix m without row i and column j."""
    return [[a for c, a in enumerate(row) if c != j] for r, row in enumerate(m.entries) if r != i]


def cofactor_adjugate(m):
    """Transpose of the cofactor matrix of an integer matrix, singular or
    not.

    Each minor is det_gauss, elimination in Fractions, a route that shares
    nothing with the package's fraction-free elimination; O(k^5), fine for
    the small matrices of the tests.  The 1x1 case is adj([h]) = [1].
    """
    k = m.rows
    out = [[Fraction(1)] * k for _ in range(k)]
    if k > 1:
        for i in range(k):
            for j in range(k):
                minor = det_gauss(minor_rows(m, i, j))
                out[j][i] = minor if (i + j) % 2 == 0 else -minor
    assert all(x.denominator == 1 for row in out for x in row)
    return ExactMatrix(ZZ, [[x.numerator for x in row] for row in out])


def adjugate_or_oracle(m):
    """linalg.adjugate of the integer matrix m if det_gauss finds m
    nonsingular.  A singular m must make adjugate raise ValueError, and then
    cofactor_adjugate stands in, so an identity on adjugates still covers
    every drawn matrix."""
    if det_gauss(m.entries):
        return adjugate(m)
    with pytest.raises(ValueError, match="singular"):
        adjugate(m)
    return cofactor_adjugate(m)


def convolve_cyclic(p, a, b):
    """Product of two integer vectors of at most p slots in Z[x]/(x^p - 1),
    entry by entry: p slots, exponents mod p."""
    acc = [0] * p
    for e, c in enumerate(a):
        for f, d in enumerate(b):
            acc[(e + f) % p] += c * d
    return acc


def _times_v(p, vecs):
    """A row of p-slot vectors times V_lj = z^(2lj), by rotations: entry j
    sums slot t - 2lj of vecs[l] over l."""
    k = len(vecs)
    shifts = [[2 * l * j % p for l in range(k)] for j in range(k)]
    return [list(map(sum, zip(*(v[-r:] + v[:-r] for v, r in zip(vecs, rs))))) for rs in shifts]


def w_slots(p, s, delta, rows):
    """W_ij = s delta_i E'_ij delta_j from p-slot vectors, each product one
    _mul_cyclic (which its own tests hold against convolve_cyclic), from
    the factors identities._w_packed receives."""
    sd = [_mul_cyclic(p, s, di) for di in delta]
    return [[_mul_cyclic(p, _mul_cyclic(p, sdi, e), dj) for e, dj in zip(row, delta)] for sdi, row in zip(sd, rows)]


def convolve_cyclo(p, a, b):
    """Product of two integer power-basis vectors of Q(zeta_p): the cyclic
    product (convolve_cyclic), then zeta^(p-1) folded away."""
    acc = convolve_cyclic(p, a, b)
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


def solve_mod_p_lists(a, b, p):
    """A^-1 B mod p by Gauss-Jordan over F_p on the lists [A | B], reducing
    every entry after every update; None when A is singular mod p."""
    k = len(a)
    m = [[x % p for x in ra + rb] for ra, rb in zip(a, b)]
    for c in range(k):
        r = next((r for r in range(c, k) if m[r][c]), None)
        if r is None:
            return None
        m[c], m[r] = m[r], m[c]
        pivinv = pow(m[c][c], -1, p)
        m[c] = [x * pivinv % p for x in m[c]]
        for i in range(k):
            if i != c:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return [row[k:] for row in m]


def mutant(module, name: str, old: str, new: str):
    """module.name, a function or a method named Class.method, recompiled
    from its dedented source with the one occurrence of old replaced by new,
    its globals a copy of the module's: a negative control that edits one
    expression of the code under test."""
    obj = module
    for part in name.split("."):
        obj = getattr(obj, part)
    src = textwrap.dedent(inspect.getsource(obj))
    assert src.count(old) == 1, f"{old!r} is not one expression of {name}"
    code = compile(src.replace(old, new), module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    ns = dict(vars(module))
    exec(code, ns)
    return ns[name.rpartition(".")[2]]


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


def json_report_dumps(report):
    """A VerificationReport as JSON the way cli.emit_report wrote it before
    its row template: json.dumps of the whole document, indented, keys
    sorted."""
    doc = {
        "config": report.config,
        "all_pass": report.all_passed,
        "checks": [
            {"name": c.name, "p": c.p, "status": c.status, "lhs": c.lhs, "rhs": c.rhs, "detail": c.detail}
            for c in report.checks
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def random_uv_instance_randint(rng, m_max, rejected=None):
    """identities.random_uv_instance as it drew before its Fraction box: one
    rng.randint per value, each accepted pair made a Fraction.  Each
    rejected candidate (u, v) is appended to the list rejected, if given."""
    while True:
        m = rng.randint(1, m_max)
        u = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        v = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        if all(b * d + a * c for a, b in u for c, d in v):
            return m, [Fraction(a, b) for a, b in u], [Fraction(c, d) for c, d in v]
        if rejected is not None:
            rejected.append((u, v))


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


def circulant_matrix(a):
    """The p x p integer matrix [a[(j - i) mod p]], p = len(a)."""
    p = len(a)
    return ExactMatrix(ZZ, [[a[(j - i) % p] for j in range(p)] for i in range(p)])


def build_carlitz_matrix(p):
    """The Carlitz matrix [((j-i)/p)], 1 <= i, j <= p-1, entry by entry."""
    return ExactMatrix(ZZ, [[legendre(j - i, p) for j in range(1, p)] for i in range(1, p)])


def carlitz_toeplitz(p):
    """The 2p-3 diagonals of T = [((j-i-1)/p)], 0 <= i, j < p-1, in
    toeplitz_columns' order: ((d-1)/p) for d = 2-p, ..., p-2.  T has the
    determinant of the Carlitz matrix and t_0 = (-1/p) != 0: with A the
    p x p circulant [((j-i)/p)], whose rows sum to 0, the Carlitz matrix is
    A without row and column 0, and T is A without row 0 and column p-1.
    Adding columns 1..p-2 of T to column 0 makes it minus column p-1 of A;
    moving that column to the end takes p-2 transpositions, an odd number,
    which cancels the sign and leaves the Carlitz matrix."""
    return [legendre(d - 1, p) for d in range(2 - p, p - 1)]


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
    return Cyclo.from_coeffs(p, [(t0[k] if k < len(t0) else 0) / r0[0] for k in range(p - 1)])


def cauchy_and_u_by_inversion(p):
    """(E, U) as entry lists for p = 1 (mod 4), each entry its definition's
    numerator times CycloElem.inv of its denominator, each distinct
    denominator inverted once: E_ij = (a + b)/(1 + ab), a = (i/p) z^i,
    b = (j/p) z^j, 1 <= i, j <= n, and
    u_ij = ((i/p) z^(-j-2i) + (j/p) z^(-2j-i)) / (z^(-i-j) + (i/p)(j/p)),
    0 <= i, j <= n: the build that closed forms replaced in the package."""
    inverses = {}

    def div(num, den):
        if den not in inverses:
            inverses[den] = den.inv()
        return num * inverses[den]

    n = (p - 1) // 2
    lg = [legendre(k, p) for k in range(n + 1)]
    a = [lg[k] * zeta(p, k) for k in range(n + 1)]
    e = [[div(a[i] + a[j], 1 + a[i] * a[j]) for j in range(1, n + 1)] for i in range(1, n + 1)]
    u = [[div(lg[i] * zeta(p, -j - 2 * i) + lg[j] * zeta(p, -2 * j - i),
              zeta(p, -i - j) + lg[i] * lg[j]) for j in range(n + 1)] for i in range(n + 1)]
    return e, u


def vsemirnov_v(p):
    """Vsemirnov's V_ij = z^(2ij), 0 <= i, j <= (p-1)/2, as an ExactMatrix."""
    return ExactMatrix(cyclo_ring(p), [[zeta_pow(p, 2 * i * j) for j in range(p // 2 + 1)] for i in range(p // 2 + 1)])


def d_by_inversion(p):
    """Vsemirnov's D as its diagonal, d_i = CycloElem.inv of
    prod_{k != i} (z^(2i) - z^(2k)), 0 <= i <= n: the Galois-norm build that
    the closed form replaced in the package."""
    powers = [zeta(p, 2 * k) for k in range((p - 1) // 2 + 1)]
    return [prod((x - y for y in powers if y != x), start=Cyclo.one(p)).inv() for x in powers]


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


def parse_cyclo(s: str, p: int) -> Cyclo:
    acc: dict[int, Fraction] = {}
    for sign, term in _split_terms(s):
        c, e = _parse_term(term, "z")
        if e > p - 2:
            raise ValueError(f"exponent {e} outside the power basis for p={p}")
        acc[e] = acc.get(e, Fraction(0)) + sign * c
    vec = [acc.get(k, Fraction(0)) for k in range(p - 1)]
    return Cyclo.from_coeffs(p, vec)


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
