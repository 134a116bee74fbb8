"""Exact verification of the Legendre-symbol determinant identities.

Each verify_* function builds the objects on both sides of one identity from
scratch and compares them with exact equality; there is no tolerance
anywhere.  The two sides always come from independent routes: determinants
from fraction-free or field elimination, closed forms from the
continued-fraction unit and form-class oracles in quadfield, and cyclotomic
products expanded term by term in Q(zeta_p).

Results are CheckResult records whose lhs/rhs are canonical strings of the
exact values, so a report line can be re-parsed and re-checked.  run_suite
composes every applicable check over a prime range into one report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .cyclotomic import CycloElem, gauss_sum, zeta_pow
from .exact import UniPoly, interp_linear
from .linalg import (
    QQ,
    ZZ,
    ExactMatrix,
    adjugate,
    cyclo_ring,
    det_bareiss,
    det_field,
    det_mod_p,
    poly_ring,
    quadratic_form_adjugate,
)
from .ntheory import OddPrime, factorial_mod, legendre, odd_primes_upto
from .quadfield import ab_coeffs
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
    """Suite knobs; the caps exist because the cyclotomic checks cost
    O((n+1)^3) multiplications of O(p^2) coefficient operations each, and
    every field division adds an inverse of O(log p) such multiplications."""

    decomp_p_max: int = 29
    cyclo_p_max: int = 29
    uv_trials: int = 100
    uv_m_max: int = 5
    seed: int = 0


def _result(name: str, p, lhs, rhs, detail: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        p=int(p) if p is not None else None,
        passed=lhs == rhs,
        lhs=format_value(lhs),
        rhs=format_value(rhs),
        detail=detail,
    )


def _pair_result(name: str, p, lhs: tuple, rhs: tuple, detail: str = "") -> CheckResult:
    passed = len(lhs) == len(rhs) and all(a == b for a, b in zip(lhs, rhs))
    return CheckResult(name, int(p), passed, format_value(lhs), format_value(rhs), detail)


# -- matrix builders ---------------------------------------------------------

def _legendre_table(p: OddPrime) -> list[int]:
    """chi[r] = (r/p) for 0 <= r < p, so a builder indexes chi[x % p]."""
    return [legendre(r, p) for r in range(p)]


def build_evil_matrix(p) -> ExactMatrix:
    """[( (j-i)/p )] for 0 <= i, j <= n; the 'evil determinant' matrix."""
    p = OddPrime(p)
    n = p.n
    chi = _legendre_table(p)
    return ExactMatrix(ZZ, [[chi[(j - i) % p] for j in range(n + 1)] for i in range(n + 1)])


def build_carlitz_matrix(p) -> ExactMatrix:
    p = OddPrime(p)
    chi = _legendre_table(p)
    return ExactMatrix(ZZ, [[chi[(j - i) % p] for j in range(1, p)] for i in range(1, p)])


def build_sun_matrix(p, d: int) -> ExactMatrix:
    p = OddPrime(p)
    n = p.n
    chi = _legendre_table(p)
    return ExactMatrix(ZZ, [[chi[(i + d * j) % p] for j in range(n + 1)] for i in range(n + 1)])


def _require_1mod4(p) -> OddPrime:
    p = OddPrime(p)
    if p.mod4 != 1:
        raise ValueError(f"p = {p} is 3 (mod 4); this identity needs p = 1 (mod 4)")
    return p


# -- C(x) and the main theorem -----------------------------------------------

def c_polynomial(p) -> UniPoly:
    """C(x) = det[x + ((j-i)/p)], exact.

    The determinant is linear in x (rank-one update of the all-ones matrix),
    so two integer determinants at x = 0 and x = 1 pin it down; for p <= 13
    the full symbolic determinant over polynomial entries is recomputed and
    must agree.
    """
    p = OddPrime(p)
    m0 = build_evil_matrix(p)
    c0 = det_bareiss(m0)
    m1 = ExactMatrix(ZZ, [[e + 1 for e in row] for row in m0.entries])
    c1 = det_bareiss(m1)
    poly = interp_linear(c0, c1)
    if p <= 13:
        sym = ExactMatrix(
            poly_ring(),
            [[UniPoly((e, 1)) for e in row] for row in m0.entries],
        )
        if det_bareiss(sym) != poly:
            raise RuntimeError(f"symbolic and interpolated C(x) disagree for p={p}")
    return poly


def verify_theorem(p) -> CheckResult:
    """C(x) against its closed form: 1, or legendre(2,p)*p*b*x - a."""
    p = OddPrime(p)
    cp = c_polynomial(p)
    if p.mod4 == 3:
        rhs = UniPoly.constant(1)
    else:
        ud = ab_coeffs(p)
        rhs = UniPoly((-ud.a, legendre(2, p) * p * ud.b))
    return _result("theorem_cx", p, cp, rhs)


def verify_evil(p) -> CheckResult:
    """det[( (j-i)/p )] = 1 (p = 3 mod 4) or -a_p (p = 1 mod 4)."""
    p = OddPrime(p)
    det = det_bareiss(build_evil_matrix(p))
    rhs = Fraction(1) if p.mod4 == 3 else -ab_coeffs(p).a
    return _result("evil_det", p, Fraction(det), rhs)


def verify_adj_sum(p) -> CheckResult:
    """u^T adj(C) u for u all-ones: 0 (p = 3 mod 4) or legendre(2,p)*p*b_p.

    Computed as det(C + J) - det(C); for p <= 13 the entry sum of the
    Gauss-Jordan adjugate must match, tying the two routes together.
    """
    p = OddPrime(p)
    c = build_evil_matrix(p)
    ones = [1] * (p.n + 1)
    s = quadratic_form_adjugate(c, ones, ones)
    if p <= 13:
        adj = adjugate(c)
        total = sum(sum(row) for row in adj.entries)
        if total != s:
            raise RuntimeError(f"determinant-lemma and adjugate sums disagree for p={p}")
    rhs = Fraction(0) if p.mod4 == 3 else legendre(2, p) * p * ab_coeffs(p).b
    return _result("adj_sum", p, Fraction(s), rhs)


def verify_minor_antisymmetry(p) -> CheckResult:
    """Cofactors of the evil matrix satisfy C_kl + C_{n-k,n-l} = 0 for
    p = 3 (mod 4), 0 <= k <= (p-3)/4, 0 <= l <= n."""
    p = OddPrime(p)
    if p.mod4 != 3:
        raise ValueError(f"p = {p} is 1 (mod 4); minor antisymmetry is a p = 3 (mod 4) statement")
    n = p.n
    adj = adjugate(build_evil_matrix(p))
    for k in range((p - 3) // 4 + 1):
        for l in range(n + 1):
            # cofactor C_kl is the (l, k) entry of the adjugate
            s = adj[l, k] + adj[n - l, n - k]
            if s != 0:
                return CheckResult(
                    "minor_antisym", int(p), False, format_value(Fraction(s)), "0",
                    detail=f"(k, l) = ({k}, {l})",
                )
    return CheckResult("minor_antisym", int(p), True, "0", "0")


# -- the cyclotomic decomposition and its ingredients -------------------------

def build_vsemirnov_matrices(p) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """The order-(n+1) matrices U, V, D over Q(zeta_p), p = 1 (mod 4).

    u_ij = ((i/p) z^(-j-2i) + (j/p) z^(-2j-i)) / (z^(-i-j) + (i/p)(j/p)),
    v_ij = z^(2ij), d_ii = prod_{k != i} 1/(z^(2i) - z^(2k)).  u_00 comes out
    0 from the formula itself: the numerator vanishes and the denominator is
    1.  Denominators are never zero for valid p (z^k = -1 has no solution at
    odd p), but each one is guarded anyway.
    """
    p = _require_1mod4(p)
    n = p.n
    ring = cyclo_ring(p)
    lg = [legendre(k, p) for k in range(n + 1)]
    inv_cache: dict[CycloElem, CycloElem] = {}

    def inv_of(e: CycloElem) -> CycloElem:
        r = inv_cache.get(e)
        if r is None:
            r = e.inv()
            inv_cache[e] = r
        return r

    urows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            num = lg[i] * zeta_pow(p, -j - 2 * i) + lg[j] * zeta_pow(p, -2 * j - i)
            den = zeta_pow(p, -i - j) + lg[i] * lg[j]
            if den.is_zero():
                raise RuntimeError(f"zero denominator at u_({i},{j}) for p={p}")
            row.append(num if num.is_zero() else num * inv_of(den))
        urows.append(row)
    u = ExactMatrix(ring, urows)

    v = ExactMatrix(ring, [[zeta_pow(p, 2 * i * j) for j in range(n + 1)] for i in range(n + 1)])

    powers = [zeta_pow(p, 2 * k) for k in range(n + 1)]
    drows = [[ring.zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        prod = ring.one
        for k in range(n + 1):
            if k != i:
                prod = prod * (powers[i] - powers[k])
        drows[i][i] = prod.inv()
    d = ExactMatrix(ring, drows)
    return u, v, d


def verify_decomposition(p) -> CheckResult:
    """C = legendre(2,p) * g * z^((p-1)/4) * V D U D V entrywise in Q(zeta_p),
    with sqrt(p) realized as the Gauss sum g."""
    p = _require_1mod4(p)
    n = p.n
    u, v, d = build_vsemirnov_matrices(p)
    ring = cyclo_ring(p)
    c = ExactMatrix(
        ring,
        [[CycloElem.from_rational(p, legendre(j - i, p)) for j in range(n + 1)] for i in range(n + 1)],
    )
    scalar = legendre(2, p) * gauss_sum(p) * zeta_pow(p, (p - 1) // 4)
    rhs = ((((v @ d) @ u) @ d) @ v).scale(scalar)
    diverge = c.first_diff(rhs)
    if diverge is None:
        witness = format_value(c[0, 0])
        return CheckResult("decomposition", int(p), True, witness, witness)
    i, j = diverge
    return CheckResult(
        "decomposition", int(p), False, format_value(c[i, j]), format_value(rhs[i, j]),
        detail=f"first divergent entry (i, j) = ({i}, {j})",
    )


def verify_lemma_uv(m: int, u, v) -> CheckResult:
    """det[(u_i+v_j)/(1+u_i v_j)] against its closed form, over exact rationals."""
    if m < 1:
        raise ValueError("m must be at least 1")
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    if len(u) != m or len(v) != m:
        raise ValueError(f"expected {m} entries in each of u and v")
    if any(1 + ui * vj == 0 for ui in u for vj in v):
        raise ValueError("u_i * v_j = -1 makes a matrix entry undefined")
    mat = ExactMatrix(QQ, [[(ui + vj) / (1 + ui * vj) for vj in v] for ui in u])
    lhs = det_field(mat)
    plus = Fraction(1)
    minus = Fraction(1)
    for ui, vi in zip(u, v):
        plus *= (1 + ui) * (1 + vi)
        minus *= (1 - ui) * (1 - vi)
    vandermonde = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            vandermonde *= (u[i] - u[j]) * (v[j] - v[i])
    denom = Fraction(1)
    for ui in u:
        for vj in v:
            denom *= 1 + ui * vj
    rhs = (plus + (-1) ** m * minus) / 2 * vandermonde / denom
    return _result("lemma_uv", None, lhs, rhs)


def verify_lemma_sum(p) -> CheckResult:
    """(prod(1+(j/p)z^j)^2 + prod(1-(j/p)z^j)^2) / 2 = (-1)^(n/2) z^(n(n+1)/2) b_p p."""
    p = _require_1mod4(p)
    n = p.n
    plus = CycloElem.one(p)
    minus = CycloElem.one(p)
    for j in range(1, n + 1):
        t = legendre(j, p) * zeta_pow(p, j)
        plus = plus * (1 + t)
        minus = minus * (1 - t)
    lhs = (plus * plus + minus * minus) * Fraction(1, 2)
    sign = -1 if (n // 2) % 2 else 1
    rhs = zeta_pow(p, n * (n + 1) // 2) * (sign * p * ab_coeffs(p).b)
    return _result("lemma_sum", p, lhs, rhs)


def verify_prod_2j(p) -> CheckResult:
    """prod_{j=1..n} (1 + z^(2j)) = z^(n(n+1)/2) * legendre(2,p), any odd p."""
    p = OddPrime(p)
    n = p.n
    prod = CycloElem.one(p)
    for j in range(1, n + 1):
        prod = prod * (1 + zeta_pow(p, 2 * j))
    rhs = zeta_pow(p, n * (n + 1) // 2) * legendre(2, p)
    return _result("prod_2j", p, prod, rhs)


def verify_d00_detG(p) -> CheckResult:
    """Two product evaluations behind the decomposition, jointly:
    1/d_00^2 = p z^(n(n+1)) and (prod (j/p) z^j)^2 = z^((p^2-1)/4)."""
    p = _require_1mod4(p)
    n = p.n
    inv_d00 = CycloElem.one(p)
    det_g = CycloElem.one(p)
    for k in range(1, n + 1):
        inv_d00 = inv_d00 * (1 - zeta_pow(p, 2 * k))
        det_g = det_g * (legendre(k, p) * zeta_pow(p, k))
    lhs = (inv_d00 * inv_d00, det_g * det_g)
    rhs = (zeta_pow(p, n * (n + 1)) * p, zeta_pow(p, (p * p - 1) // 4))
    return _pair_result("d00_detg", p, lhs, rhs)


def verify_f1f2(p) -> CheckResult:
    """The Cauchy-type determinant and the cofactor U_00, jointly.

    With u_j = (j/p) z^j, f1 = prod_{i<j}(u_j - u_i), f2 = prod_{i<j}(1 + u_j u_i):
    det[(u_i+u_j)/(1+u_i u_j)]_{1<=i,j<=n} = p b_p legendre(2,p) f1^2 f2^(-2),
    and U_00 = that value times z^(-(p-1)/4).
    """
    p = _require_1mod4(p)
    n = p.n
    ring = cyclo_ring(p)
    uj = {j: legendre(j, p) * zeta_pow(p, j) for j in range(1, n + 1)}
    f1 = CycloElem.one(p)
    f2 = CycloElem.one(p)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            f1 = f1 * (uj[j] - uj[i])
            f2 = f2 * (1 + uj[j] * uj[i])
    base = (legendre(2, p) * p * ab_coeffs(p).b) * f1 * f1 * (f2 * f2).inv()

    inv_cache: dict[CycloElem, CycloElem] = {}

    def over(num: CycloElem, den: CycloElem) -> CycloElem:
        if den.is_zero():
            raise RuntimeError(f"zero denominator in the Cauchy-type matrix for p={p}")
        r = inv_cache.get(den)
        if r is None:
            r = den.inv()
            inv_cache[den] = r
        return num * r

    cauchy = ExactMatrix(
        ring,
        [[over(uj[i] + uj[j], 1 + uj[i] * uj[j]) for j in range(1, n + 1)] for i in range(1, n + 1)],
    )
    lhs_det = det_field(cauchy)

    u, _, _ = build_vsemirnov_matrices(p)
    u00 = det_field(u.submatrix(0, 0))
    lhs = (lhs_det, u00)
    rhs = (base, base * zeta_pow(p, -(p - 1) // 4))
    return _pair_result("f1f2_u00", p, lhs, rhs)


# -- classical companions ------------------------------------------------------

def verify_carlitz(p) -> CheckResult:
    """det[( (j-i)/p )]_{1<=i,j<=p-1} = p^((p-3)/2)."""
    p = OddPrime(p)
    det = det_bareiss(build_carlitz_matrix(p))
    return _result("carlitz", p, det, p ** ((p - 3) // 2))


def verify_sun_congruence(p, d: int) -> CheckResult:
    """det[( (i+dj)/p )]_{0<=i,j<=n} = ((d/p) d)^((p-1)/4) * n! (mod p)."""
    p = _require_1mod4(p)
    if not 0 <= d < p:
        raise ValueError(f"d = {d} out of range [0, {p - 1}]")
    lhs = det_mod_p(build_sun_matrix(p, d), p)
    rhs = pow(legendre(d, p) * d % p, (p - 1) // 4, p) * factorial_mod(p.n, p) % p
    return _result(f"sun[d={d:02d}]", p, lhs, rhs)


# -- suite ---------------------------------------------------------------------

def random_uv_instance(rng: random.Random, m_max: int) -> tuple[int, list[Fraction], list[Fraction]]:
    """A random exact-rational (m, u, v) with every u_i * v_j != -1.

    Numerators and denominators come from a small box; instances hitting the
    excluded locus are redrawn whole so the stream stays reproducible.
    """
    while True:
        m = rng.randint(1, m_max)
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        if all(1 + ui * vj != 0 for ui in u for vj in v):
            return m, u, v


def uv_trial_checks(trials: int, m_max: int, seed: int) -> list[CheckResult]:
    """Seeded batch of lemma_uv checks with stable, sortable names."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if m_max < 1:
        raise ValueError("m must be at least 1")
    rng = random.Random(seed)
    checks = []
    for i in range(trials):
        m, u, v = random_uv_instance(rng, m_max)
        checks.append(replace(verify_lemma_uv(m, u, v), name=f"lemma_uv[{i:03d}]"))
    return checks


def run_suite(p_max: int, options: SuiteOptions = SuiteOptions()) -> VerificationReport:
    """Every applicable check for every odd prime p <= p_max.

    The decomposition and the other cyclotomic checks are capped separately
    (options.decomp_p_max, options.cyclo_p_max) since their cost dominates.
    Deterministic for a fixed seed; results sorted by (p, name) with the
    generic lemma_uv trials first.
    """
    if p_max < 3:
        raise ValueError(f"p_max = {p_max} leaves no odd primes to check; need p_max >= 3")
    start = time.perf_counter()
    checks = uv_trial_checks(options.uv_trials, options.uv_m_max, options.seed)
    for p in odd_primes_upto(p_max):
        checks.append(verify_theorem(p))
        checks.append(verify_evil(p))
        checks.append(verify_adj_sum(p))
        checks.append(verify_carlitz(p))
        if p.mod4 == 3:
            checks.append(verify_minor_antisymmetry(p))
        if p <= options.cyclo_p_max:
            checks.append(verify_prod_2j(p))
        if p.mod4 == 1:
            for d in range(p):
                checks.append(verify_sun_congruence(p, d))
            if p <= options.cyclo_p_max:
                checks.append(verify_lemma_sum(p))
                checks.append(verify_d00_detG(p))
                checks.append(verify_f1f2(p))
            if p <= options.decomp_p_max:
                checks.append(verify_decomposition(p))
    checks.sort(key=lambda c: (c.p if c.p is not None else 0, c.name))
    config = {
        "p_max": p_max,
        "decomp_p_max": options.decomp_p_max,
        "cyclo_p_max": options.cyclo_p_max,
        "uv_trials": options.uv_trials,
        "uv_m_max": options.uv_m_max,
        "seed": options.seed,
    }
    return VerificationReport(tuple(checks), config, time.perf_counter() - start)
