"""Acceptance gate: ten end-to-end criteria, each printed as one verdict line.

Everything here is exact arithmetic; a criterion passes only on literal
equality, never on closeness.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import poly_mul, poly_sub, rand_int_rows

from legdet.exact import UniPoly
from legdet.identities import (
    build_carlitz_matrix,
    build_evil_matrix,
    c_polynomial,
    uv_trial_checks,
    verify_d00_detG,
    verify_decomposition,
    verify_lemma_sum,
    verify_lemma_uv,
    verify_minor_antisymmetry,
    verify_prod_2j,
    verify_sun_congruence,
)
from legdet.linalg import ZZ, ExactMatrix, adjugate, det_bareiss
from legdet.ntheory import legendre, odd_primes_upto
from legdet.quadfield import ab_coeffs, class_number
from legdet.render import format_poly


def _verdict(num: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_closed_form_theorem():
    start = time.perf_counter()
    spots = {5: "-5*x - 2", 13: "-65*x - 18", 17: "17*x - 4", 29: "-377*x - 70"}
    ok = True
    for p in odd_primes_upto(97):
        cx = c_polynomial(p)
        if p % 4 == 3:
            expected = UniPoly([1])
        else:
            ud = ab_coeffs(p)
            expected = UniPoly([-ud.a, legendre(2, p) * p * ud.b])
        ok = ok and cx == expected
        if p in spots:
            ok = ok and format_poly(cx) == spots[p]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(1, ok, f"C(x) matches the unit/class-number closed form for all odd p <= 97 ({elapsed:.1f}s)")


def test_criterion_02_determinant_values():
    ok = True
    for p in odd_primes_upto(97):
        det = det_bareiss(build_evil_matrix(p))
        expected = 1 if p % 4 == 3 else -ab_coeffs(p).a
        ok = ok and det == expected
    ok = ok and class_number(229) == 3
    ok = ok and det_bareiss(build_evil_matrix(229)) == -ab_coeffs(229).a
    _verdict(2, ok, "det C equals 1 (p = 3 mod 4) or -a_p (p = 1 mod 4) for p <= 97 and p = 229 (h = 3)")


def test_criterion_03_decomposition():
    start = time.perf_counter()
    ok = all(verify_decomposition(p).passed for p in (5, 13, 17, 29))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(3, ok, f"C = (2/p) g z^((p-1)/4) VDUDV entrywise for p in {{5, 13, 17, 29}} ({elapsed:.1f}s)")


def test_criterion_04_uv_determinant_lemma():
    checks = uv_trial_checks(100, 5, 0)
    ok = len(checks) == 100 and all(c.passed for c in checks)
    # m = 1: the closed form must collapse to the single matrix entry
    # (u + v)/(1 + uv); symbolically in u, that is the polynomial identity
    # (1+u)(1+v) - (1-u)(1-v) = 2(u + v), checked on coefficient lists.
    for k in range(-6, 7):
        v = Fraction(k, 5)
        lhs = poly_sub(poly_mul([1, 1], [1 + v]), poly_mul([1, -1], [1 - v]))
        ok = ok and lhs == [2 * v, 2]
    rng = random.Random(4)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if 1 + a * b == 0:
            continue
        ok = ok and verify_lemma_uv(1, (a,), (b,)).passed
    _verdict(4, ok, "100 seeded rational instances of the uv determinant lemma (m <= 5), m = 1 collapse symbolic")


def test_criterion_05_cyclotomic_product_identities():
    ok = True
    for p in (5, 13, 17, 29, 37):
        ok = ok and verify_lemma_sum(p).passed
        ok = ok and verify_prod_2j(p).passed
        ok = ok and verify_d00_detG(p).passed
    _verdict(5, ok, "signed-product sum, (1 + z^2j) product, d00 and (det G)^2 identities for p in {5, 13, 17, 29, 37}")


def test_criterion_06_carlitz_determinant():
    ok = all(
        det_bareiss(build_carlitz_matrix(p)) == p ** ((p - 3) // 2)
        for p in (3, 5, 7, 11, 13)
    )
    _verdict(6, ok, "det[((j-i)/p)] over 1..p-1 equals p^((p-3)/2) for p in {3, 5, 7, 11, 13}")


def test_criterion_07_sun_congruence():
    ok = all(
        verify_sun_congruence(p, d).passed
        for p in (5, 13, 17, 29)
        for d in range(p)
    )
    _verdict(7, ok, "shifted-column determinant congruence for every d in [0, p-1], p in {5, 13, 17, 29}")


def test_criterion_08_minor_antisymmetry():
    ok = all(verify_minor_antisymmetry(p).passed for p in (3, 7, 11, 19, 23))
    _verdict(8, ok, "cofactor antisymmetry C_kl + C_(n-k)(n-l) = 0 for p in {3, 7, 11, 19, 23}")


def test_criterion_09_adjugate_properties():
    rng = random.Random(9)
    ok = True
    for _ in range(100):
        k = rng.randint(1, 6)
        h = ExactMatrix(ZZ, rand_int_rows(rng, k))
        u = [rng.randint(-5, 5) for _ in range(k)]
        v = [rng.randint(-5, 5) for _ in range(k)]
        bumped = ExactMatrix(ZZ, [
            [h[i, j] + u[i] * v[j] for j in range(k)] for i in range(k)
        ])
        adj = adjugate(h)
        form = sum(v[i] * adj[i, j] * u[j] for i in range(k) for j in range(k))
        ok = ok and det_bareiss(bumped) == det_bareiss(h) + form
    for _ in range(50):
        k = rng.randint(1, 4)
        a = ExactMatrix(ZZ, rand_int_rows(rng, k))
        b = ExactMatrix(ZZ, rand_int_rows(rng, k))
        ok = ok and adjugate(a @ b) == adjugate(b) @ adjugate(a)
    _verdict(9, ok, "det(H + uv^T) = det H + v^T adj(H) u on 100 matrices; adj(AB) = adj(B) adj(A) on 50 pairs")


def test_criterion_10_byte_identical_reports():
    args = [sys.executable, "-m", "legdet", "verify",
            "--pmax", "60", "--seed", "42", "--format", "json"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and len(first.stdout) > 0
        and first.stdout == second.stdout
    )
    _verdict(10, ok, "two runs of verify --pmax 60 --seed 42 --format json are byte-identical")
