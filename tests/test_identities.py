import hashlib
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

import legdet
from helpers import lemma_uv_rhs_fraction
from legdet import identities
from legdet.cyclotomic import CycloElem, zeta_pow
from legdet.exact import UniPoly
from legdet.identities import (
    PrimeContext,
    SuiteOptions,
    _result,
    build_evil_matrix,
    build_vsemirnov_matrices,
    c_polynomial,
    random_uv_instance,
    run_suite,
    uv_trial_checks,
    verify_adj_sum,
    verify_carlitz,
    verify_d00_detG,
    verify_decomposition,
    verify_evil,
    verify_f1f2,
    verify_lemma_sum,
    verify_lemma_uv,
    verify_minor_antisymmetry,
    verify_prod_2j,
    verify_sun_congruence,
    verify_theorem,
)
from legdet.linalg import (
    ZZ,
    ExactMatrix,
    adjugate,
    det_bareiss,
    det_field,
    det_mod_packed,
    det_toeplitz,
    toeplitz_adjugate,
    toeplitz_columns,
)
from legdet.ntheory import legendre, odd_primes_upto
from legdet.render import format_value


def test_build_evil_matrix():
    assert build_evil_matrix(3) == ExactMatrix(ZZ, [[0, 1], [-1, 0]])
    assert build_evil_matrix(5).entries[0] == (0, 1, -1)
    for p in (3, 5, 7, 13):
        m = build_evil_matrix(p)
        assert all(m[i, i] == 0 for i in range(m.rows))


def test_c_polynomial_spot_values():
    assert c_polynomial(3) == UniPoly.constant(1)
    assert c_polynomial(5) == UniPoly((-2, -5))
    assert c_polynomial(13) == UniPoly((-18, -65))
    assert c_polynomial(17) == UniPoly((-4, 17))


def test_c_polynomial_degree_at_most_one():
    for p in odd_primes_upto(31):
        assert c_polynomial(p).degree <= 1


def test_theorem_small_primes():
    for p in odd_primes_upto(31):
        r = verify_theorem(p)
        assert r.passed, r
        assert r.name == "theorem_cx" and r.p == p
        assert r.lhs == r.rhs


def test_theorem_residue_structure():
    """p = 3 (mod 4) gives the constant 1; p = 1 (mod 4) has zero-free linear
    coefficient legendre(2,p) * p * b and constant -a."""
    for p in odd_primes_upto(31):
        cp = c_polynomial(p)
        if p % 4 == 3:
            assert cp == UniPoly.constant(1)
            assert cp.coeff(1) == 0
        else:
            assert cp.coeff(1) % p == 0 and cp.coeff(1) != 0


def test_evil_spot_values():
    assert verify_evil(3).lhs == "1"
    assert verify_evil(13).lhs == "-18"
    assert verify_evil(29).lhs == "-70"
    for p in odd_primes_upto(31):
        assert verify_evil(p).passed


def test_adj_sum_values():
    assert verify_adj_sum(7).lhs == "0"
    assert verify_adj_sum(5).lhs == "-5"
    assert verify_adj_sum(13).lhs == "-65"
    for p in odd_primes_upto(23):
        assert verify_adj_sum(p).passed


def test_minor_antisymmetry():
    for p in (3, 7, 11, 19):
        r = verify_minor_antisymmetry(p)
        assert r.passed and r.lhs == "0" and r.rhs == "0"
    with pytest.raises(ValueError):
        verify_minor_antisymmetry(13)


def test_vsemirnov_matrix_structure():
    u, v, d = build_vsemirnov_matrices(5)
    n1 = u.rows
    assert n1 == 3 and v.rows == 3 and len(d) == 3 and isinstance(d, tuple)
    assert u[0, 0].is_zero()
    assert all(v[0, j] == CycloElem.one(5) for j in range(n1))
    d13 = build_vsemirnov_matrices(13)[2]
    assert isinstance(d13, tuple) and len(d13) == 7 and all(isinstance(x, CycloElem) for x in d13)
    # 1/d00^2 = 5 * zeta (the p=5 instance of p*zeta^(n(n+1)))
    inv_d00 = d[0].inv()
    assert inv_d00 * inv_d00 == 5 * zeta_pow(5, 1)
    with pytest.raises(ValueError):
        build_vsemirnov_matrices(7)


def test_decomposition_small():
    for p in (5, 13):
        r = verify_decomposition(p)
        assert r.passed, r.detail
        assert r.name == "decomposition" and r.detail == ""


def test_lemma_uv_m1_closed_form():
    """At m=1 the closed form collapses to (a+b)/(1+ab); checked against the
    raw formula, not just the package's own evaluation."""
    rng = random.Random(13)
    for _ in range(50):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if 1 + a * b == 0:
            continue
        assert ((1 + a) * (1 + b) - (1 - a) * (1 - b)) / 2 == a + b
        assert verify_lemma_uv(1, [a], [b]).passed


def test_lemma_uv_m2_example():
    r = verify_lemma_uv(2, [Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3)])
    assert r.passed
    assert r.lhs == "-37/1225"


def test_lemma_uv_preconditions():
    with pytest.raises(ValueError):
        verify_lemma_uv(1, [Fraction(2)], [Fraction(-1, 2)])
    with pytest.raises(ValueError):
        verify_lemma_uv(2, [Fraction(1)], [Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        verify_lemma_uv(0, [], [])


def test_lemma_uv_rejects_inexact_entries():
    """Only int and Fraction entries: a float would be checked as the binary
    fraction it rounds to, not the decimal the caller wrote."""
    for bad in (0.1, "1/2", Decimal("0.5"), 1j, None):
        with pytest.raises(TypeError):
            verify_lemma_uv(1, [bad], [Fraction(1, 5)])
        with pytest.raises(TypeError):
            verify_lemma_uv(2, [1, 2], [Fraction(1, 5), bad])
    assert verify_lemma_uv(2, [1, Fraction(-3, 7)], [0, 4]).passed


def _uv_entry(rng, kind):
    """One lemma entry of the given kind (see test_lemma_uv_rhs_matches_fraction_oracle)."""
    if kind == "int":
        return Fraction(rng.randint(-12, 12))
    if kind == "big":
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    if kind == "zero" and rng.random() < 0.5:
        return Fraction(0)
    if kind == "unit" and rng.random() < 0.5:
        return Fraction(rng.choice((1, -1)))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_lemma_uv_rhs_matches_fraction_oracle():
    """The integer closed form equals the Fraction closed form, term by
    term, on 2100 instances with m = 1..7: small rationals, integers, zeros,
    u_i = +-1 (a vanishing plus or minus product), repeated u_i or v_j (a
    vanishing Vandermonde factor) and numerators up to 10^6.  Instances with
    some u_i v_j = -1 must be refused instead."""
    rng = random.Random(8)
    kinds = ("small", "int", "zero", "unit", "repeat", "big")
    seen = {kind: 0 for kind in kinds}
    refused = 0
    while min(seen.values()) < 350:
        kind = kinds[sum(seen.values()) % len(kinds)]
        m = sum(seen.values()) % 7 + 1
        u = [_uv_entry(rng, kind) for _ in range(m)]
        v = [_uv_entry(rng, kind) for _ in range(m)]
        if kind == "repeat" and m > 1:
            w = rng.choice((u, v))
            i, j = rng.sample(range(m), 2)
            w[i] = w[j]
        if any(1 + ui * vj == 0 for ui in u for vj in v):
            with pytest.raises(ValueError):
                verify_lemma_uv(m, u, v)
            refused += 1
            continue
        r = verify_lemma_uv(m, u, v)
        assert r.rhs == format_value(lemma_uv_rhs_fraction(m, u, v)), (m, u, v)
        assert r.passed, (m, u, v)
        seen[kind] += 1
    assert refused > 0


def test_lemma_uv_random_batch():
    checks = uv_trial_checks(100, 5, seed=0)
    assert len(checks) == 100
    assert all(c.passed for c in checks)
    assert checks[3].name == "lemma_uv[003]"


def test_random_uv_instance_determinism():
    a = random_uv_instance(random.Random(42), 5)
    b = random_uv_instance(random.Random(42), 5)
    assert a == b
    m, u, v = a
    assert 1 <= m <= 5 and len(u) == m and len(v) == m
    assert all(1 + ui * vj != 0 for ui in u for vj in v)


def test_lemma_sum_values():
    r = verify_lemma_sum(5)
    assert r.passed
    assert r.lhs == "-5*z^3"
    for p in (13, 17):
        assert verify_lemma_sum(p).passed
    with pytest.raises(ValueError):
        verify_lemma_sum(7)


def test_prod_2j():
    r = verify_prod_2j(5)
    assert r.passed and r.lhs == "-z^3"
    for p in (7, 13, 19):
        assert verify_prod_2j(p).passed


def test_d00_detg():
    r = verify_d00_detG(5)
    assert r.passed
    assert r.lhs == "5*z ; z"
    assert verify_d00_detG(13).passed
    with pytest.raises(ValueError):
        verify_d00_detG(11)


def test_f1f2():
    for p in (5, 13):
        r = verify_f1f2(p)
        assert r.passed, r
        assert r.name == "f1f2_u00"


def test_pair_result_length_mismatch_fails():
    assert _result("pair", 5, (1, 2), (1, 2)).passed
    assert not _result("pair", 5, (1, 2), (1,)).passed
    assert not _result("pair", 5, (1,), (1, 2)).passed
    assert not _result("pair", 5, (1, 2), (1, 3)).passed


def test_wrong_inverse_fails_cyclotomic_checks(monkeypatch):
    """Negative control: an inverse off by a factor zeta must show as a
    failed check, not as a pass and not as an exception."""
    true_inv = CycloElem.inv
    monkeypatch.setattr(CycloElem, "inv", lambda a: true_inv(a) * zeta_pow(a.p, 1))
    f1f2, decomp = verify_f1f2(13), verify_decomposition(13)
    for check in (f1f2, decomp):
        assert check.passed is False
        assert check.lhs != check.rhs
    # the failing reports themselves, pinned: the first divergent entry of C,
    # and for f1f2 the right side in full and the 206-character left by hash,
    # the hash of the determinants of the perturbed matrices by
    # helpers.det_gauss with the true inverse
    assert (decomp.name, decomp.lhs, decomp.rhs, decomp.detail) == (
        "decomposition", "1", "z^3", "first divergent entry (i, j) = (0, 1)"
    )
    assert (f1f2.name, f1f2.detail) == ("f1f2_u00", "")
    assert hashlib.sha256(f1f2.lhs.encode()).hexdigest() == (
        "3aa1e0ef7faeef80a6e05deed3476ab96f00be886821685b00bb64d825782c2e"
    )
    assert f1f2.rhs == (
        "70 + 195*z + 70*z^2 + 15*z^4 - 120*z^5 - 195*z^6 - 160*z^7 - 160*z^8 - 195*z^9 - 120*z^10 + 15*z^11"
        " ; -70 - 55*z - 190*z^2 - 265*z^3 - 230*z^4 - 230*z^5 - 265*z^6 - 190*z^7 - 55*z^8 - 70*z^9 + 125*z^11"
    )


@pytest.mark.parametrize("k", [0, -1], ids=["d_0", "d_n"])
def test_doubled_diagonal_entry_fails_decomposition(monkeypatch, k):
    """Negative control: D held as its diagonal d, with one end entry
    doubled, must fail the decomposition at a named entry."""
    true_build = identities.build_vsemirnov_matrices

    def doubled(p):
        u, v, d = true_build(p)
        d = list(d)
        d[k] = 2 * d[k]
        return u, v, tuple(d)

    monkeypatch.setattr(identities, "build_vsemirnov_matrices", doubled)
    r = verify_decomposition(13)
    assert r.passed is False and r.lhs != r.rhs
    assert r.detail.startswith("first divergent entry (i, j) = (")


def test_zero_inverse_names_its_field():
    with pytest.raises(ZeroDivisionError, match="zeta_5"):
        identities.PrimeContext(5).inverse(CycloElem.zero(5))


def shift_toeplitz_dets(monkeypatch, shift):
    """Every Toeplitz determinant the checks read, moved by shift(t): C - J
    and the Carlitz T through det_toeplitz, C + J through toeplitz_columns."""
    monkeypatch.setattr(identities, "det_toeplitz", lambda t, k: det_toeplitz(t, k) + shift(t))

    def columns(t, k):
        det, f, b = toeplitz_columns(t, k)
        return det + shift(t), f, b

    monkeypatch.setattr(identities, "toeplitz_columns", columns)


def test_perturbed_adjugate_fails_minor_antisymmetry(monkeypatch):
    """Negative control: one cofactor off by one, after the certificate,
    must fail the check and name the (k, l) pair it breaks.  At p = 7
    (n = 3) adj[2, 0] is cofactor C_02, first paired at (k, l) = (0, 2)."""
    certified = PrimeContext.__dict__["evil_adjugate"].func

    def bumped(ctx):
        rows = [list(row) for row in certified(ctx).entries]
        rows[2][0] += 1
        return ExactMatrix(ZZ, rows)

    monkeypatch.setattr(PrimeContext, "evil_adjugate", property(bumped))
    r = verify_minor_antisymmetry(7)
    assert r.passed is False
    assert (r.name, r.lhs, r.rhs, r.detail) == ("minor_antisym", "1", "0", "(k, l) = (0, 2)")


def spy_gauss_jordan(monkeypatch) -> list[int]:
    """The orders of the matrices that reach Gauss-Jordan adjugate."""
    calls = []

    def spied(m):
        calls.append(m.rows)
        return adjugate(m)

    monkeypatch.setattr(identities, "adjugate", spied)
    return calls


def test_corrupted_toeplitz_adjugate_falls_back_to_gauss_jordan(monkeypatch):
    """Negative control: one entry of the Toeplitz fill of adj(C + J) off by
    one, before the certificate.  The rank-one update then has a remainder
    or a wrong result, the certificate does not hold, and C goes to
    Gauss-Jordan, so every check still passes."""
    def corrupted(f, b):
        rows = toeplitz_adjugate(f, b)
        rows[1][1] += 1
        return rows

    monkeypatch.setattr(identities, "toeplitz_adjugate", corrupted)
    calls = spy_gauss_jordan(monkeypatch)
    for p in (7, 11, 19, 23):
        ctx = PrimeContext(p)
        assert verify_minor_antisymmetry(ctx).passed
        assert verify_adj_sum(ctx).passed
    assert calls == [4, 6, 10, 12]


@pytest.mark.parametrize("trigger", ["divisor", "f0", "det_a", "remainder", "c0", "certificate"])
def test_each_fallback_trigger_gives_the_gauss_jordan_adjugate(monkeypatch, trigger):
    """Each condition under which the Toeplitz adjugate of C cannot be
    certified sends C to Gauss-Jordan, and the adjugate is still right:
    a vanishing recurrence divisor (no columns), a vanishing F_0, det(C + J)
    = 0, a remainder in the rank-one update (det(C + J) replaced by a prime
    that divides none of its numerators), c0 = 0, and a failed certificate.
    The context's records are seeded with the forced values."""
    p = 19
    ctx = PrimeContext(p)
    det_a, f, b = ctx.plus_j
    assert ctx.evil_det == 1  # kept, so that seeding plus_j leaves it alone
    seeded = {
        "divisor": {"plus_j": (det_a, None, None)},
        "f0": {"plus_j": (det_a, [0] + f[1:], b)},
        "det_a": {"plus_j": (0, f, b)},
        "remainder": {"plus_j": ((1 << 61) - 1, f, b)},
        "c0": {"evil_det": 0},
        "certificate": {},
    }[trigger]
    ctx.__dict__.update(seeded)
    if trigger == "certificate":
        monkeypatch.setattr(identities, "certify_adjugate", lambda c, x, d: False)
    calls = spy_gauss_jordan(monkeypatch)
    assert ctx.evil_adjugate == adjugate(build_evil_matrix(p))
    assert calls == [(p + 1) // 2]
    assert verify_minor_antisymmetry(ctx).passed

def test_wrong_residue_fails_sun_congruence(monkeypatch):
    monkeypatch.setattr(identities, "det_mod_packed", lambda rows, q, w: (det_mod_packed(rows, q, w) + 1) % q)
    for d in range(13):
        r = verify_sun_congruence(13, d)
        assert r.passed is False and r.lhs != r.rhs


def test_wrong_determinant_fails_carlitz_and_evil(monkeypatch):
    """det_toeplitz + 1 shifts Carlitz by one and C(1), C(-1) by one each,
    hence C(0) by one."""
    shift_toeplitz_dets(monkeypatch, lambda t: 1)
    for p in (7, 13, 17, 19):
        for r in (verify_carlitz(p), verify_evil(p)):
            assert r.passed is False and r.lhs != r.rhs
    assert (verify_carlitz(7).lhs, verify_carlitz(7).rhs) == ("50", "49")
    for p, lhs, rhs in ((13, "-17", "-18"), (17, "-3", "-4")):
        r = verify_evil(p)
        assert (r.lhs, r.rhs, r.detail) == (lhs, rhs, "")


def test_wrong_b_fails_every_check_that_reads_it(monkeypatch):
    true_ab = identities.ab_coeffs
    monkeypatch.setattr(identities, "ab_coeffs", lambda p: replace(true_ab(p), b=true_ab(p).b + 1))
    for r in (verify_theorem(13), verify_adj_sum(13), verify_lemma_sum(13), verify_f1f2(5)):
        assert r.passed is False and r.lhs != r.rhs


def test_wrong_determinant_fails_theorem(monkeypatch):
    """det_toeplitz + 1 on both C + J and C - J shifts C(x) by the constant
    1, and the closed-form comparison fails."""
    shift_toeplitz_dets(monkeypatch, lambda t: 1)
    for p in (7, 13, 17, 19):
        r = verify_theorem(p)
        assert r.passed is False and r.lhs != r.rhs
    for p, lhs, rhs in ((13, "-65*x - 17", "-65*x - 18"), (17, "17*x - 3", "17*x - 4")):
        r = verify_theorem(p)
        assert (r.lhs, r.rhs, r.detail) == (lhs, rhs, "")


def test_wrong_shifted_determinant_fails_adj_sum(monkeypatch):
    """det_toeplitz + 1 on every matrix cancels in C(1) - C(0), so this
    control shifts C(1) = det(C + J) alone, the only Toeplitz matrix here
    with no negative diagonal.  The shift is 2, which keeps C(1) + C(-1)
    even and moves C(1) - C(0) by one."""
    shift_toeplitz_dets(monkeypatch, lambda t: 2 * (min(t) >= 0))
    for p in (13, 17, 19):
        r = verify_adj_sum(p)
        assert r.passed is False and r.lhs != r.rhs
    r = verify_adj_sum(13)
    assert (r.lhs, r.rhs, r.detail) == ("-64", "-65", "")


def test_odd_toeplitz_sum_raises(monkeypatch):
    """C(1) + C(-1) = 2 C(0) is even; a shift of C(1) by one makes it odd,
    and evil_det raises instead of flooring."""
    shift_toeplitz_dets(monkeypatch, lambda t: min(t) >= 0)
    for p in (7, 17):
        with pytest.raises(ArithmeticError, match="odd"):
            verify_evil(p)


def _shift_dense_det(monkeypatch, x):
    """Add 1 to det_bareiss of the one cross-check matrix whose (0, 0)
    entry is x: 0 for C, 1 for C + J and -1 for C - J."""
    monkeypatch.setattr(identities, "det_bareiss", lambda m: det_bareiss(m) + (m[0, 0] == x))


def test_dense_cross_check_disagreement_fails_evil_and_theorem(monkeypatch):
    """For p <= 13 c_polynomial compares det_bareiss of C with C(0) from the
    Toeplitz runs.  Toeplitz values moved by one (dense ones untouched) fail
    evil_det and theorem_cx against their closed forms, and c_polynomial
    raises with both polynomials and the dense C(0).  Shifting the dense
    det C alone makes c_polynomial raise too, while the suite, which reads
    only the Toeplitz values, passes, and above 13 nothing changes."""
    shift_toeplitz_dets(monkeypatch, lambda t: 1)
    assert not verify_evil(13).passed and not verify_theorem(13).passed
    with pytest.raises(RuntimeError) as exc:
        c_polynomial(13)
    assert str(exc.value) == "Toeplitz and dense C(x) disagree for p=13: -65*x - 17 ; -65*x - 18, dense C(0) = -18"
    monkeypatch.undo()
    _shift_dense_det(monkeypatch, 0)
    with pytest.raises(RuntimeError) as exc:
        c_polynomial(13)
    assert str(exc.value) == "Toeplitz and dense C(x) disagree for p=13: -65*x - 18 ; -65*x - 18, dense C(0) = -17"
    assert c_polynomial(17) == UniPoly((-4, 17))
    assert run_suite(13, SuiteOptions(uv_trials=1)).all_passed


def test_symbolic_cx_disagreement_fails_theorem(monkeypatch):
    """For p <= 13 c_polynomial checks the Toeplitz C(x) against the line
    through the dense C(1) and C(-1).  Moving the Toeplitz C(1) alone by 2
    bends C(x) off its closed form: theorem_cx fails and c_polynomial raises.
    Shifting the dense det(C + J) or det(C - J) alone moves the dense line,
    so c_polynomial raises with both polynomials, while the suite passes and
    p = 17, which takes no dense determinant, is unaffected."""
    shift_toeplitz_dets(monkeypatch, lambda t: 2 * (min(t) >= 0))
    r = verify_theorem(13)
    assert r.passed is False and r.rhs == "-65*x - 18" and r.lhs != r.rhs
    with pytest.raises(RuntimeError, match=r"p=13: .* ; -65\*x - 18, dense C\(0\) = -18"):
        c_polynomial(13)
    monkeypatch.undo()
    for x, line in ((1, "-129/2*x - 35/2"), (-1, "-131/2*x - 35/2")):
        _shift_dense_det(monkeypatch, x)
        with pytest.raises(RuntimeError) as exc:
            c_polynomial(13)
        assert str(exc.value) == f"Toeplitz and dense C(x) disagree for p=13: -65*x - 18 ; {line}, dense C(0) = -18"
        assert c_polynomial(17) == UniPoly((-4, 17))
        assert run_suite(13, SuiteOptions(uv_trials=1)).all_passed


def test_wrong_symbol_fails_prod_2j_and_d00_detg(monkeypatch):
    """prod_2j reads (2/p) on its right side only, d00_detG reads (k/p) in
    det G on its left side only; the sign of (k/p) is squared away there,
    so (1/p) is doubled instead of negated."""
    def wrong(a, p):
        r = legendre(a, p)
        return -r if a % p == 2 else 2 * r if a % p == 1 else r

    monkeypatch.setattr(identities, "legendre", wrong)
    for r in (verify_prod_2j(7), verify_prod_2j(13), verify_d00_detG(13)):
        assert r.passed is False and r.lhs != r.rhs


def test_wrong_determinant_fails_lemma_uv(monkeypatch):
    monkeypatch.setattr(identities, "det_field", lambda m: det_field(m) + 1)
    r = verify_lemma_uv(2, [Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3)])
    assert r.passed is False and r.lhs == "1188/1225" and r.rhs == "-37/1225"


def test_run_suite_computes_each_shared_value_once_per_prime(monkeypatch):
    """One context per prime: C(1) with the columns of adj(C + J), C(-1),
    a_p/b_p, n! mod p and Vsemirnov's U, V, D are each computed once, however
    many checks read them.  The certified adjugate of C reads the one C + J
    run, so the suite calls neither det_bareiss nor the Gauss-Jordan
    adjugate.  c_polynomial takes det C, det(C + J) and det(C - J) densely
    for p <= 13, and a direct call builds its own context, so nothing is
    kept between calls."""
    calls = {"det_toeplitz": [], "toeplitz_columns": [], "det_bareiss": [], "adjugate": [], "ab_coeffs": [],
             "build_vsemirnov_matrices": [], "factorial_mod": []}

    def count(name, key):
        fn = getattr(identities, name)

        def counted(*args):
            calls[name].append(key(*args))
            return fn(*args)

        monkeypatch.setattr(identities, name, counted)

    count("det_toeplitz", lambda t, k: (k, t[k - 1]))  # order and diagonal t_0
    count("toeplitz_columns", lambda t, k: (k, t[k - 1]))
    count("det_bareiss", lambda m: (m.rows, m.ring.name))
    count("adjugate", lambda m: m.rows)
    count("ab_coeffs", int)
    count("build_vsemirnov_matrices", lambda p: int(getattr(p, "p", p)))  # a context or a prime
    count("factorial_mod", lambda n, p: int(p))
    assert run_suite(29, SuiteOptions(uv_trials=1)).all_passed
    assert calls["ab_coeffs"] == calls["build_vsemirnov_matrices"] == calls["factorial_mod"] == [5, 13, 17, 29]
    # per prime C + J with its columns, then C - J and the Carlitz T, whose t_0 is (-1/p)
    primes = odd_primes_upto(29)
    assert calls["toeplitz_columns"] == [((p + 1) // 2, 1) for p in primes]
    assert calls["det_toeplitz"] == [
        call for p in primes for call in (((p + 1) // 2, -1), (p - 1, legendre(-1, p)))]
    assert calls["det_bareiss"] == calls["adjugate"] == []

    for name in ("det_toeplitz", "toeplitz_columns", "det_bareiss"):
        calls[name].clear()
    c_polynomial(5)
    c_polynomial(5)
    assert calls["toeplitz_columns"] == [(3, 1)] * 2
    assert calls["det_toeplitz"] == [(3, -1)] * 2
    assert calls["det_bareiss"] == [(3, "ZZ")] * 6


def test_check_names_sort_in_numeric_order():
    """Index padding grows with the largest index, so sorting by name keeps
    numeric order; at the default sizes the names are unchanged."""
    report = run_suite(3, SuiteOptions(uv_trials=1001, uv_m_max=1))
    names = [c.name for c in report.checks if c.name.startswith("lemma_uv")]
    assert names == [f"lemma_uv[{i:04d}]" for i in range(1001)]
    assert uv_trial_checks(1000, 1, 0)[-1].name == "lemma_uv[999]"
    sun = [verify_sun_congruence(101, d) for d in (9, 10, 99, 100)]
    assert [r.name for r in sun] == ["sun[d=009]", "sun[d=010]", "sun[d=099]", "sun[d=100]"]
    assert all(r.passed for r in sun)
    assert [r.name for r in sorted(sun, key=lambda r: r.name)] == [r.name for r in sun]
    assert verify_sun_congruence(97, 96).name == "sun[d=96]"
    assert verify_sun_congruence(13, 3).name == "sun[d=03]"


def test_carlitz_values():
    for p, want in ((3, "1"), (5, "5"), (7, "49"), (11, "14641")):
        r = verify_carlitz(p)
        assert r.passed and r.lhs == want


def test_sun_congruence():
    r = verify_sun_congruence(5, 1)
    assert r.passed and r.lhs == "2"
    assert verify_sun_congruence(5, 0).passed  # identical columns, 0 = 0
    for d in range(13):
        assert verify_sun_congruence(13, d).passed
    with pytest.raises(ValueError):
        verify_sun_congruence(13, 13)
    with pytest.raises(ValueError):
        verify_sun_congruence(13, -1)
    with pytest.raises(ValueError):
        verify_sun_congruence(7, 1)


def test_run_suite_small():
    report = run_suite(7, SuiteOptions(uv_trials=5))
    assert report.all_passed
    names = {(c.p, c.name) for c in report.checks}
    for p in (3, 5, 7):
        assert (p, "theorem_cx") in names
    assert (5, "decomposition") in names
    assert (7, "minor_antisym") in names
    assert report.config["p_max"] == 7
    assert report.elapsed_seconds >= 0


def test_run_suite_sorted_and_deterministic():
    opts = SuiteOptions(uv_trials=10, seed=42)
    r1 = run_suite(13, opts)
    r2 = run_suite(13, opts)
    assert r1.checks == r2.checks
    keys = [(c.p if c.p is not None else 0, c.name) for c in r1.checks]
    assert keys == sorted(keys)


def test_run_suite_respects_caps():
    report = run_suite(13, SuiteOptions(decomp_p_max=5, cyclo_p_max=5, uv_trials=1))
    names = {(c.p, c.name) for c in report.checks}
    assert (5, "decomposition") in names
    assert (13, "decomposition") not in names
    assert (13, "f1f2_u00") not in names
    assert (13, "sun[d=03]") in names  # congruences are not capped


def test_run_suite_boundary():
    with pytest.raises(ValueError):
        run_suite(2)
    report = run_suite(3, SuiteOptions(uv_trials=1))
    assert report.all_passed and len(report.checks) > 1


def test_check_result_invariant():
    """status is pass exactly when the printed sides coincide."""
    report = run_suite(13, SuiteOptions(uv_trials=20))
    for c in report.checks:
        assert c.passed == (c.lhs == c.rhs)
        assert c.status == ("pass" if c.passed else "fail")


def test_public_names_resolve():
    """Every exported name exists, once: a deleted function cannot linger in
    legdet.__all__."""
    assert len(set(legdet.__all__)) == len(legdet.__all__)
    for name in legdet.__all__:
        assert getattr(legdet, name) is not None
