import ast
import builtins
import hashlib
import random
import re
import sys
import types
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import legdet
from helpers import (
    Cyclo,
    _times_v,
    cauchy_and_u_by_inversion,
    convolve_cyclic,
    d_by_inversion,
    gauss_sum,
    lemma_uv_rhs_fraction,
    matmul_entrywise,
    mutant,
    random_uv_instance_randint,
    vsemirnov_v,
    w_slots,
    zeta,
)
from legdet import cyclotomic, identities, linalg
from legdet.cyclotomic import CycloElem, PackedRing, _fold, _pack, zeta_pow
from legdet.exact import UniPoly
from legdet.identities import (
    PrimeContext,
    SuiteOptions,
    _result,
    build_cauchy_matrix,
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
    cyclo_ring,
    adjugate,
    det_bareiss,
    det_circulant,
    det_field,
    det_fractions,
    det_mod_packed,
    det_mod_rows,
    toeplitz_adjugate,
    toeplitz_columns,
)
from legdet.ntheory import legendre, odd_primes_upto
from legdet.quadfield import fundamental_unit
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
    for p in (13, PrimeContext(13)):
        with pytest.raises(ValueError, match=re.escape("p = 13 is 1 (mod 4); this identity needs p = 3 (mod 4)")):
            verify_minor_antisymmetry(p)


def _elems(p, vecs, den=1):
    """The CycloElems of integer p-slot vectors over den: two lists are
    equal exactly when their vectors agree up to the all-ones vector."""
    return [CycloElem(p, _fold(v), den) for v in vecs]


def _cauchy_elems(ctx):
    """ctx.cauchy, the slot vectors of E, as rows of CycloElems."""
    return [_elems(ctx.p, row) for row in ctx.cauchy]


def _u_from_cauchy(ctx):
    """Vsemirnov's U as G E' G, built here in the oracle's Cyclos from
    ctx.cauchy: G = diag(1, (i/p) z^-i), E' = E bordered by a zero corner
    and ones."""
    p, one = ctx.p, Cyclo.one(ctx.p)
    g = [one] + [ctx.chi[i] * zeta(p, -i) for i in range(1, p.n + 1)]
    e = [[Cyclo.zero(p)] + [one] * p.n] + [[one, *row] for row in _cauchy_elems(ctx)]
    return [[gi * x * gj for x, gj in zip(row, g)] for gi, row in zip(g, e)]


def test_vsemirnov_matrix_structure():
    """The diagonal d of D, as p-slot vectors p d_i, with V^T d = e_n
    checked by entrywise products with the oracle V; U, which the package
    never builds, is the oracle's."""
    u = cauchy_and_u_by_inversion(5)[1]
    raw5 = build_vsemirnov_matrices(5)
    assert len(u) == len(u[0]) == 3 and len(raw5) == 3 and isinstance(raw5, tuple)
    d = _elems(5, raw5, 5)
    assert u[0][0].is_zero()
    raw13 = build_vsemirnov_matrices(13)
    assert isinstance(raw13, tuple) and len(raw13) == 7
    assert all(len(v) == 13 and all(type(c) is int for c in v) for v in raw13)
    d13 = _elems(13, raw13, 13)
    ring = cyclo_ring(13)
    vtd = matmul_entrywise(ExactMatrix(ring, [d13]), vsemirnov_v(13))
    assert vtd == [[ring.zero] * 6 + [ring.one]]
    # 1/d00^2 = 5 * zeta (the p=5 instance of p*zeta^(n(n+1)))
    inv_d00 = d[0].inv()
    assert inv_d00 * inv_d00 == 5 * zeta(5, 1)
    with pytest.raises(ValueError):
        build_vsemirnov_matrices(7)


def test_decomposition_small():
    for p in (5, 13):
        r = verify_decomposition(p)
        assert r.passed, r.detail
        assert r.name == "decomposition" and r.detail == ""


def spy_decomposition(monkeypatch, ctx):
    """verify_decomposition(ctx) with its packed helpers spied on: the
    result, the arguments and the (ring, W) of _w_packed, and the
    (rows, out) of each PackedRing.times_v pass; D, whose certificate also
    runs PackedRing.times_v, is built first."""
    ctx.vsemirnov
    true_w, true_v, seen = identities._w_packed, PackedRing.times_v, {"passes": []}

    def w_spy(*args):
        seen["w_args"], seen["w"] = args, true_w(*args)
        return seen["w"]

    def v_spy(ring, rows):
        seen["passes"].append((rows, true_v(ring, rows)))
        return seen["passes"][-1][1]

    monkeypatch.setattr(identities, "_w_packed", w_spy)
    monkeypatch.setattr(PackedRing, "times_v", v_spy)
    seen["result"] = verify_decomposition(ctx)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_rotations_give_v_w_v(monkeypatch, p):
    """The packed W of verify_decomposition (from _w_packed, over p^2: D's
    vectors are over p, E's over 1) read back by its ring is s D U D built
    from the oracle U and D
    of helpers, with the Gauss sum for sqrt(p); the first PackedRing.times_v
    pass gives W V, and the two passes of "times V, then transpose" give
    V W V, both against entrywise products with the oracle V and against
    the list oracle helpers._times_v."""
    ctx = PrimeContext(p)
    seen = spy_decomposition(monkeypatch, ctx)
    assert seen["result"].passed
    w_den, (w_ring, vecs) = seen["w_args"][4], seen["w"]
    den = p * p
    assert w_den == den
    ring, v = cyclo_ring(p), vsemirnov_v(p)
    d, u = d_by_inversion(p), cauchy_and_u_by_inversion(p)[1]
    scalar = ctx.chi[2] * gauss_sum(p) * zeta_pow(p, (p - 1) // 4)
    w = [[scalar * di * uij * dj for uij, dj in zip(row, d)] for di, row in zip(d, u)]

    def slots(rows):
        return [[w_ring.slots(x) for x in row] for row in rows]

    def folded(rows):
        return [[CycloElem(p, _fold(x), den) for x in row] for row in rows]

    (rows1, out1), (rows2, out2) = seen["passes"]
    assert rows1 is vecs and folded(slots(vecs)) == w
    wv = slots(out1)
    assert wv == [_times_v(p, row) for row in slots(vecs)]
    assert folded(wv) == matmul_entrywise(ExactMatrix(ring, w), v)
    assert rows2 == [list(col) for col in zip(*out1)]
    vwv = list(zip(*slots(out2)))
    assert vwv == list(zip(*(_times_v(p, list(col)) for col in zip(*wv))))
    assert folded(vwv) == matmul_entrywise(ExactMatrix(ring, matmul_entrywise(v, ExactMatrix(ring, w))), v)


@pytest.mark.parametrize("p", [5, 13, 29, 53])
def test_times_v_packed_matches_list_oracle(p):
    """PackedRing.times_v on rows of packed slot vectors, read back by the
    ring, against helpers._times_v on the lists: seeded rows with negative
    slots, an all-zero row, rows whose output slots sit at the ring's
    bound, B = 2^(w-1) - 2 exactly for w = 16 (one vector of slots +-B,
    alternating, the others zero), and rows of the constant vectors
    +-floor(B/k), whose output slots come within k of +-B and are flat."""
    k, rng = (p + 1) // 2, random.Random(p)
    ring = PackedRing(p, (1 << 15) - 2)
    assert ring.w == 16
    big = (1 << 15) - 2
    edge = [(-1) ** t * big for t in range(p)]
    flat_b = [[big // k] * p] * k
    rows = [[[rng.randint(-300, 300) for _ in range(p)] for _ in range(k)] for _ in range(3)]
    rows += [[[0] * p] * k, [edge] + [[0] * p] * (k - 1), [[0] * p] * (k - 1) + [edge],
             flat_b, [[-c for c in v] for v in flat_b]]
    packed = [[_pack(v, ring.w) for v in row] for row in rows]
    for row, out in zip(rows, ring.times_v(packed)):
        want = _times_v(p, row)
        assert max(max(map(abs, v)) for v in want) <= big
        assert [ring.slots(x) for x in out] == want
        assert all(ring.flat(x, 0) is (v.count(v[0]) == p) for x, v in zip(out, want))
    assert ring.slots(_pack(edge, ring.w)) == edge and ring.flat(_pack([big] * p, ring.w), 0)


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 53])
def test_decomposition_slots_within_ring_bound(monkeypatch, p):
    """Every slot of v - den C_ij e_0, v entry (i, j) of V W V computed by
    the list oracles (helpers.w_slots and two passes of helpers._times_v on
    the factors _w_packed receives), is at most 2^(w-1) - 2 in absolute
    value for the slot width w of the ring verify_decomposition picks, so
    its biased residue reads back exactly; and it equals what the ring
    reads back."""
    ctx = PrimeContext(p)
    seen = spy_decomposition(monkeypatch, ctx)
    assert seen["result"].passed
    _, s, delta, rows, den = seen["w_args"]
    ring = seen["w"][0]
    a = w_slots(p, s, delta, rows)
    for _ in range(2):
        a = [list(col) for col in zip(*(_times_v(p, row) for row in a))]
    out = list(zip(*seen["passes"][1][1]))
    top = 0
    for crow, arow, xrow in zip(ctx.evil.entries, a, out):
        for c, v, x in zip(crow, arow, xrow):
            top = max(top, abs(v[0] - den * c), *map(abs, v[1:]))
            assert ring.slots(x) == v
    assert top <= (1 << (ring.w - 1)) - 2 and ring.w % 8 == 0


def test_low_slot_comparison_mutant_fails_decomposition(monkeypatch):
    """Negative control for the all-ones test t = k R of PackedRing.flat:
    a mutant that compares only the low slot k of t, with 2^(w-1), the
    biased zero, takes a difference that is a nonzero multiple of the
    all-ones vector for a mismatch.  D's certificate V^T d = e_n raises at
    j = n, and with D given, the decomposition names entry (0, 1), whose
    values agree, as its first divergent entry, and fails the row on that
    flag alone."""
    ctx = PrimeContext(13)
    ctx.vsemirnov
    old = "t == (t & ((1 << self.w) - 1)) * self.r"
    monkeypatch.setattr(PackedRing, "flat", mutant(cyclotomic, "PackedRing.flat", old,
                                                   "t & ((1 << self.w) - 1) == 1 << (self.w - 1)"))
    with pytest.raises(ArithmeticError, match=r"p=13, j=6$"):
        build_vsemirnov_matrices(13)
    r = verify_decomposition(ctx)
    assert r.detail == "first divergent entry (i, j) = (0, 1)"
    assert r.lhs == r.rhs
    assert not r.passed


def test_certificate_target_mutant_raises():
    """Negative control for D's certificate: with the target p [j = n]
    dropped from slot 0, entry n of V^T (p d) fails at j = n."""
    build = mutant(identities, "build_vsemirnov_matrices", "p if j == p.n else 0", "0")
    with pytest.raises(ArithmeticError, match=r"^closed-form D fails V\^T d = e_n at p=29, j=14$"):
        build(29)


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


def test_random_uv_instance_keeps_the_randint_stream():
    """The box draws give the (m, u, v) of the randint generator they
    replaced, 300 draws for each seed 0-20 and m_max 1..7, and leave the
    generator in the same state; the stream of seed 0 at m_max 1 rejects a
    candidate on the way.  m_max < 1 still raises."""
    rejected = {}
    for seed in range(21):
        for m_max in range(1, 8):
            new, old = random.Random(seed), random.Random(seed)
            rejected[seed, m_max] = []
            for _ in range(300):
                assert random_uv_instance(new, m_max) == random_uv_instance_randint(old, m_max, rejected[seed, m_max])
            assert new.getstate() == old.getstate()
    assert rejected[0, 1]
    for m_max in (0, -1):
        with pytest.raises(ValueError):
            random_uv_instance(NoDrawRandom(0), m_max)


def test_random_uv_instance_reads_no_word_ahead():
    """Draws of other kinds between calls, rng.random() and
    rng.getrandbits(7), meet the same words under both generators: the
    instances, the interleaved values and the final state all match, so
    random_uv_instance leaves rng exactly where randint does."""
    for seed in range(5):
        new, old = random.Random(seed), random.Random(seed)
        for i in range(200):
            m_max = 1 + i % 7
            assert random_uv_instance(new, m_max) == random_uv_instance_randint(old, m_max)
            assert (new.random(), new.getrandbits(7)) == (old.random(), old.getrandbits(7))
        assert new.getstate() == old.getstate()


class CountingRandom(random.Random):
    """A Random that counts its getrandbits calls; randint reaches them
    through _randbelow, as the subclass overrides getrandbits."""

    def __init__(self, seed):
        self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_random_uv_instance_makes_randints_getrandbits_calls():
    new, old = CountingRandom(3), CountingRandom(3)
    for m_max in (1, 2, 5, 7):
        for _ in range(100):
            assert random_uv_instance(new, m_max) == random_uv_instance_randint(old, m_max)
        assert new.calls == old.calls > 0
    assert new.getstate() == old.getstate()


class Drew(Exception):
    pass


class NoDrawRandom(random.Random):
    """A Random whose getrandbits raises Drew: a draw that should not
    happen fails at once instead of looping."""

    def getrandbits(self, k):
        raise Drew(f"getrandbits({k})")


@pytest.mark.parametrize("m_max", [0, -1, -7])
def test_random_uv_instance_refuses_m_max_below_one_before_drawing(monkeypatch, m_max):
    """getrandbits(0) is 0 forever and no draw is below a negative bound, so
    a draw for m_max < 1 would never end: the refusal comes first.  The
    generator raises on any draw (NoDrawRandom), so a lost refusal fails
    this test instead of hanging it, as the control shows: with the guard
    made False, the first draw raises Drew."""
    rng = NoDrawRandom(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="m must be at least 1"):
        random_uv_instance(rng, m_max)
    assert rng.getstate() == state
    with monkeypatch.context() as m:
        m.setattr(identities.random, "Random", NoDrawRandom)
        with pytest.raises(ValueError, match="m must be at least 1"):
            uv_trial_checks(3, m_max, 0)
    unguarded = mutant(identities, "random_uv_instance", "if m_max < 1:", "if False:")
    with pytest.raises(Drew, match=r"^getrandbits\(\d+\)$"):
        unguarded(NoDrawRandom(0), m_max)


def test_mutant_edits_code_outside_the_docstring():
    """helpers.mutant counts and replaces old outside the function's
    docstring: "m_max < 1" is in random_uv_instance's docstring and its
    guard, and resolves to the guard, which made False lets the first draw
    through; the docstring is kept, and text found only in it is refused."""
    unguarded = mutant(identities, "random_uv_instance", "m_max < 1", "False")
    assert "m_max < 1" in unguarded.__doc__
    assert unguarded.__doc__ == random_uv_instance.__doc__
    with pytest.raises(Drew, match=r"^getrandbits\(0\)$"):
        unguarded(NoDrawRandom(0), 0)
    assert unguarded(random.Random(3), 5) == random_uv_instance(random.Random(3), 5)
    with pytest.raises(AssertionError, match="is not one expression"):
        mutant(identities, "random_uv_instance", "before any draw", "")


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
    """Both halves at every p = 1 (mod 4) up to 41, where det_field reads
    det E mod a Proth prime above 4H, a bound of 137 bits."""
    for p in (5, 13, 17, 29, 37, 41):
        r = verify_f1f2(p)
        assert r.passed, r
        assert r.name == "f1f2_u00"


@pytest.mark.parametrize("p", [3, 5, 13, 29])
def test_binomials_match_naive_product(p):
    """_binomials against a product of convolve_cyclic factors, each factor
    c z^a + d z^b written into p slots directly: the empty product 1,
    exponents from -3p to 3p, d = 0 (monomial factors) and a = b mod p."""
    def naive(terms):
        acc = [1] + [0] * (p - 1)
        for c, a, d, b in terms:
            f = [0] * p
            f[a % p] += c
            f[b % p] += d
            acc = convolve_cyclic(p, acc, f)
        return acc

    rng = random.Random(p)
    assert identities._binomials(p, []) == [1] + [0] * (p - 1)
    fixed = [[(2, p, 0, 0)], [(-3, -1, 5, p - 1)], [(1, 2 * p + 1, -1, -p - 1)], [(1, 0, 1, 1)] * 3]
    drawn = [[(rng.randint(-3, 3), rng.randint(-3 * p, 3 * p), rng.choice((0, rng.randint(-3, 3))),
               rng.randint(-3 * p, 3 * p)) for _ in range(k)] for k in (1, 2, 5, 20) for _ in range(10)]
    for terms in fixed + drawn:
        assert identities._binomials(p, iter(terms)) == naive(terms)


def test_rotation_off_by_one_fails_product_checks(monkeypatch):
    """Negative control: the second rotation of every binomial off by one,
    c z^a + d z^(b+1), fails prod_2j, lemma_sum and f1f2 at p = 13 as
    failed rows, not exceptions; the monomial right sides (d = 0) and the
    det_field left side of f1f2 stay as they were."""
    want = [verify_prod_2j(13), verify_lemma_sum(13), verify_f1f2(13)]
    true_binomials = identities._binomials
    monkeypatch.setattr(identities, "_binomials",
                        lambda p, terms: true_binomials(p, [(c, a, d, b + 1) for c, a, d, b in terms]))
    for r, w in zip((verify_prod_2j(13), verify_lemma_sum(13), verify_f1f2(13)), want):
        assert r.passed is False and r.lhs != r.rhs
        assert r.name == w.name and (r.rhs == w.rhs) is (r.name != "f1f2_u00")


def test_flipped_f1_binomial_fails_f1f2(monkeypatch):
    """Negative control: f1's first factor u_2 - u_1 = (2/p) z^2 - (1/p) z
    taken as u_2 + u_1 fails f1f2 at p = 13 on its right side; f2's
    factors 1 + u_i u_j start at z^0, so a first term at z^2 marks f1."""
    true_lhs = verify_f1f2(13).lhs
    true_binomials = identities._binomials

    def flipped(p, terms):
        terms = list(terms)
        if terms[0][1] == 2:
            c, a, d, b = terms[0]
            terms[0] = (c, a, -d, b)
        return true_binomials(p, terms)

    monkeypatch.setattr(identities, "_binomials", flipped)
    r = verify_f1f2(13)
    assert r.passed is False and r.lhs == true_lhs != r.rhs


def test_dropped_half_fails_lemma_sum(monkeypatch):
    """Negative control: lemma_sum's left side without its 1/2 fails; the
    other product checks, which scale by no 1/2, still pass."""
    true_scaled = identities._scaled
    monkeypatch.setattr(identities, "_scaled",
                        lambda p, v, r=1: true_scaled(p, v, 1 if r == Fraction(1, 2) else r))
    r = verify_lemma_sum(13)
    assert r.passed is False and r.lhs != r.rhs
    assert verify_prod_2j(13).passed and verify_d00_detG(13).passed and verify_f1f2(13).passed


def test_pair_result_length_mismatch_fails():
    assert _result("pair", 5, (1, 2), (1, 2)).passed
    assert not _result("pair", 5, (1, 2), (1,)).passed
    assert not _result("pair", 5, (1,), (1, 2)).passed
    assert not _result("pair", 5, (1, 2), (1, 3)).passed


def test_wrong_inverse_fails_cyclotomic_checks(monkeypatch):
    """Negative control: an inverse off by a factor zeta must show as a
    failed check, not as a pass and not as an exception.  The Cauchy-type
    matrix and D come from closed forms and U is never built, so the inverse
    reaches f1f2 only through 1/f2^2 on its right side."""
    true_lhs = verify_f1f2(13).lhs
    true_inv = CycloElem.inv
    monkeypatch.setattr(CycloElem, "inv", lambda a: true_inv(a) * zeta_pow(a.p, 1))
    f1f2 = verify_f1f2(13)
    assert f1f2.passed is False
    assert f1f2.lhs != f1f2.rhs
    # the failing report itself, pinned: the right side in full and the
    # 203-character left, the unperturbed determinants, by hash
    assert (f1f2.name, f1f2.detail, f1f2.lhs) == ("f1f2_u00", "", true_lhs)
    assert hashlib.sha256(f1f2.lhs.encode()).hexdigest() == (
        "c352b47452180846faccd1ae8355741e1c66ac01fe032f92811843c1e2c1d9e8"
    )
    assert f1f2.rhs == (
        "70 + 195*z + 70*z^2 + 15*z^4 - 120*z^5 - 195*z^6 - 160*z^7 - 160*z^8 - 195*z^9 - 120*z^10 + 15*z^11"
        " ; -70 - 55*z - 190*z^2 - 265*z^3 - 230*z^4 - 230*z^5 - 265*z^6 - 190*z^7 - 55*z^8 - 70*z^9 + 125*z^11"
    )


@pytest.mark.parametrize("k", [0, 7, 14], ids=["d_0", "d_7", "d_n"])
def test_corrupted_d_entry_raises(monkeypatch, k):
    """Row k of D, the product of binomials that _binomials returns for
    p d_k (first factor the monomial x_k = z^(2k)), off by one slot before
    its certificate fails V^T d = e_n as an internal error naming p and j,
    in the build and in the decomposition check that reads it."""
    true_binomials = identities._binomials

    def binomials(p, terms):
        acc = true_binomials(p, terms)
        return [acc[0] + 1, *acc[1:]] if terms[0] == (1, 2 * k, 0, 0) else acc

    monkeypatch.setattr(identities, "_binomials", binomials)
    with pytest.raises(ArithmeticError, match=r"p=29, j=0$"):
        build_vsemirnov_matrices(29)
    with pytest.raises(ArithmeticError, match=r"p=29, j=0$"):
        verify_decomposition(29)


@pytest.mark.parametrize("old, new", [
    ("(1, 2 * i, -1, o)", "(1, 2 * i, 1 if o == 1 else -1, o)"),
    ("range(1, p - 1, 2)", "range(1, p - 2, 2)"),
], ids=["one-factor-sign", "last-odd-o-dropped"])
def test_d_builder_mutants_raise(old, new):
    """Negative controls for the products of binomials that give p d_i:
    the factor x_i - z of every d_i made x_i + z, and the factor of the
    last odd o, p - 2, dropped.  Each fails the certificate V^T d = e_n,
    an internal error naming p and j, not a wrong D."""
    build = mutant(identities, "build_vsemirnov_matrices", old, new)
    with pytest.raises(ArithmeticError, match=r"^closed-form D fails V\^T d = e_n at p=29, j=0$"):
        build(29)


@pytest.mark.parametrize("p", [p for p in odd_primes_upto(109) if p % 4 == 1])
def test_closed_forms_match_inversion_oracle(p):
    """The Cauchy-type matrix E and D from closed forms, and U = G E' G
    built from E as verify_decomposition reads it, equal their definitions
    inverted entry by entry (helpers.cauchy_and_u_by_inversion,
    helpers.d_by_inversion)."""
    e, u = cauchy_and_u_by_inversion(p)
    ctx = PrimeContext(p)
    assert _cauchy_elems(ctx) == e
    assert _u_from_cauchy(ctx) == u
    assert _elems(p, ctx.vsemirnov, p) == d_by_inversion(p)


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_u00_determinant_is_rotated_cauchy_determinant(p):
    """det U_00, U without row and column 0, by det_field equals
    z^(-(p-1)/4) det E: the identity verify_f1f2 reads its second half by.
    U is the oracle's (helpers.cauchy_and_u_by_inversion)."""
    ctx = PrimeContext(p)
    u = cauchy_and_u_by_inversion(p)[1]
    u00 = det_field(ExactMatrix(cyclo_ring(p), [row[1:] for row in u[1:]]))
    assert u00 == zeta_pow(p, -(p - 1) // 4) * det_field(ExactMatrix(cyclo_ring(p), _cauchy_elems(ctx)))


@pytest.mark.parametrize("ij", [(2, 5), (1, 2)], ids=["same_symbol", "opposite_symbols"])
def test_corrupted_cauchy_entry_raises(monkeypatch, ij):
    """A closed-form entry off by one z^0 fails its certificate as an
    internal error naming p, i and j; one off by the all-ones vector, which
    is 0 in Q(zeta_p), passes and leaves the matrix unchanged up to that
    shift."""
    true_form = identities._cauchy_closed_form
    want = [_elems(13, row) for row in build_cauchy_matrix(13)]

    def shifted(delta):
        def form(p, lg, i, j):
            acc = true_form(p, lg, i, j)
            return [x + d for x, d in zip(acc, delta)] if (i, j) == ij else acc
        return form

    monkeypatch.setattr(identities, "_cauchy_closed_form", shifted([1] * 13))
    assert [_elems(13, row) for row in build_cauchy_matrix(13)] == want
    monkeypatch.setattr(identities, "_cauchy_closed_form", shifted([1] + [0] * 12))
    i, j = ij
    with pytest.raises(ArithmeticError, match=rf"p=13, i={i}, j={j}$"):
        build_cauchy_matrix(13)
    with pytest.raises(ArithmeticError, match=rf"p=13, i={i}, j={j}$"):
        verify_f1f2(13)


@pytest.mark.parametrize("k", [0, -1], ids=["d_0", "d_n"])
def test_doubled_diagonal_entry_fails_decomposition(monkeypatch, k):
    """Negative control: D held as its diagonal d, with one end entry
    doubled, must fail the decomposition at a named entry."""
    true_build = identities.build_vsemirnov_matrices

    def doubled(p):
        d = list(true_build(p))
        d[k] = [2 * c for c in d[k]]
        return tuple(d)

    monkeypatch.setattr(identities, "build_vsemirnov_matrices", doubled)
    r = verify_decomposition(13)
    assert r.passed is False and r.lhs != r.rhs
    assert r.detail.startswith("first divergent entry (i, j) = (")


@pytest.mark.parametrize("delta, passed", [(1, False), (None, True)], ids=["one_slot", "all_ones"])
def test_corrupted_v_w_v_entry_fails_decomposition(monkeypatch, delta, passed):
    """Negative control for the slot comparison: entry (i, j) = (4, 2) of
    V W V, one slot off by one after the two passes, fails the
    decomposition at that entry, the earlier entries still matching; off
    by the all-ones vector, which is 0 in Q(zeta_p), it passes."""
    ctx = PrimeContext(13)
    ctx.vsemirnov
    true_times_v = PackedRing.times_v
    calls = []

    def corrupted(ring, rows):
        out = true_times_v(ring, rows)
        calls.append(1)
        # row j of the second pass is column j of V W V; slot 0 is the low
        # w bits, and the all-ones vector packs to R
        if len(calls) == 2:
            out[2][4] += ring.r if delta is None else delta
        return out

    monkeypatch.setattr(PackedRing, "times_v", corrupted)
    r = verify_decomposition(ctx)
    assert len(calls) == 2
    assert r.passed is passed
    if passed:
        assert r.detail == "" and r.lhs == r.rhs == "0"
    else:
        assert r.detail == "first divergent entry (i, j) = (4, 2)"
        assert r.lhs == format_value(ctx.evil[4, 2]) != r.rhs


@pytest.mark.parametrize("p", [13, 29])
@pytest.mark.parametrize("case", ["all_ones", "e_11", "d_0"])
def test_shifted_slot_vectors_of_d_and_e(p, case):
    """Negative control for the slot vectors the checks read as built:
    the all-ones vector added to every entry of ctx.cauchy and of
    ctx.vsemirnov leaves the same field elements, so the decomposition and
    f1f2_u00 still pass; one slot of E_11 or of p d_0 off by one is another
    element, which fails the decomposition, and f1f2_u00 too for E_11, as
    det E then moves.  The vectors are injected through ctx.__dict__."""
    ctx = PrimeContext(p)
    e, d = ctx.cauchy, ctx.vsemirnov
    if case == "all_ones":
        e = [[[c + 1 for c in v] for v in row] for row in e]
        d = tuple([c + 1 for c in v] for v in d)
    elif case == "e_11":
        e = [[[e[0][0][0] + 1, *e[0][0][1:]], *e[0][1:]], *e[1:]]
    else:
        d = ([d[0][0] + 1, *d[0][1:]], *d[1:])
    fresh = PrimeContext(p)
    fresh.__dict__.update(cauchy=e, vsemirnov=d)
    decomposition, f1f2 = verify_decomposition(fresh), verify_f1f2(fresh)
    assert decomposition.passed is (case == "all_ones")
    assert f1f2.passed is (case != "e_11")
    if case != "all_ones":
        assert decomposition.detail.startswith("first divergent entry (i, j) = (")


def test_zero_inverse_names_its_field():
    with pytest.raises(ZeroDivisionError, match="zeta_5"):
        CycloElem.zero(5).inv()


def shift_toeplitz_dets(monkeypatch, shift):
    """Every Toeplitz determinant the checks read, moved by shift(t): the
    toeplitz_columns runs on C + J (diagonal t_0 = 1) and on C - J
    (t_0 = -1)."""
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


def test_evil_adjugate_refuses_1_mod_4():
    """adj(C) is built for p = 3 (mod 4) alone, the class whose C is
    antisymmetric; at p = 1 (mod 4) the context raises ValueError."""
    with pytest.raises(ValueError, match=r"3 \(mod 4\)"):
        PrimeContext(13).evil_adjugate


def spy_gauss_jordan(monkeypatch) -> list[int]:
    """The orders of the matrices that reach Gauss-Jordan adjugate."""
    calls = []

    def spied(m):
        calls.append(m.rows)
        return adjugate(m)

    monkeypatch.setattr(identities, "adjugate", spied)
    return calls


def test_corrupted_toeplitz_adjugate_falls_back_to_gauss_jordan(monkeypatch):
    """Negative control: one off-diagonal entry of the Toeplitz fill of
    adj(C + J) off by one, before the certificate.  Its antisymmetric part
    is then floored or wrong, the certificate does not hold, and C goes to
    Gauss-Jordan: the context's adjugate is Gauss-Jordan's, and minor
    antisymmetry still passes.  (A - A^T) / 2 never reads the diagonal of
    A, so the entry is off the diagonal."""
    def corrupted(f, b):
        rows = toeplitz_adjugate(f, b)
        rows[1][2] += 1
        return rows

    monkeypatch.setattr(identities, "toeplitz_adjugate", corrupted)
    calls = spy_gauss_jordan(monkeypatch)
    for p in (7, 11, 19, 23):
        ctx = PrimeContext(p)
        assert verify_minor_antisymmetry(ctx).passed
        assert ctx.evil_adjugate == adjugate(ctx.evil)
    assert calls == [4, 6, 10, 12]


@pytest.mark.parametrize("p", [11, 19, 23])
def test_uncertified_fill_fails_minor_antisymmetry(monkeypatch, p):
    """Negative control: with the certificate made to pass whatever X is,
    entry (1, 2) of the Toeplitz fill of adj(C + J) plus 2.  The
    antisymmetric part (A - A^T) / 2 does not build in the anti-centro
    symmetry that the check compares, so X[2][1], one less, fails it at
    (k, l) = (1, 2): the check reads the fill, not only its
    construction."""
    def corrupted(f, b):
        rows = toeplitz_adjugate(f, b)
        rows[1][2] += 2
        return rows

    monkeypatch.setattr(identities, "toeplitz_adjugate", corrupted)
    monkeypatch.setattr(identities, "certify_adjugate", lambda c, x, d: True)
    r = verify_minor_antisymmetry(p)
    assert (r.passed, r.lhs, r.rhs, r.detail) == (False, "-1", "0", "(k, l) = (1, 2)")


@pytest.mark.parametrize("trigger", ["divisor", "f0", "c0", "certificate"])
def test_each_fallback_trigger_gives_the_gauss_jordan_adjugate(monkeypatch, trigger):
    """Each condition under which the Toeplitz adjugate of C cannot be
    certified sends C to Gauss-Jordan, and the adjugate is still right:
    a vanishing recurrence divisor (no columns), a vanishing F_0, c0 = 0,
    and a failed certificate.  The context's records are seeded with the
    forced values."""
    p = 19
    ctx = PrimeContext(p)
    det_a, f, b = ctx.plus_j
    assert ctx.evil_det == 1  # kept, so that seeding plus_j leaves it alone
    seeded = {
        "divisor": {"plus_j": (det_a, None, None)},
        "f0": {"plus_j": (det_a, [0] + f[1:], b)},
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


@pytest.mark.parametrize("p, entry, lhs", [(19, 2, "-3"), (19, -2, "9"), (43, 2, "-7"), (43, -2, "21")],
                         ids=["p19-plus2", "p19-minus2", "p43-plus2", "p43-minus2"])
def test_corrupted_evil_matrix_fails_minor_antisymmetry(monkeypatch, p, entry, lhs):
    """Negative control: C[0][1] set to +-2 in the context's evil matrix,
    which the Toeplitz run on the Legendre table never reads.  The
    certificate, which multiplies in any integer entry, fails on the
    corrupted C, so C goes to Gauss-Jordan once, and its adjugate fails
    minor antisymmetry: a fail row, not an exception."""
    calls = spy_gauss_jordan(monkeypatch)
    ctx = PrimeContext(p)
    rows = [list(row) for row in ctx.evil.entries]
    rows[0][1] = entry
    ctx.__dict__["evil"] = ExactMatrix(ZZ, rows)
    r = verify_minor_antisymmetry(ctx)
    assert r.passed is False
    assert (r.name, r.lhs, r.rhs) == ("minor_antisym", lhs, "0")
    assert calls == [(p + 1) // 2]


@pytest.mark.parametrize("p", [7, 11, 19])
def test_even_table_fails_minor_antisymmetry_through_gauss_jordan(monkeypatch, p):
    """Negative control: the even table chi[r] = |(r/p)| makes C = J - I,
    which is symmetric, so the Toeplitz fill is not certified and C goes to
    Gauss-Jordan once.  Its adj(C) = (k - 1) I - J (k = n + 1, even) fails
    at (k, l) = (0, 0) with C_00 + C_nn = 2(k - 2) = p - 3: a fail row, not
    an exception.  This is the one way the check fails (its docstring)."""
    calls = spy_gauss_jordan(monkeypatch)
    ctx = PrimeContext(p)
    ctx.chi = [abs(c) for c in ctx.chi]
    r = verify_minor_antisymmetry(ctx)
    assert r.passed is False
    assert (r.name, r.lhs, r.rhs, r.detail) == ("minor_antisym", str(p - 3), "0", "(k, l) = (0, 0)")
    assert calls == [(p + 1) // 2]


def test_wrong_residue_fails_sun_congruence(monkeypatch):
    """det_mod_packed + 1 shifts the minor of every d != 0, and
    det_mod_rows + 1 the explicit rows of d = 0."""
    monkeypatch.setattr(identities, "det_mod_packed", lambda rows, q, w: (det_mod_packed(rows, q, w) + 1) % q)
    monkeypatch.setattr(identities, "det_mod_rows", lambda rows, q: (det_mod_rows(rows, q) + 1) % q)
    for d in range(13):
        r = verify_sun_congruence(13, d)
        assert r.passed is False and r.lhs != r.rhs


@pytest.mark.parametrize("name, old, new, failed", [
    ("verify_sun_congruence", "det_a * sign *", "det_a * -sign *", 12),
    ("_sun_minor", "cycles), missed,", "cycles), [0, *missed[1:]],", 12),
    ("verify_sun_congruence", "lhs = chi[d] * det_a", "lhs = det_a", 6),
    ("verify_sun_congruence", "chi[d] * det_a * sign", "chi[d] * sign", 12),
], ids=["sign-of-tau", "hit-for-missed-column", "no-legendre-factor", "no-det-a"])
def test_schur_sun_mutants_fail(monkeypatch, name, old, new, failed):
    """Negative controls for the Schur reading of the Sun check, each one
    expression of its source: tau's sign flipped; column 0, which every S
    hits (i = 0), in place of the first missed column; the (d/p) factor
    dropped; det A left out of the product.  Each gives failed rows at
    p = 13, not exceptions: every d but the dropped factor's, which fails
    at the six non-residues."""
    monkeypatch.setattr(identities, name, mutant(identities, name, old, new))
    results = [identities.verify_sun_congruence(13, d) for d in range(1, 13)]
    assert sum(not r.passed for r in results) == failed


@pytest.mark.parametrize("old, new", [
    ("det = -det", "det = det"),
    ("det * piv % q", "det * (piv * pivinv % q) % q"),
], ids=["no-swap-sign", "scaled-pivot"])
def test_sun_table_det_mutants_fail(monkeypatch, old, new):
    """Negative controls for det A, which the table's one Gauss-Jordan
    (schur_table_mod, on _eliminate_mod) reads off its pivots: the sign of
    the row swaps dropped (A[0][0] = (0/p) = 0, so step 0 always swaps),
    and each pivot read after its row is scaled to 1.  Only the table's
    elimination is mutated; the minors' det_mod_packed keeps the real one.
    Each runs and fails every d != 0 at p = 13."""
    ns = {**vars(linalg), "_eliminate_mod": mutant(linalg, "_eliminate_mod", old, new)}
    schur = types.FunctionType(linalg.schur_table_mod.__code__, ns)
    monkeypatch.setattr(identities, "schur_table_mod", schur)
    assert identities.det_mod_packed is linalg.det_mod_packed
    assert not any(identities.verify_sun_congruence(13, d).passed for d in range(1, 13))


def test_sun_fallback_matches_schur_path(monkeypatch):
    """A table whose elimination finds A singular mod p, a zero det from
    the _eliminate_mod behind schur_table_mod, is reported as (0, b, [])
    and sends every d to det_mod_rows of the explicit rows, as d = 0 always
    goes, and the lhs is the one the Schur path gives at p = 13, 17 and
    29."""
    calls = []
    monkeypatch.setattr(identities, "det_mod_rows", lambda rows, q: calls.append(q) or det_mod_rows(rows, q))
    want = {}
    for p in (13, 17, 29):
        want[p] = [verify_sun_congruence(p, d) for d in range(p)]
        assert calls == [p] and all(r.passed for r in want[p])
        calls.clear()
    ns = {**vars(linalg), "_eliminate_mod": lambda rows, width, q, w, jordan: (0, rows, [])}
    monkeypatch.setattr(identities, "schur_table_mod", types.FunctionType(linalg.schur_table_mod.__code__, ns))
    assert PrimeContext(13).sun_schur == (0, 3, [])
    for p in (13, 17, 29):
        assert [verify_sun_congruence(p, d) for d in range(p)] == want[p]
        assert calls == [p] * p
        calls.clear()


def test_wrong_determinant_fails_carlitz_and_evil(monkeypatch):
    """det_circulant + p^2 shifts Carlitz, det(A + J) / p^2, by one, and
    the toeplitz_columns determinant + 1 on C + J and C - J shifts C(1),
    C(-1) by one each, hence C(0) by one."""
    monkeypatch.setattr(identities, "det_circulant", lambda a: det_circulant(a) + len(a) ** 2)
    shift_toeplitz_dets(monkeypatch, lambda t: 1)
    for p in (7, 13, 17, 19):
        for r in (verify_carlitz(p), verify_evil(p)):
            assert r.passed is False and r.lhs != r.rhs
    assert (verify_carlitz(7).lhs, verify_carlitz(7).rhs) == ("50", "49")
    for p, lhs, rhs in ((13, "-17", "-18"), (17, "-3", "-4")):
        r = verify_evil(p)
        assert (r.lhs, r.rhs, r.detail) == (lhs, rhs, "")


def _raises(fn, pattern: str) -> bool:
    """Whether fn() raises ArithmeticError with a message matching pattern."""
    try:
        fn()
    except ArithmeticError as exc:
        return re.search(pattern, str(exc)) is not None
    return False


def carlitz_guard_trips(monkeypatch, verify) -> list[bool]:
    """Which of verify_carlitz's two guards, verify() being the function
    under test, raise on their bad input at p = 7: a Legendre table with
    (3/7) flipped, which sums to 2, and a circulant determinant of
    p^2 c + 1.  verify is called after det_circulant is patched, so that a
    mutant compiled then reads the patched kernel."""
    ctx = PrimeContext(7)
    ctx.chi = [0, 1, 1, 1, 1, -1, -1]
    trips = [_raises(lambda: verify()(ctx), "sum to 2, not 0")]
    monkeypatch.setattr(identities, "det_circulant", lambda a: det_circulant(a) + 1)
    trips.append(_raises(lambda: verify()(7), r"leaves remainder 1 mod p\^2 = 49"))
    return trips


def test_carlitz_guards_raise(monkeypatch):
    """A Legendre table that does not sum to 0, and a kernel result that
    p^2 does not divide, each raise ArithmeticError, not a failed row."""
    assert carlitz_guard_trips(monkeypatch, lambda: verify_carlitz) == [True, True]


@pytest.mark.parametrize("old, trips", [("if sum(chi):", [False, True]), ("if r:", [True, False])],
                         ids=["table-sum-guard", "remainder-guard"])
def test_carlitz_guard_mutants_fail(monkeypatch, old, trips):
    """Each guard of verify_carlitz replaced by if False: its bad input no
    longer raises its ArithmeticError (the table's reaches the remainder
    guard or a failed row, the remainder is floored away and passes), so
    test_carlitz_guards_raise fails on it; the other guard still trips."""
    def verify():
        return mutant(identities, "verify_carlitz", old, "if False:")

    assert carlitz_guard_trips(monkeypatch, verify) == trips


def test_wrong_b_fails_every_check_that_reads_it(monkeypatch):
    true_ab = identities.ab_coeffs
    monkeypatch.setattr(identities, "ab_coeffs", lambda p: replace(true_ab(p), b=true_ab(p).b + 1))
    for r in (verify_theorem(13), verify_adj_sum(13), verify_lemma_sum(13), verify_f1f2(5)):
        assert r.passed is False and r.lhs != r.rhs


def test_wrong_determinant_fails_theorem(monkeypatch):
    """The toeplitz_columns determinant + 1 on both C + J and C - J shifts
    C(x) by the constant 1, and the closed-form comparison fails."""
    shift_toeplitz_dets(monkeypatch, lambda t: 1)
    for p in (7, 13, 17, 19):
        r = verify_theorem(p)
        assert r.passed is False and r.lhs != r.rhs
    for p, lhs, rhs in ((13, "-65*x - 17", "-65*x - 18"), (17, "17*x - 3", "17*x - 4")):
        r = verify_theorem(p)
        assert (r.lhs, r.rhs, r.detail) == (lhs, rhs, "")


def test_wrong_shifted_determinant_fails_adj_sum(monkeypatch):
    """A toeplitz_columns determinant + 1 on both runs cancels in
    C(1) - C(0), so this control shifts C(1) = det(C + J) alone, the only
    Toeplitz matrix here with no negative diagonal.  The shift is 2, which
    keeps C(1) + C(-1) even and moves C(1) - C(0) by one."""
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


@pytest.mark.parametrize("fault, entry", [("delta_rotated_up", (0, 6)), ("corner_one", (0, 0))],
                         ids=["delta_rotated_up", "corner_one"])
def test_wrong_w_factor_fails_decomposition(monkeypatch, fault, entry):
    """Negative controls for W = s delta_i E'_ij delta_j at p = 13: each
    delta_i, i >= 1, rotated by +i from d_i instead of -i, or the zero
    corner of E' set to one, fails the decomposition, which names the first
    divergent entry in row-major order."""
    true_w = identities._w_packed

    def faulty(p, s, delta, rows, den):
        if fault == "delta_rotated_up":
            delta = [delta[0], *(v[-2 * i:] + v[:-2 * i] for i, v in enumerate(delta[1:], 1))]
        else:
            rows = [[rows[0][1], *rows[0][1:]], *rows[1:]]
        return true_w(p, s, delta, rows, den)

    monkeypatch.setattr(identities, "_w_packed", faulty)
    r = verify_decomposition(13)
    assert r.passed is False and r.lhs != r.rhs
    assert r.detail == f"first divergent entry (i, j) = {entry}"


def test_wrong_determinant_fails_lemma_uv(monkeypatch):
    monkeypatch.setattr(identities, "det_fractions", lambda rows: det_fractions(rows) + 1)
    r = verify_lemma_uv(2, [Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 3)])
    assert r.passed is False and r.lhs == "1188/1225" and r.rhs == "-37/1225"


def test_run_suite_computes_each_shared_value_once_per_prime(monkeypatch):
    """One context per prime: C(1) with the columns of adj(C + J), C(-1),
    Carlitz's det(A + J), a_p/b_p, n! mod p, the Sun table with its det A,
    the Cauchy-type matrix and Vsemirnov's D are each computed once, however
    many checks read them.  The certified adjugate of C reads the one C + J
    run, so the suite calls neither det_bareiss nor the Gauss-Jordan
    adjugate.  c_polynomial takes det C, det(C + J) and det(C - J) densely
    for p <= 13, and a direct call builds its own context, so nothing is
    kept between calls."""
    calls = {"det_circulant": [], "toeplitz_columns": [], "det_bareiss": [], "adjugate": [],
             "ab_coeffs": [], "build_cauchy_matrix": [], "build_vsemirnov_matrices": [], "factorial_mod": [],
             "schur_table_mod": [], "det_mod_packed": []}

    def count(name, key):
        fn = getattr(identities, name)

        def counted(*args):
            calls[name].append(key(*args))
            return fn(*args)

        monkeypatch.setattr(identities, name, counted)

    count("det_circulant", len)
    count("toeplitz_columns", lambda t, k: (k, t[k - 1]))  # order and diagonal t_0
    count("det_bareiss", lambda m: (m.rows, m.ring.name))
    count("adjugate", lambda m: m.rows)
    count("ab_coeffs", int)
    count("build_cauchy_matrix", lambda p: int(p.p))
    count("build_vsemirnov_matrices", lambda p: int(getattr(p, "p", p)))  # a context or a prime
    count("factorial_mod", lambda n, p: int(p))
    count("schur_table_mod", lambda seq, k, q: int(q))
    count("det_mod_packed", lambda rows, q, w: (int(q), len(rows)))
    assert run_suite(29, SuiteOptions(uv_trials=1)).all_passed
    assert calls["ab_coeffs"] == calls["build_cauchy_matrix"] == calls["build_vsemirnov_matrices"] == [5, 13, 17, 29]
    assert calls["factorial_mod"] == [5, 13, 17, 29]
    # one Gauss-Jordan per Sun table gives det A too: every det_mod_packed
    # is a minor, of fewer than (p + 1) / 2 rows, as each S hits column 0
    assert calls["schur_table_mod"] == [5, 13, 17, 29]
    assert calls["det_mod_packed"] and all(k < (q + 1) // 2 for q, k in calls["det_mod_packed"])
    # per prime C + J with its columns, then C - J, and the p x p circulant A + J of Carlitz
    primes = odd_primes_upto(29)
    assert calls["toeplitz_columns"] == [((p + 1) // 2, x) for p in primes for x in (1, -1)]
    assert calls["det_circulant"] == primes
    assert calls["det_bareiss"] == calls["adjugate"] == []

    for name in ("toeplitz_columns", "det_bareiss"):
        calls[name].clear()
    c_polynomial(5)
    c_polynomial(5)
    assert calls["toeplitz_columns"] == [(3, 1), (3, -1)] * 2
    assert calls["det_bareiss"] == [(3, "ZZ")] * 6


def test_run_suite_walks_each_unit_expansion_once():
    """ab_coeffs and class_number's norm guard both read the fundamental
    unit, whose PQa walk is cached: one walk for each of the 7 primes
    p = 1 (mod 4) up to 60."""
    fundamental_unit.cache_clear()
    assert run_suite(60).all_passed
    assert fundamental_unit.cache_info().misses == 7


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


def test_carlitz_past_the_int_str_digit_limit():
    """At p = 2531 both sides have 4302 digits, past the 4300 that str
    prints on CPython 3.10.7 and later, and the check still reports them."""
    r = verify_carlitz(2531)
    assert r.passed and len(r.lhs) == 4302 and r.lhs[:6] == "577127"


def test_carlitz_under_the_lowest_int_str_digit_limit(monkeypatch):
    """With str's digit limit at its floor of 640, as PYTHONINTMAXSTRDIGITS
    or -X int_max_str_digits can set it, Carlitz at p = 503 (676 digits)
    still reports, and its remainder guard still raises ArithmeticError
    rather than the ValueError of printing det(A + J)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        r = verify_carlitz(503)
        assert r.passed and len(r.lhs) == 676
        monkeypatch.setattr(identities, "det_circulant", lambda a: det_circulant(a) + 1)
        assert _raises(lambda: verify_carlitz(503), r"leaves remainder 1 mod p\^2 = 253009")
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_check_table_names_every_per_prime_check_once():
    """CHECKS names every verify_* of identities but the generic lemma_uv
    exactly once, each name resolves to a function of the module, and CAPS
    caps only listed checks, by SuiteOptions fields."""
    listed = [name for names in identities.CHECKS.values() for name in names]
    defined = [name for name in vars(identities) if name.startswith("verify_") and name != "verify_lemma_uv"]
    assert sorted(listed) == sorted(defined)
    assert all(callable(getattr(identities, name)) for name in listed)
    assert set(identities.CAPS) <= set(listed)
    assert set(identities.CAPS.values()) <= {f.name for f in fields(SuiteOptions)}


def test_run_suite_caps_prod_2j_not_minor_antisymmetry():
    """At p = 3 (mod 4) the cyclotomic cap stops prod_2j but not minor
    antisymmetry, which no cap limits."""
    report = run_suite(11, SuiteOptions(cyclo_p_max=5, decomp_p_max=5, uv_trials=1))
    names = {(c.p, c.name) for c in report.checks}
    assert (5, "prod_2j") in names and (7, "prod_2j") not in names
    assert (11, "minor_antisym") in names


def test_run_suite_runs_a_patched_check(monkeypatch):
    """The runner looks each check up in the module when it runs, so a
    check patched into identities is the one run_suite calls."""
    def broken(ctx):
        raise ArithmeticError("injected carlitz fault")

    monkeypatch.setattr(identities, "verify_carlitz", broken)
    with pytest.raises(ArithmeticError, match="injected carlitz fault"):
        run_suite(13)


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


def test_public_api_is_checks_reports_and_values():
    """legdet.__all__ is the checks, their reports and the values they
    hold; the kernels are reached through their modules, not the root."""
    assert set(legdet.__all__) == {
        "CheckResult", "SuiteOptions", "VerificationReport", "c_polynomial", "random_uv_instance",
        "run_suite", "uv_trial_checks", "verify_adj_sum", "verify_carlitz", "verify_d00_detG",
        "verify_decomposition", "verify_evil", "verify_f1f2", "verify_lemma_sum", "verify_lemma_uv",
        "verify_minor_antisymmetry", "verify_prod_2j", "verify_sun_congruence", "verify_theorem",
        "QuadElem", "UnitData", "ab_coeffs", "class_number", "fundamental_unit", "quad_pow",
        "OddPrime", "factorial_mod", "is_prime", "legendre", "odd_primes_upto",
        "as_rational", "UniPoly", "CycloElem",
    }
    for name in ("ZZ", "ExactMatrix", "Ring", "cyclo_ring", "adjugate", "det_bareiss", "det_field"):
        assert not hasattr(legdet, name) and hasattr(linalg, name)
    assert not hasattr(legdet, "zeta_pow") and hasattr(cyclotomic, "zeta_pow")
    for name in ("build_evil_matrix", "build_vsemirnov_matrices"):
        assert not hasattr(legdet, name) and hasattr(identities, name)


def test_readme_library_block_runs():
    """README's Library block, run statement by statement: an expression
    commented with an exception's name raises it, and one commented with
    a value has that repr, up to a trailing "...)"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    lines, ns, checked = block.splitlines(), {}, 0
    for stmt in ast.parse(block).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        comment = lines[stmt.end_lineno - 1].partition("  # ")[2].strip()
        if not (isinstance(stmt, ast.Expr) and comment):
            exec(code, ns)
        elif error := re.match(r"(\w+Error)\b", comment):
            with pytest.raises(getattr(builtins, error.group(1))):
                exec(code, ns)
            checked += 1
        else:
            got = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
            assert got.startswith(comment[:-4]) if comment.endswith("...)") else got == comment
            checked += 1
    assert checked == 5 and ns["report"].all_passed
