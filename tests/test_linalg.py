import math
import random
import re
import types
from fractions import Fraction
from functools import partial

import pytest

from helpers import (
    Cyclo,
    adjugate_or_oracle,
    build_carlitz_matrix,
    carlitz_toeplitz,
    circulant_matrix,
    cofactor_adjugate,
    det_gauss,
    det_mod_p_lists,
    matmul,
    mutant,
    naive_det,
    rand_int_rows,
    solve_mod_p_lists,
    toeplitz_matrix,
    zeta,
)
from legdet.cyclotomic import CycloElem, _pack, zeta_pow
from legdet import linalg
from legdet.identities import build_evil_matrix, evil_toeplitz
from legdet import identities
from legdet.linalg import (
    ZZ,
    ExactMatrix,
    adjugate,
    adjugate_fast,
    certify_adjugate,
    cyclo_ring,
    det_bareiss,
    det_circulant,
    det_field,
    det_fractions,
    det_mod_packed,
    det_mod_rows,
    mod_slot_width,
    quadratic_form_adjugate,
    schur_table_mod,
    toeplitz_adjugate,
    toeplitz_columns,
)
from legdet.ntheory import _SPRP_LIMIT, is_prime, legendre, odd_primes_upto


def sun_matrix(p: int, d: int) -> ExactMatrix:
    """[((i + d j)/p)] for 0 <= i, j <= (p-1)/2, entry by entry."""
    k = (p + 1) // 2
    return ExactMatrix(ZZ, [[legendre(i + d * j, p) for j in range(k)] for i in range(k)])


def det_mod(rows, p: int) -> int:
    """det(rows) mod p by det_mod_rows on the entries reduced mod p."""
    return det_mod_rows([[x % p for x in row] for row in rows], p)


def test_matrix_construction_and_access():
    m = ExactMatrix(ZZ, [[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] == 3
    assert ExactMatrix(ZZ, [[1, 0], [0, 1]])[1, 1] == 1
    with pytest.raises(ValueError):
        ExactMatrix(ZZ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix(ZZ, [])


def test_det_three_way_agreement():
    """Bareiss, det_fractions on (x, 1) pairs, and naive cofactor expansion
    agree on random integer matrices up to size 5."""
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randint(1, 5)
        rows = rand_int_rows(rng, k)
        d1 = det_bareiss(ExactMatrix(ZZ, rows))
        d2 = det_fractions([[(x, 1) for x in r] for r in rows])
        d3 = naive_det(rows)
        assert d1 == d2 == d3


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(1, 4)
        a = ExactMatrix(ZZ, rand_int_rows(rng, k))
        b = ExactMatrix(ZZ, rand_int_rows(rng, k))
        assert det_bareiss(matmul(a, b)) == det_bareiss(a) * det_bareiss(b)


def test_det_over_cyclotomics():
    p = 5
    r = cyclo_ring(p)
    d = ExactMatrix(r, [
        [zeta_pow(p, 1), r.zero, r.zero],
        [r.zero, zeta_pow(p, 2), r.zero],
        [r.zero, r.zero, zeta_pow(p, 3)],
    ])
    assert det_field(d) == zeta_pow(p, 6)
    assert det_field(ExactMatrix(r, [[r.one if i == j else r.zero for j in range(3)] for i in range(3)])) == r.one
    # zero pivots force row swaps in every image mod q: at the (0, 0)
    # entry, and in the second matrix at (1, 1) once column 0 is eliminated
    z = zeta(p, 1)
    assert det_field(ExactMatrix(r, [[r.zero, r.one], [r.one, z]])) == -1
    rows = [[r.one, z, r.zero], [z, z * z, r.one], [r.zero, r.one, z]]
    assert det_field(ExactMatrix(r, rows)) == naive_det(rows) == -1


def _cyclo(rng, p, bits, den_max=1):
    """A seeded Cyclo, the oracle's element, so the tests can combine them."""
    return Cyclo(p, [rng.randint(-(1 << bits), 1 << bits) for _ in range(p - 1)], rng.randint(1, den_max))


def _hadamard(rows) -> int:
    """H = prod_i ceil(sqrt(sum_j ||s_i a_ij||_1^2)), s_i the lcm of the
    denominators of row i: the bound det_field's prime must pass four
    times."""
    h = 1
    for row in rows:
        s = math.lcm(*[e.den for e in row])
        n2 = sum(sum(abs(c) * (s // e.den) for c in e.num) ** 2 for e in row)
        h *= math.isqrt(n2 - 1) + 1 if n2 else 0
    return h


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_det_field_over_cyclotomics_vs_gauss_and_cofactors(p, monkeypatch):
    """det_field over Q(zeta_p), read mod one Proth prime, against Gaussian
    elimination over the field and cofactor expansion, on seeded matrices
    with k <= 4: singular ones, 1x1 ones, zeros at (0, 0) and at (1, 1)
    after one step that force swaps, rows with denominators up to 10^6,
    and coefficients of 300 bits, whose prime has hundreds of bits.  Each
    prime exceeds 4H, H recomputed here; a zero row searches for none."""
    proth = linalg._proth_prime
    primes = []

    def spied(p, bound):
        pair = proth(p, bound)
        primes.append(pair[0])
        return pair

    monkeypatch.setattr(linalg, "_proth_prime", spied)
    rng = random.Random(p)
    r = cyclo_ring(p)
    z = zeta(p, 1)
    cases = []
    for bits, den_max, ks in ((2, 1, (2, 3, 4)), (2, 10**6, (2, 3, 4)), (300, 1, (2, 3)), (300, 10**6, (2, 3))):
        for k in ks:
            cases.append([[_cyclo(rng, p, bits, den_max) for _ in range(k)] for _ in range(k)])
    singular = [[[r.zero]]]
    for k in (2, 3, 4):  # last row a combination of rows 0 and k-2
        rows = [[_cyclo(rng, p, 3, 7) for _ in range(k)] for _ in range(k - 1)]
        a, b = _cyclo(rng, p, 2, 3), _cyclo(rng, p, 2, 3)
        singular.append(rows + [[a * x + b * y for x, y in zip(rows[0], rows[-1])]])
    singular.append([[r.one, z], [z, z * z]])
    cases += singular
    cases += [[[_cyclo(rng, p, 300, 10**6)]], [[z]], [[CycloElem.from_rational(p, Fraction(-7, 3))]]]
    cases += [[[r.zero, r.one], [r.one, z]],
              [[r.one, z, r.zero], [z, z * z, r.one], [r.zero, r.one, z]],
              [[r.zero, _cyclo(rng, p, 5, 9), r.one], [_cyclo(rng, p, 5, 9), r.zero, z], [z, z, _cyclo(rng, p, 5, 9)]]]
    for rows in cases:
        before = len(primes)
        d = det_field(ExactMatrix(r, rows))
        assert isinstance(d, CycloElem)
        assert d == det_gauss(rows) == naive_det(rows)
        assert (d == r.zero) == (rows in singular)
        h = _hadamard(rows)
        assert len(primes) - before == (h > 0)
        assert all(q > 4 * h for q in primes[before:])
    assert max(primes).bit_length() > 600


def test_det_field_over_cyclotomics_needs_the_4h_bound(monkeypatch):
    """Negative control for the 4H bound: det = c z^2 at p = 5, where
    H = c.  Read mod the Proth prime just above H instead of 4H, which is
    below 2c, the coefficient c is past half the modulus, comes out as
    c - q, and the determinant is wrong."""
    p = 5
    r = cyclo_ring(p)
    proth = linalg._proth_prime
    c = proth(p, 10**6)[0] - 1
    rows = [[CycloElem.from_rational(p, c), r.zero], [r.zero, zeta_pow(p, 2)]]
    m = ExactMatrix(r, rows)
    want = det_gauss(rows)
    assert want == c * zeta(p, 2) and _hadamard(rows) == c
    assert det_field(m) == want
    q = proth(p, c)[0]
    assert c < q < 2 * c
    monkeypatch.setattr(linalg, "_proth_prime", lambda p, bound: proth(p, bound // 4))
    assert det_field(m) == (c - q) * zeta(p, 2) != want


def test_proth_prime_is_certified():
    """For every odd p < 200 and bounds 2^8 to 2^76, _proth_prime returns
    q = 1 (mod p) above the bound and below _SPRP_LIMIT, so that the
    independent is_prime is exact on it and agrees that q is prime, and r
    of order p in F_q."""
    for p in odd_primes_upto(200):
        for b in range(8, 77):
            q, r = linalg._proth_prime(p, 1 << b)
            assert q % p == 1 and 1 << b < q < _SPRP_LIMIT
            assert is_prime(q)
            assert r != 1 and pow(r, p, q) == 1


def test_det_field_image_slots_need_their_sign_bit(monkeypatch):
    """The image slots of _det_coeffs_mod near their bound: at p = 7 the
    entries x = B (1 + z + ... + z^5) = -B z^6, B = 2^42 - 1, of
    [[x, 1], [1, x]] put bits((p - 1) B q) at 136, a whole number of
    bytes: a slot width of ceil(bits / 8) bytes, with no spare bit for the
    sign, reads a wrong determinant here."""
    coeffs = linalg._det_coeffs_mod
    bits = []

    def spied(vecs, p, q, r, real):
        bits.append(((p - 1) * max(abs(c) for row in vecs for v in row for c in v) * q).bit_length())
        return coeffs(vecs, p, q, r, real)

    monkeypatch.setattr(linalg, "_det_coeffs_mod", spied)
    p = 7
    x = CycloElem(p, [(1 << 42) - 1] * (p - 1))
    rows = [[x, CycloElem.one(p)], [CycloElem.one(p), x]]
    assert det_field(ExactMatrix(cyclo_ring(p), rows)) == det_gauss(rows)
    assert bits == [136]


def _real(rng, p, den_max):
    """A seeded element of the real subfield: c_0 + sum_e c_e (z^e + z^-e)."""
    out = Cyclo.from_rational(p, Fraction(rng.randint(-9, 9), rng.randint(1, den_max)))
    for e in range(1, (p + 1) // 2):
        out = out + Fraction(rng.randint(-9, 9), rng.randint(1, den_max)) * (zeta(p, e) + zeta(p, -e))
    return out


@pytest.mark.parametrize("p", [3, 5, 13])
def test_det_field_half_images_need_a_real_matrix(p, monkeypatch):
    """A matrix of real entries with row denominators takes the half-image
    path on its own and matches det_gauss; other matrices take every
    image.  Negative control: forced onto the half path, a matrix with one
    non-real entry comes out wrong."""
    coeffs = linalg._det_coeffs_mod
    seen = []

    def spied(vecs, p, q, r, real):
        seen.append(real)
        return coeffs(vecs, p, q, r, real)

    monkeypatch.setattr(linalg, "_det_coeffs_mod", spied)
    rng = random.Random(p)
    rows = [[_real(rng, p, 7) for _ in range(4)] for _ in range(4)]
    want = det_gauss(rows)
    assert det_field(ExactMatrix(cyclo_ring(p), rows)) == want != 0
    assert seen == [True]
    rows[2][1] = rows[2][1] + zeta_pow(p, 1)
    want = det_gauss(rows)
    assert det_field(ExactMatrix(cyclo_ring(p), rows)) == want
    assert seen == [True, False]
    monkeypatch.setattr(linalg, "_det_coeffs_mod", lambda vecs, p, q, r, real: coeffs(vecs, p, q, r, True))
    assert det_field(ExactMatrix(cyclo_ring(p), rows)) != want


def test_cyclotomic_kernels_need_no_field_multiplication(monkeypatch):
    """det_field over Q(zeta_p) works on integer vectors: with CycloElem.inv
    and its multiplication made to raise it still returns, with the
    oracle's value.  The entries are plain CycloElems, so that any product
    of them would reach the patched methods."""
    rng = random.Random(5)
    p = 13
    r = cyclo_ring(p)
    a = ExactMatrix(r, [[CycloElem(p, e.num, e.den) for e in (_cyclo(rng, p, 20, 50) for _ in range(4))]
                        for _ in range(4)])
    det = det_gauss(a.entries)

    def boom(*args):
        raise AssertionError("field multiplication called")

    for name in ("inv", "__mul__"):
        monkeypatch.setattr(CycloElem, name, boom)
    assert det_field(a) == det


def test_det_field_over_qq_vs_gauss_and_cofactors():
    """The determinant over QQ, det_fractions on the (numerator, denominator)
    pairs of the entries, fraction-free on integer-scaled rows, against
    Gaussian elimination in Fractions and cofactor expansion, k <= 6.  Beside
    seeded random matrices: rank-deficient input, 1x1 input, plain ints
    among the entries, a zero at (0, 0) that forces a row swap, and rows
    whose denominators are pairwise coprime, so a row's lcm exceeds its
    largest denominator."""
    rng = random.Random(3)

    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    cases = []
    for _ in range(40):
        k = rng.randint(1, 6)
        cases.append([[q() for _ in range(k)] for _ in range(k)])
    singular = [[[Fraction(0)]]]
    for k in (2, 3, 4, 6):  # last row a rational combination of rows 0 and k-2
        rows = [[q() for _ in range(k)] for _ in range(k - 1)]
        a, b = q(), q()
        singular.append(rows + [[a * x + b * y for x, y in zip(rows[0], rows[-1])]])
    cases += singular + [[[Fraction(-7, 3)]], [[5]]]
    cases += [[[2, 3], [5, 7]], [[1, Fraction(1, 2), 3], [Fraction(2, 3), 0, -1], [4, 5, Fraction(-1, 5)]]]
    cases += [[[Fraction(0), Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 5)]],
              [[0, 0, Fraction(1, 2)], [0, Fraction(2, 3), 1], [Fraction(3, 4), 1, 1]]]
    cases.append([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
                  [Fraction(2, 3), Fraction(3, 7), Fraction(1, 4)],
                  [Fraction(1, 5), Fraction(1, 7), Fraction(1, 9)]])
    for rows in cases:
        d = det_fractions([[(x.numerator, x.denominator) for x in row] for row in rows])
        assert isinstance(d, Fraction)
        assert d == det_gauss(rows) == naive_det(rows)
        assert (d == 0) == (rows in singular)


def test_det_fractions_vs_gauss_with_negative_and_unreduced_denominators():
    """det_fractions on rows of integer pairs (n, d) against Gaussian
    elimination in Fractions, k <= 6.  Denominators take either sign and
    pairs are left unreduced (6/-4), so s_i // d is negative for some
    entries.  A zero denominator raises instead of giving a value."""
    rng = random.Random(19)
    cases = [[[(1, -2), (3, 4)], [(6, -4), (2, 6)]], [[(0, -3), (0, 5)], [(4, -6), (2, 3)]]]
    for _ in range(60):
        k = rng.randint(1, 6)
        cases.append([[(rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(1, 6)) for _ in range(k)]
                      for _ in range(k)])
    for rows in cases:
        fractions = [[Fraction(n, d) for n, d in row] for row in rows]
        det = det_fractions(rows)
        assert isinstance(det, Fraction)
        assert det == det_gauss(fractions)
    assert det_fractions(cases[0]) == Fraction(23, 24)
    assert det_fractions(cases[1]) == 0
    for rows in ([[(5, 0)]], [[(1, 1), (1, 1)], [(1, 2), (3, 0)]]):
        with pytest.raises(ZeroDivisionError):
            det_fractions(rows)


def test_empty_matrix_has_determinant_one():
    """No rows is the 0 x 0 matrix, of determinant 1, for the integer
    Bareiss path behind det_fractions as for the elimination mod q."""
    assert det_fractions([]) == 1
    assert det_mod_rows([], 7) == 1


def test_det_usage_errors():
    rect = ExactMatrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det_bareiss(rect)
    with pytest.raises(ValueError):
        det_field(ExactMatrix(ZZ, [[1]]))  # ZZ is not a field
    # one row of two, three rows of two, and ragged rows: det_fractions
    # checks the shape itself, as no ExactMatrix wraps its rows
    for rows in ([[(1, 1), (2, 1)]], [[(1, 1), (2, 1)]] * 3, [[(1, 1), (2, 1)], [(3, 1)]]):
        with pytest.raises(ValueError, match="not all of length"):
            det_fractions(rows)


def test_kernels_refuse_rings_they_have_no_route_for():
    """det_bareiss and adjugate take integer matrices alone, and det_field
    Q(zeta_p) alone; each says which ring it was handed.  The package has
    no QQ ring, so a test-local one stands for any other."""
    r = cyclo_ring(5)
    qq = linalg.Ring("QQ", Fraction(0), Fraction(1))
    for m in (ExactMatrix(qq, [[Fraction(1, 2), 1], [1, 1]]), ExactMatrix(r, [[r.one, r.zero], [r.zero, r.one]])):
        for kernel in (det_bareiss, adjugate):
            with pytest.raises(ValueError, match=re.escape(f"got one over {m.ring.name}")):
                kernel(m)
    for ring in (qq, linalg.Ring("GF(2)", 0, 1)):
        with pytest.raises(ValueError, match=re.escape(f"no kernel over {ring.name}")):
            det_field(ExactMatrix(ring, [[ring.one]]))


def test_zz_elimination_refuses_inexact_division():
    """A ZZ matrix holding a non-integer makes a quotient inexact; the inline
    divmod raises instead of silently flooring."""
    m = ExactMatrix(ZZ, [[Fraction(1, 2), 1], [1, 1]])
    with pytest.raises(ArithmeticError):
        det_bareiss(m)
    with pytest.raises(ArithmeticError):
        adjugate(m)


def test_det_mod_p_matches_bareiss_residue():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 6)
        p = rng.choice((2, 3, 5, 7, 13, 101))
        m = ExactMatrix(ZZ, rand_int_rows(rng, k, -9, 9))
        assert det_mod(m.entries, p) == det_bareiss(m) % p
    # singular mod p with a nonzero determinant; the zero pivots mod p force swaps
    singular_mod_p = 0
    while singular_mod_p < 20:
        k = rng.randint(2, 5)
        p = rng.choice((3, 5, 7))
        m = ExactMatrix(ZZ, rand_int_rows(rng, k, -9, 9))
        det = det_bareiss(m)
        if det != 0 and det % p == 0:
            assert det_mod(m.entries, p) == 0
            singular_mod_p += 1
    m = ExactMatrix(ZZ, [[7, 2, 1], [1, 3, 4], [2, 1, 5]])
    assert det_mod(m.entries, 7) == det_bareiss(m) % 7 != 0
    for p in (5, 13, 17, 29):
        for d in range(p):
            m = sun_matrix(p, d)
            assert det_mod(m.entries, p) == det_bareiss(m) % p


def test_det_mod_p_matches_list_elimination_with_zero_pivots():
    """Entries drawn mostly from multiples of p, so pivots vanish mod p and
    the packed rows are swapped and skipped; large and negative entries too."""
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 13, 101))
        k = rng.randint(1, 9)
        rows = [[rng.choice((0, p, -p, 2 * p, rng.randint(-10**30, 10**30))) if rng.random() < 0.4
                 else p * rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        assert det_mod(rows, p) == det_mod_p_lists(rows, p)


def test_det_mod_p_matches_list_elimination_on_sun_matrices():
    for d in range(101):
        m = sun_matrix(101, d)
        assert det_mod(m.entries, 101) == det_mod_p_lists(m.entries, 101)


def gauss_jordan_packed(rows, width: int, q: int, w: int):
    """(det A, A^-1 B) over F_q from the Gauss-Jordan mode of
    linalg._eliminate_mod, looked up when called, on the k packed rows of
    [A | B], width slots each: row c of B, left times pivot c, scaled by the
    pivot's inverse as it is unpacked; (0, None) when A is singular mod q."""
    det, rows, invs = linalg._eliminate_mod(rows, width, q, w, jordan=True)
    if not det:
        return 0, None
    mask = (1 << w) - 1
    return det, [[((row >> (w * j)) & mask) * inv % q for j in range(width - len(rows))]
                 for row, inv in zip(rows, invs)]


def mod_kernels_against_lists():
    """Seeded det_mod_packed and Gauss-Jordan _eliminate_mod
    (gauss_jordan_packed) at mod_slot_width against list elimination and
    list Gauss-Jordan, for arbitrary [A | B] and q in {2, 3, 13, 101,
    2^61 - 1, 2^89 - 1}: k <= 10 and up to 4 columns of B; half the
    matrices draw from {0, 1, q - 1}, whose vanishing pivots force swaps,
    the rest from range(q), a fifth of them zero.  Singular A come up for
    every q, and a singular A gives (0, None)."""
    rng = random.Random(37)
    for q in (2, 3, 13, 101, (1 << 61) - 1, (1 << 89) - 1):
        singular = 0
        for _ in range(60):
            k, m = rng.randint(1, 10), rng.randint(0, 4)
            small = rng.random() < 0.5
            a, b = ([[rng.choice((0, 1, q - 1)) if small else rng.randrange(q) if rng.random() < 0.8 else 0
                      for _ in range(cols)] for _ in range(k)] for cols in (k, m))
            w = mod_slot_width(q, k)
            det = det_mod_p_lists(a, q)
            singular += not det
            assert det_mod_packed([_pack(row, w) for row in a], q, w) == det, (q, a)
            want = (det, solve_mod_p_lists(a, b, q)) if det else (0, None)
            assert gauss_jordan_packed([_pack(ra + rb, w) for ra, rb in zip(a, b)], k + m, q, w) == want, (q, a, b)
        assert singular > 0, q


def test_mod_kernels_match_list_elimination():
    mod_kernels_against_lists()


def test_gauss_jordan_below_the_pivot_only_fails(monkeypatch):
    """Negative control for the Gauss-Jordan mode of _eliminate_mod: each
    step reaching only the rows below the pivot, as in det mode, leaves
    A upper triangular rather than diagonal, and the list comparison
    (mod_kernels_against_lists) fails on it."""
    monkeypatch.setattr(linalg, "_eliminate_mod", mutant(linalg, "_eliminate_mod", "0 if jordan else c + 1", "c + 1"))
    with pytest.raises(AssertionError):
        mod_kernels_against_lists()


def mod_elimination_at_bound(q: int, k: int, jordan: bool):
    """Rows of the identity over a last row of q - 1 (and, for Gauss-Jordan,
    a B of zeros over a last row of q - 1) at mod_slot_width.  Each step
    pivots on a row of 0s and 1s, where every Barrett quotient is 0 and
    the packed slot over a 0 is 2q, with f = q - 1, so it adds 2(q - 1) q
    to every later slot of the last row over a 0.  A replay of that rule,
    f (2q - s + q floor(s m / 2^K)), on plain integers shows the last slot
    ending at q - 1 + 2(k - 1)(q - 1) q, below S = 2q^2 k + q.  For
    Gauss-Jordan every row above the last also holds a 1 in column k - 1,
    so the last step reduces the last row, its B slots at that bound, and
    adds it to every row above.  The elimination must give det A (and
    A^-1 B), which a carry or borrow across a slot would change, and refuse
    a width one bit short."""
    m = 3 if jordan else 0
    a = [[int(i == j or jordan and j == k - 1) for j in range(k)] for i in range(k - 1)] + [[q - 1] * k]
    b = [[0] * m for _ in range(k - 1)] + [[q - 1] * m]
    kb = (2 * q * q * k + q).bit_length()
    mb = (1 << kb) // q
    last = a[-1] + b[-1]
    for c in range(k - 1):
        f = last[c] % q
        last[c + 1:] = [x + f * (2 * q - y + q * (y * mb >> kb)) for x, y in zip(last[c + 1:], (a[c] + b[c])[c + 1:])]
    assert last[-1] == q - 1 + 2 * (k - 1) * (q - 1) * q < 2 * q * q * k + q
    w = mod_slot_width(q, k)
    rows = [_pack(ra + rb, w) for ra, rb in zip(a, b)]
    det = det_mod_p_lists(a, q)
    assert det
    if jordan:
        run, want = partial(gauss_jordan_packed, rows, k + m, q), (det, solve_mod_p_lists(a, b, q))
    else:
        run, want = partial(det_mod_packed, rows, q), det
    assert run(w) == want
    with pytest.raises(ValueError, match="slot width"):
        run(w - 1)


@pytest.mark.parametrize("jordan", [False, True], ids=["det", "gauss-jordan"])
@pytest.mark.parametrize("q, k", [(2, 7), (13, 9), (101, 51)])
def test_mod_elimination_slot_reaches_its_bound(q, k, jordan):
    """The slot bound of the _eliminate_mod docstring, q + 2(k-1)(q-1)q,
    is met in both modes (mod_elimination_at_bound)."""
    mod_elimination_at_bound(q, k, jordan)


@pytest.mark.parametrize("name, old, new, check", [
    ("_barrett", "kb = (2 * q * q * k + q).bit_length()", "kb = (2 * q * q * k + q).bit_length() - 1",
     partial(mod_elimination_at_bound, 101, 51, True)),
    ("_eliminate_mod", "2 * q * ones", "q * ones", mod_kernels_against_lists),
    ("_eliminate_mod", "(ones << (w - kb)) - ones", "(ones << (w - kb - 1)) - ones",
     partial(mod_elimination_at_bound, 101, 51, True)),
    ("_eliminate_mod", "((pr * m >> kb) & mq)", "(pr * m >> kb)", mod_kernels_against_lists),
], ids=["K-1", "2q-to-q", "mask-one-bit-short", "no-mask"])
def test_barrett_mutants_fail(monkeypatch, name, old, new, check):
    """Negative controls for the packed Barrett step of _eliminate_mod: K
    one short (the width with it), P = q R - x + q Q, whose slots may be
    negative, a quotient mask one bit short, and no mask, which lets the
    low bits of the next slot's product into each quotient.  Each fails
    the seeded list comparison or the Gauss-Jordan run at the slot bound
    for q = 101, k = 51, whose slots reach the Barrett quotients that the
    short K and the short mask get wrong."""
    monkeypatch.setattr(linalg, name, mutant(linalg, name, old, new))
    with pytest.raises(AssertionError):
        check()


def test_det_mod_packed_refuses_a_slot_below_its_bound():
    """The width is checked, not assumed: one bit short of mod_slot_width
    is refused, and mod_slot_width is K + bitlen(m), K = bitlen(S) for the
    slot bound S = 2q^2 k + q and m = floor(2^K / q), the least w with
    2^K m < 2^w, so that s m < 2^w for every s < 2^K."""
    for q, k in ((2, 1), (13, 9), (101, 51), ((1 << 61) - 1, 14)):
        w = mod_slot_width(q, k)
        kb = (2 * q * q * k + q).bit_length()
        mb = (1 << kb) // q
        assert w == kb + mb.bit_length()
        assert mb << kb < 1 << w <= mb << (kb + 1)
        rows = [1 << (w * i) for i in range(k)]  # the identity, packed
        assert det_mod_packed(rows, q, w) == 1
        with pytest.raises(ValueError, match="slot width"):
            det_mod_packed(rows, q, w - 1)


def test_schur_table_mod_matches_list_gauss_jordan_on_windows():
    """Seeded sequences, k <= 8 windows of width k + m, m <= 5, for q in
    {2, 13, 101, 2^61 - 1}, half of them drawn from {0, 1, q - 1}:
    schur_table_mod against det_mod_p_lists and solve_mod_p_lists on the
    explicit windows [A | B], each entry of A^-1 B as b little-endian bytes
    for the b of mod_slot_width(q, k), and (0, b, []) for a singular A,
    which comes up for every q."""
    rng = random.Random(40)
    for q in (2, 13, 101, (1 << 61) - 1):
        singular = 0
        for _ in range(50):
            k, m = rng.randint(1, 8), rng.randint(0, 5)
            small = rng.random() < 0.5
            seq = [rng.choice((0, 1, q - 1)) if small else rng.randrange(q) for _ in range(2 * k + m - 1)]
            windows = [seq[r:r + k + m] for r in range(k)]
            a, bt = [w[:k] for w in windows], [w[k:] for w in windows]
            b = -(-mod_slot_width(q, k) // 8)
            det = det_mod_p_lists(a, q)
            singular += not det
            want = [tuple(x.to_bytes(b, "little") for x in row) for row in solve_mod_p_lists(a, bt, q)] if det else []
            assert schur_table_mod(seq, k, q) == (det, b, want), (q, k, seq)
        assert singular > 0, q


def test_sun_tables_agree_with_explicit_matrices():
    """For every p = 1 (mod 4) up to 200 and every d, the left side of the
    Sun check, read from the Schur-complement table as (d/p) det A
    sgn(tau) det M (or, for d = 0, det_mod_rows of its explicit rows),
    equals det_mod_rows of [((i + d j)/p)] built entry by entry."""
    for p in odd_primes_upto(200):
        if p % 4 != 1:
            continue
        ctx = identities.PrimeContext(p)
        chi = [legendre(r, p) for r in range(p)]
        k = (p + 1) // 2
        for d in range(p):
            want = det_mod([[chi[(i + d * j) % p] for j in range(k)] for i in range(k)], p)
            assert identities.verify_sun_congruence(ctx, d).lhs == str(want), (p, d)


def test_toeplitz_adjugate_matches_gauss_jordan_on_random_matrices():
    """Seeded integer Toeplitz matrices, k <= 8, entries in [-3, 3]: the
    columns and determinant of toeplitz_columns, and the Trench fill when
    F_0 != 0, against Gauss-Jordan adjugate (which refuses a singular
    matrix, whose columns meet the cofactor oracle instead); a vanishing
    divisor gives no columns and a vanishing F_0 no fill, and both
    happen."""
    rng = random.Random(16)
    filled = no_columns = no_fill = 0
    for _ in range(500):
        k = rng.randint(1, 8)
        t = [rng.randint(-3, 3) for _ in range(2 * k - 1)]
        m = toeplitz_matrix(t, k)
        det, f, b = toeplitz_columns(t, k)
        assert det == det_bareiss(m)
        if f is None:
            no_columns += 1
            continue
        adj = adjugate_or_oracle(m)
        assert f == [adj[i, 0] for i in range(k)] and b == [adj[i, k - 1] for i in range(k)]
        rows = toeplitz_adjugate(f, b)
        if rows is None:
            assert f[0] == 0
            no_fill += 1
            continue
        assert ExactMatrix(ZZ, rows) == adj, (t, k)
        filled += 1
    assert filled > 300 and no_columns > 20 and no_fill > 10


def test_certify_adjugate():
    """C X = d I exactly, on packed rows.  C = [[1, 1], [1, 1]], d = 0 and
    X = [[2, 0], [2, -1]] give C X = [[4, -1], [4, -1]], which packs to 0
    at slot width 2, as 4 - 1 * 2^2 = 0; the width kM + |d| = 4 needs,
    bitlen 3, tells it apart."""
    c = build_evil_matrix(7)
    adj = [list(row) for row in adjugate(c).entries]
    assert certify_adjugate(c, adj, 1)
    assert not certify_adjugate(c, adj, 2)
    assert not certify_adjugate(c, [[2 * x for x in row] for row in adj], 1)
    assert certify_adjugate(c, [[2 * x for x in row] for row in adj], 2)
    bumped = [list(row) for row in adj]
    bumped[3][1] += 1
    assert not certify_adjugate(c, bumped, 1)
    assert not certify_adjugate(ExactMatrix(ZZ, [[1, 1], [1, 1]]), [[2, 0], [2, -1]], 0)
    assert certify_adjugate(ExactMatrix(ZZ, [[1, 1], [1, 1]]), [[1, -1], [-1, 1]], 0)
    # entries other than 0 and +-1 are multiplied in: [[2]] [[1]] = 2 I
    assert certify_adjugate(ExactMatrix(ZZ, [[2]]), [[1]], 2)
    assert not certify_adjugate(ExactMatrix(ZZ, [[2]]), [[1]], 1)


def test_certify_adjugate_on_seeded_integer_matrices():
    """C with entries in [-9, 9], k <= 6: X = adj(C) passes at d = det C,
    and fails with one entry off by one and at d + 1.  The width counts the
    l1 norm r of C's rows, not the order k: C = [[-3, 1], [0, 1]] and X = I,
    d = 1, have row 0 of C X = [-3, 1], which packs to -3 + 1 * 2^2 = 1 = d
    at the width bitlen(k M + |d|) = 2 that rows of 0 and +-1 would take, a
    false pass; r = 4 gives width bitlen(r M + |d|) = 3 and tells it
    apart."""
    rng = random.Random(41)
    for _ in range(200):
        k = rng.randint(1, 6)
        c = ExactMatrix(ZZ, rand_int_rows(rng, k, -9, 9))
        d = det_bareiss(c)
        if not d:
            continue
        adj = [list(row) for row in adjugate(c).entries]
        assert certify_adjugate(c, adj, d)
        assert not certify_adjugate(c, adj, d + 1)
        bumped = [list(row) for row in adj]
        bumped[rng.randrange(k)][rng.randrange(k)] += 1
        assert not certify_adjugate(c, bumped, d)
    assert not certify_adjugate(ExactMatrix(ZZ, [[-3, 1], [0, 1]]), [[1, 0], [0, 1]], 1)


def test_certify_adjugate_width_counts_negative_entries():
    """M is the largest |X| even when it is a negative entry: X = [[-3, 1],
    [0, 1]] against C = I, d = 1 packs row 0 to -3 + 1 * 2^2 = 1 at the
    width 2 that the positive entries alone would give, a false pass; M = 3
    gives width 3 and tells it apart."""
    assert not certify_adjugate(ExactMatrix(ZZ, [[1, 0], [0, 1]]), [[-3, 1], [0, 1]], 1)
    assert certify_adjugate(ExactMatrix(ZZ, [[1, 0], [0, 1]]), [[1, 0], [0, 1]], 1)


def test_det_mode_takes_no_inverse_of_the_last_pivot():
    """_eliminate_mod without jordan reads the last pivot into det alone:
    invs holds k - 1 pivot inverses, against k with jordan, and the two
    modes give the same det, 0 included, from 1 x 1 up."""
    rng = random.Random(5)
    q = 101
    for k in range(1, 7):
        w = mod_slot_width(q, k)
        for _ in range(20):
            a = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
            if rng.random() < 0.3:
                a[-1] = a[0][:]
            rows = [_pack(row, w) for row in a]
            det, _, invs = linalg._eliminate_mod(rows, k, q, w, jordan=False)
            det_j, _, invs_j = linalg._eliminate_mod(rows, k, q, w, jordan=True)
            assert det == det_j == det_mod_p_lists(a, q), (k, a)
            if det:
                assert (len(invs), len(invs_j)) == (k - 1, k)

def test_adjugate_formulas():
    m = ExactMatrix(ZZ, [[3, 5], [-2, 7]])
    assert adjugate(m) == ExactMatrix(ZZ, [[7, -5], [2, 3]])
    assert adjugate(ExactMatrix(ZZ, [[42]])) == ExactMatrix(ZZ, [[1]])


def test_adjugate_definitional_identity():
    """M adj(M) = adj(M) M = det(M) I, adj(M) the cofactor oracle's where
    adjugate refuses a singular M."""
    rng = random.Random(4)
    for _ in range(25):
        k = rng.randint(1, 4)
        m = ExactMatrix(ZZ, rand_int_rows(rng, k))
        d = det_bareiss(m)
        d_times_identity = ExactMatrix(ZZ, [[d if i == j else 0 for j in range(k)] for i in range(k)])
        adj = adjugate_or_oracle(m)
        assert matmul(m, adj) == d_times_identity
        assert matmul(adj, m) == d_times_identity


def test_adjugate_multiplicativity():
    """adj(AB) = adj(B) adj(A) on 50 random pairs, each singular factor's
    adjugate the cofactor oracle's."""
    rng = random.Random(6)
    for _ in range(50):
        k = rng.randint(1, 4)
        a = ExactMatrix(ZZ, rand_int_rows(rng, k, -3, 3))
        b = ExactMatrix(ZZ, rand_int_rows(rng, k, -3, 3))
        assert adjugate_or_oracle(matmul(a, b)) == matmul(adjugate_or_oracle(b), adjugate_or_oracle(a))


def test_adjugate_fast_agrees_with_cofactors():
    """Nonsingular draws against the cofactor oracle; singular ones, and a
    rank-two 3x3, raise ValueError."""
    assert adjugate_fast is adjugate
    rng = random.Random(8)
    for _ in range(40):
        k = rng.randint(1, 5)
        m = ExactMatrix(ZZ, rand_int_rows(rng, k, -3, 3))
        assert adjugate_or_oracle(m) == cofactor_adjugate(m)
    s = ExactMatrix(ZZ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert det_bareiss(s) == 0
    with pytest.raises(ValueError, match="singular 3x3"):
        adjugate(s)


def _random_of_rank(rng, ring, k, rank):
    """A k x k matrix B C with B k x rank and C rank x k; rank at most
    `rank`.  Entries of B and C are small integers."""
    if rank == 0:
        return ExactMatrix(ring, [[ring.zero] * k for _ in range(k)])
    b = ExactMatrix(ring, [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(k)])
    c = ExactMatrix(ring, [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rank)])
    return matmul(b, c)


@pytest.mark.parametrize("ring", [ZZ], ids=["ZZ"])
def test_adjugate_matches_cofactor_oracle_at_every_rank(ring):
    """Full rank takes the Gauss-Jordan route; rank k-1 (oracle adjugate of
    rank one) and rank <= k-2 (oracle adjugate zero) raise ValueError."""
    rng = random.Random(10)
    for k in range(1, 7):
        for rank in sorted({k, k - 1, max(k - 2, 0), 0}):
            for _ in range(3):
                while True:
                    m = _random_of_rank(rng, ring, k, rank)
                    oracle = cofactor_adjugate(m)
                    adj_is_zero = all(x == 0 for row in oracle.entries for x in row)
                    # redraw until full rank and rank k-1 are exact
                    if not (rank == k and det_bareiss(m) == 0 or rank == k - 1 and adj_is_zero):
                        break
                assert adjugate_or_oracle(m) == oracle
                assert adj_is_zero == (rank < k - 1)


def test_adjugate_row_swaps():
    """A zero leading pivot forces a swap; in the second matrix a zero
    pivot at the next step forces another, so the sign returns to +1."""
    for rows, det in (([[0, 1], [1, 0]], -1), ([[0, 0, 1], [1, 2, 3], [2, 5, 5]], 1)):
        m = ExactMatrix(ZZ, rows)
        assert det_bareiss(m) == det
        adj = adjugate(m)
        assert adj == cofactor_adjugate(m)
        assert matmul(m, adj) == ExactMatrix(ZZ, [[det if i == j else 0 for j in range(m.rows)] for i in range(m.rows)])


def test_adjugate_of_evil_matrices():
    for p in odd_primes_upto(23):
        m = build_evil_matrix(p)
        assert adjugate(m) == cofactor_adjugate(m)


@pytest.mark.parametrize("ring", [ZZ], ids=["ZZ"])
def test_matrix_determinant_lemma(ring):
    """det(H + u v^T) = det H + v^T adj(H) u on 100 random integer
    instances, adj(H) the cofactor oracle's for a singular H."""
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(1, 6)
        h = ExactMatrix(ring, rand_int_rows(rng, k))
        u = [rng.randint(-5, 5) for _ in range(k)]
        v = [rng.randint(-5, 5) for _ in range(k)]
        adj = adjugate_or_oracle(h)
        direct = sum(v[i] * adj[i, j] * u[j] for i in range(k) for j in range(k))
        assert quadratic_form_adjugate(h, u, v) == direct


def test_quadratic_form_1x1_and_errors():
    h = ExactMatrix(ZZ, [[17]])
    assert quadratic_form_adjugate(h, [1], [1]) == 1
    with pytest.raises(ValueError):
        quadratic_form_adjugate(h, [1, 2], [1])


def test_det_toeplitz_matches_bareiss_on_random_matrices(monkeypatch):
    """Seeded integer Toeplitz matrices, k <= 9, entries in [-2, 2].  Small
    entries make leading minors vanish often, so both the Levinson-Trench
    steps and the Bareiss fallback are exercised, and each is counted."""
    fallbacks = []
    det_rows = linalg._det_rows

    def counted(a):
        fallbacks.append(len(a))
        return det_rows(a)

    rng = random.Random(12)
    singular = fast = 0
    for _ in range(600):
        k = rng.randint(1, 9)
        t = [rng.randint(-2, 2) for _ in range(2 * k - 1)]
        before = len(fallbacks)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_det_rows", counted)
            got = toeplitz_columns(t, k)[0]
        det = det_bareiss(toeplitz_matrix(t, k))
        assert got == det, (t, k)
        fast += len(fallbacks) == before
        singular += det == 0
    assert len(fallbacks) > 50 and fast > 300 and singular > 20
    assert set(fallbacks) >= set(range(3, 10))


def test_det_toeplitz_small_cases_and_errors():
    def det(t, k):
        return toeplitz_columns(t, k)[0]

    assert det([5], 1) == 5
    assert det([0], 1) == 0
    # [[t0, t1], [t-1, t0]]
    assert det([3, 2, 7], 2) == 2 * 2 - 7 * 3
    # t_0 = 0: D_1 vanishes and the fallback pivots
    assert det([1, 0, 1], 2) == -1
    assert det([2, 0, 1, 0, 3], 3) == det_bareiss(toeplitz_matrix([2, 0, 1, 0, 3], 3))
    with pytest.raises(ValueError):
        det([1, 2], 2)
    with pytest.raises(ValueError):
        det([], 0)
    with pytest.raises(ArithmeticError):
        det([1, Fraction(1, 2), 1], 2)


def test_det_toeplitz_agrees_on_carlitz_and_evil_without_fallback(monkeypatch):
    """For every odd p <= 100: T = [((j-i-1)/p)] against the Carlitz matrix
    and against T itself by Bareiss, and C +- J against Bareiss.  The
    Toeplitz runs have the fallback disabled: no leading minor vanishes."""
    def forbidden(a):
        raise AssertionError(f"fallback on a {len(a)}x{len(a)} matrix")

    for p in odd_primes_upto(100):
        n = (p - 1) // 2
        t = carlitz_toeplitz(p)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_det_rows", forbidden)
            carlitz = toeplitz_columns(t, p - 1)[0]
            plus = toeplitz_columns(evil_toeplitz(p, 1), n + 1)[0]
            minus = toeplitz_columns(evil_toeplitz(p, -1), n + 1)[0]
        assert carlitz == p ** ((p - 3) // 2)
        assert det_bareiss(build_carlitz_matrix(p)) == carlitz
        assert det_bareiss(toeplitz_matrix(t, p - 1)) == carlitz
        c = build_evil_matrix(p)
        for x, det in ((1, plus), (-1, minus)):
            assert det_bareiss(ExactMatrix(ZZ, [[e + x for e in row] for row in c.entries])) == det


def seeded_circulants():
    """(a, det) for seeded circulants at every odd prime p <= 31, entries
    drawn from [0, 2], [0, 2^8], [0, 2^40] and [-2^20, 2^20], det by
    Bareiss on the explicit matrix; the signed draws reach the slot shift
    by min a and the lift to (-Phi/2, Phi/2]."""
    rng = random.Random(28)
    cases = []
    for p in odd_primes_upto(31):
        for lo, hi in ((0, 2), (0, 1 << 8), (0, 1 << 40), (-(1 << 20), 1 << 20)):
            a = [rng.randint(lo, hi) for _ in range(p)]
            cases.append((a, det_bareiss(circulant_matrix(a))))
    return cases


# (p, c) with det Circ(c e_k) = c^p = H, the Hadamard bound itself, where
# 2^(2L(p-1)) >= H^2 holds at a smaller L = 8b than 2^(2L(p-1)) >= 4H^2
HADAMARD_TIGHT = ((3, 33), (3, (1 << 16) - 1), (3, 1 << 16), (5, 1 << 32), (7, 1 << 48), (11, (1 << 29) + 1))


def hadamard_tight():
    """(a, c^p) for a = c e_k, every k: c times the cyclic shift by k, a
    p-cycle or the identity, of sign +1 for odd p."""
    return [([c * (j == k) for j in range(p)], c ** p) for p, c in HADAMARD_TIGHT for k in range(p)]


def test_det_circulant_matches_bareiss_on_seeded_circulants():
    for a, det in seeded_circulants():
        assert det_circulant(a) == det, a
    assert det_circulant([0] * 7) == det_circulant([5] * 7) == 0
    assert det_circulant([1, 1, 0]) == 2 and det_circulant([-1, 0, 0]) == -1


def test_det_circulant_is_exact_at_the_hadamard_bound():
    for a, det in hadamard_tight():
        assert det_circulant(a) == det, a


def test_det_circulant_refuses_other_orders():
    for a in ([], [1], [1, 2], [1] * 4, [1] * 9, [1] * 15):
        with pytest.raises(ValueError, match=f"^{len(a)} is not an odd prime$"):
            det_circulant(a)


@pytest.mark.parametrize("old, new, cases", [
    ("4 * sum(x * x for x in a) ** p", "sum(x * x for x in a) ** p", hadamard_tight),
    (", sum(a)", ", 1", seeded_circulants),
    ("(phi := ((1 << lp) - 1) // ((1 << 8 * b) - 1))", "(phi := (1 << lp) - 1)", seeded_circulants),
], ids=["bound-without-4", "s0-factor-dropped", "mod-2^Lp-1"])
def test_det_circulant_mutants_fail(old, new, cases):
    """Negative controls, each one expression of det_circulant, each wrong
    on the cases of the test named: the bound weakened to 2^(2L(p-1)) >=
    H^2 (the Hadamard-tight test), the s = 0 factor a(1) dropped, and the
    residue taken mod 2^(Lp) - 1 instead of Phi_p(2^L) (the seeded test).
    Slot sj built from a_j, the factor of s, in place of slot k from
    a_(ks), the factor of s^-1, is an equivalent mutant and not listed:
    the product runs over every s != 0, and s^-1 runs over them too."""
    bad = mutant(linalg, "det_circulant", old, new)
    assert any(bad(a) != det for a, det in cases())


def certified_adjugate_without_fallback(monkeypatch):
    """For every prime p = 3 (mod 4) up to 200, PrimeContext.evil_adjugate
    with the Gauss-Jordan fallback disabled, against Gauss-Jordan adjugate
    of C."""
    def forbidden(m):
        raise AssertionError(f"Gauss-Jordan fallback on a {m.rows}x{m.rows} matrix")

    for p in odd_primes_upto(200):
        if p % 4 != 3:
            continue
        ctx = identities.PrimeContext(p)
        with monkeypatch.context() as mp:
            mp.setattr(identities, "adjugate", forbidden)
            got = ctx.evil_adjugate
        assert got == adjugate(build_evil_matrix(p)), p


def test_certified_evil_adjugate_agrees_with_gauss_jordan_without_fallback(monkeypatch):
    """For every prime p = 3 (mod 4) up to 200, PrimeContext.evil_adjugate,
    the antisymmetric part of the Toeplitz adjugate of C + J under the
    certificate, equals Gauss-Jordan adjugate of C.  The fallback is
    disabled: no divisor, F_0 or det C vanishes, and every certificate
    holds."""
    certified_adjugate_without_fallback(monkeypatch)


@pytest.mark.parametrize("old, new", [("(u - v) >> 1", "(u + v) >> 1"), ("zip(*a)", "a"),
                                      ("(u - v) >> 1", "(u - v)")],
                         ids=["sum-for-difference", "no-transpose", "no-halving"])
def test_antisymmetric_part_mutants_reach_gauss_jordan(monkeypatch, old, new):
    """Negative controls for adj(C) as the antisymmetric part of
    adj(A), A = C + J, which leaves the certificate as the one guard:
    the symmetric part (u + v) in place of the difference, adj(A) paired
    with itself in place of its transpose, and 2 adj(C) with the halving
    dropped.  Each X fails C X = c0 I, so at p = 19 C reaches
    Gauss-Jordan and the adjugate is still right, and the without-fallback
    sweep above fails on it.  The mutant runs on the module's own globals,
    so that the spy and the sweep reach the adjugate it falls back to."""
    bad = mutant(identities, "PrimeContext.evil_adjugate", old, new).func
    monkeypatch.setattr(identities.PrimeContext, "evil_adjugate",
                        property(types.FunctionType(bad.__code__, vars(identities))))
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(identities, "adjugate", lambda m: calls.append(m.rows) or adjugate(m))
        assert identities.PrimeContext(19).evil_adjugate == adjugate(build_evil_matrix(19))
    assert calls == [10]
    with pytest.raises(AssertionError, match="Gauss-Jordan fallback"):
        certified_adjugate_without_fallback(monkeypatch)
