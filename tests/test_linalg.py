import random
import re
from fractions import Fraction

import pytest

from helpers import (
    cofactor_adjugate,
    det_gauss,
    det_mod_p_lists,
    matmul_entrywise,
    naive_det,
    rand_int_rows,
    toeplitz_matrix,
)
from legdet.cyclotomic import CycloElem, zeta_pow
from legdet import linalg
from legdet.identities import (
    build_carlitz_matrix,
    build_evil_matrix,
    carlitz_toeplitz,
    evil_toeplitz,
)
from legdet import identities
from legdet.linalg import (
    QQ,
    ZZ,
    ExactMatrix,
    adjugate,
    adjugate_fast,
    certify_adjugate,
    cyclo_ring,
    det_bareiss,
    det_field,
    det_mod_p,
    det_mod_packed,
    det_toeplitz,
    mod_slot_width,
    pack_windows,
    quadratic_form_adjugate,
    toeplitz_adjugate,
    toeplitz_columns,
)
from legdet.ntheory import legendre, odd_primes_upto


def sun_matrix(p: int, d: int) -> ExactMatrix:
    """[((i + d j)/p)] for 0 <= i, j <= (p-1)/2, entry by entry."""
    k = (p + 1) // 2
    return ExactMatrix(ZZ, [[legendre(i + d * j, p) for j in range(k)] for i in range(k)])


def test_matrix_construction_and_access():
    m = ExactMatrix(ZZ, [[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] == 3
    assert ExactMatrix(ZZ, [[1, 0], [0, 1]])[1, 1] == 1
    with pytest.raises(ValueError):
        ExactMatrix(ZZ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix(ZZ, [])


def test_matmul_and_add():
    a = ExactMatrix(ZZ, [[1, 2], [3, 4]])
    i2 = ExactMatrix(ZZ, [[1, 0], [0, 1]])
    assert i2 @ a == a and a @ i2 == a
    d1 = ExactMatrix(ZZ, [[2, 0], [0, 3]])
    d2 = ExactMatrix(ZZ, [[5, 0], [0, 7]])
    assert d1 @ d2 == ExactMatrix(ZZ, [[10, 0], [0, 21]])
    with pytest.raises(ValueError):
        a @ ExactMatrix(ZZ, [[1, 2, 3]])


def test_det_three_way_agreement():
    """Bareiss, det_field over QQ, and naive cofactor expansion agree on
    random integer matrices up to size 5."""
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randint(1, 5)
        rows = rand_int_rows(rng, k)
        d1 = det_bareiss(ExactMatrix(ZZ, rows))
        d2 = det_field(ExactMatrix(QQ, [[Fraction(x) for x in r] for r in rows]))
        d3 = naive_det(rows)
        assert d1 == d2 == d3


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(1, 4)
        a = ExactMatrix(ZZ, rand_int_rows(rng, k))
        b = ExactMatrix(ZZ, rand_int_rows(rng, k))
        assert det_bareiss(a @ b) == det_bareiss(a) * det_bareiss(b)


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
    z = zeta_pow(p, 1)
    assert det_field(ExactMatrix(r, [[r.zero, r.one], [r.one, z]])) == -r.one
    rows = [[r.one, z, r.zero], [z, z * z, r.one], [r.zero, r.one, z]]
    assert det_field(ExactMatrix(r, rows)) == naive_det(rows) == -r.one


def _cyclo(rng, p, bits, den_max=1):
    return CycloElem(p, [rng.randint(-(1 << bits), 1 << bits) for _ in range(p - 1)], rng.randint(1, den_max))


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_det_field_over_cyclotomics_vs_gauss_and_cofactors(p, monkeypatch):
    """det_field over Q(zeta_p), a CRT over split primes, against Gaussian
    elimination over the field and cofactor expansion, on seeded matrices
    with k <= 4: singular ones, 1x1 ones, zeros at (0, 0) and at (1, 1)
    after one step that force swaps, rows with denominators up to 10^6,
    and coefficients of 300 bits, for which several primes are needed."""
    split = linalg._split_primes
    counts = []

    def counted(p, bound):
        primes = split(p, bound)
        counts.append(len(primes))
        return primes

    monkeypatch.setattr(linalg, "_split_primes", counted)
    rng = random.Random(p)
    r = cyclo_ring(p)
    z = zeta_pow(p, 1)
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
        d = det_field(ExactMatrix(r, rows))
        assert isinstance(d, CycloElem)
        assert d == det_gauss(rows) == naive_det(rows)
        assert (d == r.zero) == (rows in singular)
    assert max(counts) >= 10


def test_det_field_over_cyclotomics_needs_every_prime(monkeypatch):
    """Negative control for the 4H bound: det = (q1 - 1) z^2 for the first
    split prime q1 at p = 5.  H = q1 - 1, so the primes must pass
    4 (q1 - 1) > q1 and two are taken; cut one short, the one prime left
    reads the coefficient q1 - 1 as -1 and the determinant comes out
    wrong."""
    p = 5
    r = cyclo_ring(p)
    split = linalg._split_primes
    q1 = split(p, 1)[0][0]
    rows = [[CycloElem.from_rational(p, q1 - 1), r.zero], [r.zero, zeta_pow(p, 2)]]
    m = ExactMatrix(r, rows)
    want = det_gauss(rows)
    assert want == (q1 - 1) * zeta_pow(p, 2)
    assert det_field(m) == want
    assert len(split(p, 4 * (q1 - 1))) == 2
    monkeypatch.setattr(linalg, "_split_primes", lambda p, bound: split(p, bound)[:-1])
    assert det_field(m) == -zeta_pow(p, 2) != want


def test_cyclotomic_kernels_need_no_field_multiplication(monkeypatch):
    """det_field and @ over Q(zeta_p) work on integer vectors: with
    CycloElem.inv and its multiplication made to raise they still return,
    with the oracles' values."""
    rng = random.Random(5)
    p = 13
    r = cyclo_ring(p)
    a = ExactMatrix(r, [[_cyclo(rng, p, 20, 50) for _ in range(4)] for _ in range(4)])
    b = ExactMatrix(r, [[_cyclo(rng, p, 20, 50) for _ in range(3)] for _ in range(4)])
    det, product = det_gauss(a.entries), matmul_entrywise(a, b)

    def boom(*args):
        raise AssertionError("field multiplication called")

    for name in ("inv", "__mul__", "__rmul__"):
        monkeypatch.setattr(CycloElem, name, boom)
    assert det_field(a) == det
    assert (a @ b).entries == tuple(map(tuple, product))


@pytest.mark.parametrize("p", [3, 7, 13])
def test_cyclotomic_matmul_slot_reaches_its_bound(p):
    """@ over Q(zeta_p) against the entrywise product.  With every entry
    of A the vector of all M = 2^t - 1 and every entry of B all +-M, slot
    p-2 of each output's plain sum holds k (p-1) M^2 in size, the bound of
    the cyclotomic._dot_vecs docstring, at every slot width in play; seeded
    matrices with denominators beside."""
    r = cyclo_ring(p)
    k = 3
    for t in list(range(1, 70)) + [300]:
        m = (1 << t) - 1
        for sign in (1, -1):
            a = ExactMatrix(r, [[CycloElem(p, [m] * (p - 1))] * k] * k)
            b = ExactMatrix(r, [[CycloElem(p, [sign * m] * (p - 1))] * k] * k)
            assert (a @ b).entries == tuple(map(tuple, matmul_entrywise(a, b)))
    rng = random.Random(p)
    for bits in (1, 40, 300):
        a = ExactMatrix(r, [[_cyclo(rng, p, bits, 30) for _ in range(3)] for _ in range(2)])
        b = ExactMatrix(r, [[_cyclo(rng, p, bits, 30) for _ in range(4)] for _ in range(3)])
        assert (a @ b).entries == tuple(map(tuple, matmul_entrywise(a, b)))


def test_det_field_over_qq_vs_gauss_and_cofactors():
    """det_field over QQ, fraction-free on integer-scaled rows, against
    Gaussian elimination in Fractions and cofactor expansion, k <= 6.  Beside
    seeded random matrices: rank-deficient input, 1x1 input, plain ints in a
    QQ matrix, a zero at (0, 0) that forces a row swap, and rows whose
    denominators are pairwise coprime, so a row's lcm exceeds its largest
    denominator."""
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
        d = det_field(ExactMatrix(QQ, rows))
        assert isinstance(d, Fraction)
        assert d == det_gauss(rows) == naive_det(rows)
        assert (d == 0) == (rows in singular)


def test_det_usage_errors():
    rect = ExactMatrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det_bareiss(rect)
    with pytest.raises(ValueError):
        det_field(ExactMatrix(QQ, [[Fraction(1), Fraction(2)]]))
    with pytest.raises(ValueError):
        det_field(ExactMatrix(ZZ, [[1]]))  # ZZ is not a field
    with pytest.raises(ValueError):
        det_mod_p(rect, 5)


def test_kernels_refuse_rings_they_have_no_route_for():
    """det_bareiss, adjugate and det_mod_p take integer matrices alone, and
    say which ring they were handed; det_field takes QQ and Q(zeta_p)
    alone."""
    r = cyclo_ring(5)
    for m in (ExactMatrix(QQ, [[Fraction(1, 2), 1], [1, 1]]), ExactMatrix(r, [[r.one, r.zero], [r.zero, r.one]])):
        for kernel in (det_bareiss, adjugate, lambda m: det_mod_p(m, 5)):
            with pytest.raises(ValueError, match=re.escape(f"got one over {m.ring.name}")):
                kernel(m)
    with pytest.raises(ValueError, match="GF"):
        det_field(ExactMatrix(linalg.Ring("GF(2)", 0, 1), [[1]]))


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
        assert det_mod_p(m, p) == det_bareiss(m) % p
    # singular mod p with a nonzero determinant; the zero pivots mod p force swaps
    singular_mod_p = 0
    while singular_mod_p < 20:
        k = rng.randint(2, 5)
        p = rng.choice((3, 5, 7))
        m = ExactMatrix(ZZ, rand_int_rows(rng, k, -9, 9))
        det = det_bareiss(m)
        if det != 0 and det % p == 0:
            assert det_mod_p(m, p) == 0
            singular_mod_p += 1
    m = ExactMatrix(ZZ, [[7, 2, 1], [1, 3, 4], [2, 1, 5]])
    assert det_mod_p(m, 7) == det_bareiss(m) % 7 != 0
    for p in (5, 13, 17, 29):
        for d in range(p):
            m = sun_matrix(p, d)
            assert det_mod_p(m, p) == det_bareiss(m) % p


def test_det_mod_p_matches_list_elimination_with_zero_pivots():
    """Entries drawn mostly from multiples of p, so pivots vanish mod p and
    the packed rows are swapped and skipped; large and negative entries too."""
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 13, 101))
        k = rng.randint(1, 9)
        rows = [[rng.choice((0, p, -p, 2 * p, rng.randint(-10**30, 10**30))) if rng.random() < 0.4
                 else p * rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        assert det_mod_p(ExactMatrix(ZZ, rows), p) == det_mod_p_lists(rows, p)


def test_det_mod_p_matches_list_elimination_on_sun_matrices():
    for d in range(101):
        m = sun_matrix(101, d)
        assert det_mod_p(m, 101) == det_mod_p_lists(m.entries, 101)


@pytest.mark.parametrize("p, k", [(2, 7), (13, 9), (101, 51)])
def test_det_mod_p_slot_reaches_its_bound(p, k):
    """The slot bound of the det_mod_p docstring, p + (k-1)(p-1)p, is met:
    over identity rows with a last row of p - 1, each step pivots on a 1
    with f = p - 1 and adds (p - 1) * p to every later slot of the last row.
    A replay of that update rule on plain integers shows the last slot
    ending at the bound; a carry out of any slot would change the residue."""
    rows = [[int(i == j) for j in range(k)] for i in range(k - 1)] + [[p - 1] * k]
    last = list(rows[-1])
    for c in range(k - 1):
        f = last[c] % p
        last[c + 1:] = [x + f * (p - y % p) for x, y in zip(last[c + 1:], rows[c][c + 1:])]
    assert last[-1] == (p - 1) + (k - 1) * (p - 1) * p
    assert last[-1] < p * p * k + p
    assert det_mod_p(ExactMatrix(ZZ, rows), p) == det_mod_p_lists(rows, p) == p - 1



def test_det_mod_packed_refuses_a_slot_below_its_bound():
    """The slot bound q^2 k + q < 2^(w-1) is checked, not assumed: one bit
    short of mod_slot_width is refused, and mod_slot_width is the least w
    the bound admits."""
    for q, k in ((2, 1), (13, 9), (101, 51), ((1 << 61) - 1, 14)):
        w = mod_slot_width(q, k)
        assert q * q * k + q < 1 << (w - 1) and q * q * k + q >= 1 << (w - 2)
        rows = [1 << (w * i) for i in range(k)]  # the identity, packed
        assert det_mod_packed(rows, q, w) == 1
        with pytest.raises(ValueError, match="slot width"):
            det_mod_packed(rows, q, w - 1)


def test_pack_windows():
    assert pack_windows([1, 2, 3, 4], 2, 4) == [1 + (2 << 4), 2 + (3 << 4), 3 + (4 << 4)]
    assert pack_windows([5], 1, 3) == [5]


def test_sun_tables_agree_with_explicit_matrices():
    """For every p = 1 (mod 4) up to 200 and every d, the left side of the
    Sun check, fed from rows of the two packed tables (or, for d = 0, one
    packed residue per row), equals det_mod_p of [((i + d j)/p)] built
    entry by entry."""
    for p in odd_primes_upto(200):
        if p % 4 != 1:
            continue
        ctx = identities.PrimeContext(p)
        chi = [legendre(r, p) for r in range(p)]
        k = (p + 1) // 2
        for d in range(p):
            want = det_mod_p(ExactMatrix(ZZ, [[chi[(i + d * j) % p] for j in range(k)] for i in range(k)]), p)
            assert identities.verify_sun_congruence(ctx, d).lhs == str(want), (p, d)


def test_toeplitz_adjugate_matches_gauss_jordan_on_random_matrices():
    """Seeded integer Toeplitz matrices, k <= 8, entries in [-3, 3]: the
    columns and determinant of toeplitz_columns, and the Trench fill when
    F_0 != 0, against Gauss-Jordan adjugate; a vanishing divisor gives no
    columns and a vanishing F_0 no fill, and both happen."""
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
        adj = adjugate(m)
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
    with pytest.raises(ValueError, match="entries in"):
        certify_adjugate(ExactMatrix(ZZ, [[2]]), [[1]], 2)

def test_adjugate_formulas():
    m = ExactMatrix(ZZ, [[3, 5], [-2, 7]])
    assert adjugate(m) == ExactMatrix(ZZ, [[7, -5], [2, 3]])
    assert adjugate(ExactMatrix(ZZ, [[42]])) == ExactMatrix(ZZ, [[1]])


def test_adjugate_definitional_identity():
    rng = random.Random(4)
    for _ in range(25):
        k = rng.randint(1, 4)
        m = ExactMatrix(ZZ, rand_int_rows(rng, k))
        d = det_bareiss(m)
        d_times_identity = ExactMatrix(ZZ, [[d if i == j else 0 for j in range(k)] for i in range(k)])
        assert m @ adjugate(m) == d_times_identity
        assert adjugate(m) @ m == d_times_identity


def test_adjugate_multiplicativity():
    """adj(AB) = adj(B) adj(A) on 50 random pairs."""
    rng = random.Random(6)
    for _ in range(50):
        k = rng.randint(1, 4)
        a = ExactMatrix(ZZ, rand_int_rows(rng, k, -3, 3))
        b = ExactMatrix(ZZ, rand_int_rows(rng, k, -3, 3))
        assert adjugate(a @ b) == adjugate(b) @ adjugate(a)


def test_adjugate_fast_agrees_with_cofactors():
    assert adjugate_fast is adjugate
    rng = random.Random(8)
    for _ in range(40):
        k = rng.randint(1, 5)
        m = ExactMatrix(ZZ, rand_int_rows(rng, k, -3, 3))
        assert adjugate(m) == cofactor_adjugate(m)
    s = ExactMatrix(ZZ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert det_bareiss(s) == 0
    assert adjugate(s) == cofactor_adjugate(s)


def _random_of_rank(rng, ring, k, rank):
    """A k x k matrix B @ C with B k x rank and C rank x k; rank at most
    `rank`.  Entries of B and C are small integers."""
    if rank == 0:
        return ExactMatrix(ring, [[ring.zero] * k for _ in range(k)])
    b = ExactMatrix(ring, [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(k)])
    c = ExactMatrix(ring, [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rank)])
    return b @ c


@pytest.mark.parametrize("ring", [ZZ], ids=["ZZ"])
def test_adjugate_matches_cofactor_oracle_at_every_rank(ring):
    """Full rank takes the Gauss-Jordan route; rank k-1 (adjugate of rank
    one) and rank <= k-2 (adjugate zero) take the cofactor route."""
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
                assert adjugate(m) == oracle
                assert adj_is_zero == (rank < k - 1)


def test_adjugate_row_swaps():
    """A zero leading pivot forces a swap; in the second matrix a zero
    pivot at the next step forces another, so the sign returns to +1."""
    for rows, det in (([[0, 1], [1, 0]], -1), ([[0, 0, 1], [1, 2, 3], [2, 5, 5]], 1)):
        m = ExactMatrix(ZZ, rows)
        assert det_bareiss(m) == det
        adj = adjugate(m)
        assert adj == cofactor_adjugate(m)
        assert m @ adj == ExactMatrix(ZZ, [[det if i == j else 0 for j in range(m.rows)] for i in range(m.rows)])


def test_adjugate_of_evil_matrices():
    for p in odd_primes_upto(23):
        m = build_evil_matrix(p)
        assert adjugate(m) == cofactor_adjugate(m)


@pytest.mark.parametrize("ring", [ZZ], ids=["ZZ"])
def test_matrix_determinant_lemma(ring):
    """det(H + u v^T) = det H + v^T adj(H) u on 100 random integer
    instances."""
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(1, 6)
        h = ExactMatrix(ring, rand_int_rows(rng, k))
        u = [rng.randint(-5, 5) for _ in range(k)]
        v = [rng.randint(-5, 5) for _ in range(k)]
        adj = adjugate(h)
        direct = sum(v[i] * adj[i, j] * u[j] for i in range(k) for j in range(k))
        assert quadratic_form_adjugate(h, u, v) == direct


def test_quadratic_form_1x1_and_errors():
    h = ExactMatrix(ZZ, [[17]])
    assert quadratic_form_adjugate(h, [1], [1]) == 1
    with pytest.raises(ValueError):
        quadratic_form_adjugate(h, [1, 2], [1])


def test_first_diff_and_submatrix():
    a = ExactMatrix(ZZ, [[1, 2], [3, 4]])
    b = ExactMatrix(ZZ, [[1, 2], [3, 5]])
    assert a.first_diff(a) is None
    assert a.first_diff(b) == (1, 1)
    assert a.submatrix(0, 1) == ExactMatrix(ZZ, [[3]])


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
            got = det_toeplitz(t, k)
        det = det_bareiss(toeplitz_matrix(t, k))
        assert got == det, (t, k)
        fast += len(fallbacks) == before
        singular += det == 0
    assert len(fallbacks) > 50 and fast > 300 and singular > 20
    assert set(fallbacks) >= set(range(3, 10))


def test_det_toeplitz_small_cases_and_errors():
    assert det_toeplitz([5], 1) == 5
    assert det_toeplitz([0], 1) == 0
    # [[t0, t1], [t-1, t0]]
    assert det_toeplitz([3, 2, 7], 2) == 2 * 2 - 7 * 3
    # t_0 = 0: D_1 vanishes and the fallback pivots
    assert det_toeplitz([1, 0, 1], 2) == -1
    assert det_toeplitz([2, 0, 1, 0, 3], 3) == det_bareiss(toeplitz_matrix([2, 0, 1, 0, 3], 3))
    with pytest.raises(ValueError):
        det_toeplitz([1, 2], 2)
    with pytest.raises(ValueError):
        det_toeplitz([], 0)
    with pytest.raises(ArithmeticError):
        det_toeplitz([1, Fraction(1, 2), 1], 2)


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
            carlitz = det_toeplitz(t, p - 1)
            plus = det_toeplitz(evil_toeplitz(p, 1), n + 1)
            minus = det_toeplitz(evil_toeplitz(p, -1), n + 1)
        assert carlitz == p ** ((p - 3) // 2)
        assert det_bareiss(build_carlitz_matrix(p)) == carlitz
        assert det_bareiss(toeplitz_matrix(t, p - 1)) == carlitz
        c = build_evil_matrix(p)
        for x, det in ((1, plus), (-1, minus)):
            assert det_bareiss(ExactMatrix(ZZ, [[e + x for e in row] for row in c.entries])) == det


def test_certified_evil_adjugate_agrees_with_gauss_jordan_without_fallback(monkeypatch):
    """For every odd p up to 200, PrimeContext.evil_adjugate, from the
    Toeplitz adjugate of C + J, the rank-one update and the certificate,
    equals Gauss-Jordan adjugate of C.  The fallback is disabled: no
    divisor, F_0, det(C + J) or det C vanishes, and every certificate
    holds."""
    def forbidden(m):
        raise AssertionError(f"Gauss-Jordan fallback on a {m.rows}x{m.rows} matrix")

    for p in odd_primes_upto(200):
        ctx = identities.PrimeContext(p)
        with monkeypatch.context() as mp:
            mp.setattr(identities, "adjugate", forbidden)
            got = ctx.evil_adjugate
        assert got == adjugate(build_evil_matrix(p)), p
