import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import legdet.cyclotomic
from helpers import Cyclo, convolve_cyclic, convolve_cyclo, euclid_inverse, gauss_sum, zeta
from legdet.cyclotomic import CycloElem, _mul_cyclic, _mul_vec, zeta_pow
from legdet.ntheory import legendre, odd_primes_upto


def rand_elem(rng, p):
    return Cyclo.from_coeffs(
        p, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(p - 1)]
    )


def test_zeta_pow_basics():
    assert zeta_pow(5, 7) == zeta_pow(5, 2)
    assert zeta_pow(5, -1) == zeta_pow(5, 4)
    assert zeta_pow(5, 0) == CycloElem.one(5)
    # basis reduction of the top power
    assert zeta_pow(5, 4).coeffs == (Fraction(-1),) * 4


def test_vanishing_sum_and_root_of_unity():
    for p in (3, 5, 7, 13):
        total = Cyclo.zero(p)
        for k in range(p):
            total = total + zeta_pow(p, k)
        assert total.is_zero()
        assert math.prod([zeta(p, 1)] * p) == CycloElem.one(p)


def test_mul_examples():
    assert zeta_pow(5, 1) * zeta_pow(5, 4) == CycloElem.one(5)
    prod = (1 + zeta(5, 2)) * (1 + zeta(5, 4))
    assert prod == -zeta(5, 3)


def _rand_vec(rng, p, kind, bits, slots=None):
    """A vector of one shape with entries up to bits bits, in the power
    basis (p - 1 slots) or, given slots = p, in Z[x]/(x^p - 1)."""
    k = p - 1 if slots is None else slots
    m = (1 << bits) - 1
    v = [0] * k
    if kind == "monomial":
        v[rng.randrange(k)] = rng.choice((1, -1, rng.randint(1, m) * rng.choice((1, -1))))
    elif kind == "sparse":
        for e in rng.sample(range(k), min(3, k)):
            v[e] = rng.randint(1, m) * rng.choice((1, -1))
    elif kind == "dense":
        v = [rng.randint(-m, m) for _ in range(k)]
    elif kind == "constant":
        v = [rng.randint(1, m) * rng.choice((1, -1))] * k
    return v


@pytest.mark.parametrize("p", [3, 5, 7, 13, 29, 59])
def test_mul_vec_matches_convolution_oracle(p):
    """_mul_vec, every pairing of operand shapes, entries from 1 to 2000
    bits and both argument orders, against the O(p^2) convolution."""
    rng = random.Random(p)
    kinds = ("zero", "monomial", "sparse", "dense")
    for bits in (1, 3, 40, 300, 2000):
        for ka in kinds:
            for kb in kinds:
                a = _rand_vec(rng, p, ka, bits)
                b = _rand_vec(rng, p, kb, rng.choice((1, 3, 40, bits)))
                want = convolve_cyclo(p, a, b)
                assert _mul_vec(p, a, b) == want
                assert _mul_vec(p, tuple(b), tuple(a)) == want


@pytest.mark.parametrize("p", [3, 5, 7, 13, 29, 59])
def test_mul_vec_slots_at_the_bound(p):
    """All-(+-M) operands with M = 2^t - 1 make the middle coefficient of
    the plain product reach the docstring bound (p-1) * M * M in size, at
    every slot width in play, including widths that are exactly a word or a
    byte multiple."""
    n = p - 1
    for t in list(range(1, 80)) + [300, 2000]:
        m = (1 << t) - 1
        for sa in (1, -1):
            for sb in (1, -1):
                a, b = [sa * m] * n, [sb * m] * n
                want = convolve_cyclo(p, a, b)
                assert _mul_vec(p, a, b) == want
                # alternating signs spread the extremes over the slots
                a = [m if (e + t) % 2 else -m for e in range(n)]
                want = convolve_cyclo(p, a, b)
                assert _mul_vec(p, a, b) == want == convolve_cyclo(p, b, a)
                assert _mul_vec(p, b, a) == want


@pytest.mark.parametrize("p", [3, 5, 7, 13, 29, 59])
def test_mul_cyclic_matches_cyclic_convolution_oracle(p):
    """_mul_cyclic, one product in PackedRing, on p-slot vectors, every
    pairing of operand shapes (a constant vector, 0 in Q(zeta_p), included;
    a monomial may sit in slot p-1), entries from 1 to 2000 bits and both
    argument orders, against the O(p^2) cyclic convolution."""
    rng = random.Random(1000 + p)
    kinds = ("zero", "monomial", "sparse", "dense", "constant")
    for bits in (1, 3, 40, 300, 2000):
        for ka in kinds:
            for kb in kinds:
                a = _rand_vec(rng, p, ka, bits, p)
                b = _rand_vec(rng, p, kb, rng.choice((1, 3, 40, bits)), p)
                want = convolve_cyclic(p, a, b)
                assert _mul_cyclic(p, a, b) == want
                assert _mul_cyclic(p, tuple(b), tuple(a)) == want
    for e in range(p):
        b = _rand_vec(rng, p, "dense", 40, p)
        for c in (1, -1, 7):
            a = [0] * p
            a[e] = c
            assert _mul_cyclic(p, a, b) == _mul_cyclic(p, b, a) == convolve_cyclic(p, a, b)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 29, 59])
def test_mul_cyclic_slots_at_the_bound(p):
    """All-(+-M) p-slot operands with M = 2^t - 1 make every slot of the
    cyclic product reach the docstring bound p * M * M in size (slot p-1
    sums p products, one more than in the folded product of _mul_vec), at
    every slot width in play, including widths that are exactly a word or a
    byte multiple."""
    for t in list(range(1, 80)) + [300, 2000]:
        m = (1 << t) - 1
        for sa in (1, -1):
            for sb in (1, -1):
                a, b = [sa * m] * p, [sb * m] * p
                want = convolve_cyclic(p, a, b)
                assert want == [sa * sb * p * m * m] * p
                assert _mul_cyclic(p, a, b) == want
                # alternating signs spread the extremes over the slots
                a = [m if (e + t) % 2 else -m for e in range(p)]
                want = convolve_cyclic(p, a, b)
                assert _mul_cyclic(p, a, b) == want == convolve_cyclic(p, b, a)
                assert _mul_cyclic(p, b, a) == want


def test_rational_embedding():
    half = Cyclo.from_rational(5, Fraction(1, 2))
    assert half.coeffs == (Fraction(1, 2), 0, 0, 0)
    assert (half + half) == CycloElem.one(5)


def test_constructors_reject_inexact_input():
    """A float, str or Decimal is not read as a nearby rational (0.1 as
    3602879701896397/36028797018963968), by the package's from_rational or
    the oracle's from_coeffs; ints and Fractions still build the reduced
    element."""
    for bad in (0.1, "1/3", Decimal("0.5")):
        with pytest.raises(TypeError, match="exact rational"):
            CycloElem.from_rational(5, bad)
    with pytest.raises(TypeError, match="exact rational"):
        Cyclo.from_coeffs(5, [0.5, 0, 0, 0])
    third = CycloElem.from_rational(5, Fraction(-2, 6))
    assert (third.num, third.den) == ((-1, 0, 0, 0), 3)
    assert CycloElem.from_rational(5, 4) == CycloElem(5, [4, 0, 0, 0])
    e = Cyclo.from_coeffs(5, [Fraction(1, 2), Fraction(1, 3), 0, -1])
    assert (e.num, e.den) == ((3, 2, 0, -6), 6)


def test_mixed_p_rejected():
    with pytest.raises(ValueError):
        zeta_pow(5, 1) == zeta_pow(7, 1)
    with pytest.raises(ValueError):
        zeta_pow(5, 1) * zeta_pow(7, 1)
    with pytest.raises(ValueError):
        zeta(5, 1) + zeta_pow(7, 1)


def test_ring_laws_randomized():
    rng = random.Random(3)
    for p in (5, 7, 13):
        for _ in range(20):
            a, b, c = (rand_elem(rng, p) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == CycloElem.zero(p)


def test_inverse_roundtrip():
    rng = random.Random(9)
    for p in (5, 7, 13):
        for _ in range(15):
            a = rand_elem(rng, p)
            if a.is_zero():
                continue
            assert a * a.inv() == CycloElem.one(p)
            assert a.inv() * a == CycloElem.one(p)
    assert zeta_pow(5, 2).inv() == zeta_pow(5, 3)
    with pytest.raises(ZeroDivisionError, match="zeta_5"):
        CycloElem.zero(5).inv()


def test_inverse_matches_euclid_oracle():
    rng = random.Random(17)
    for p in (3, 5, 7, 11, 13, 29):
        elems = [CycloElem.from_rational(p, Fraction(-7, 3)), CycloElem.one(p)]
        elems += [zeta_pow(p, k) * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for k in range(p)]
        elems += [rand_elem(rng, p) for _ in range(8)]
        # a large common denominator
        elems += [CycloElem(p, [rng.randint(-9, 9) for _ in range(p - 1)], 3**40 * 7**25) for _ in range(2)]
        # large coefficients; Euclid over Fractions is too slow for them beyond p = 13
        if p <= 13:
            elems += [
                Cyclo.from_coeffs(
                    p, [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**15)) for _ in range(p - 1)]
                )
                for _ in range(2)
            ]
        # the units 1 + zeta^k, of norm 1
        elems += [1 + zeta(p, rng.randrange(1, p)) for _ in range(3)]
        for a in elems:
            if a.is_zero():
                continue
            assert a.inv() == euclid_inverse(a)


def test_gauss_sum_inverse():
    for p in [q for q in odd_primes_upto(61) if q % 4 == 1]:
        g = gauss_sum(p)
        # multiplied, not divided, so the right side does not go through inv
        assert g.inv() == g * Fraction(1, p)


def test_inverse_rejects_a_product_that_is_not_the_norm(monkeypatch):
    # zeta -> zeta^(p-1) generates only {1, p-1}, so the chain multiplies the
    # wrong conjugates and A * c is not rational
    monkeypatch.setattr(legdet.cyclotomic, "primitive_root", lambda p: p - 1)
    with pytest.raises(RuntimeError):
        (1 + 2 * zeta(7, 1)).inv()


def test_pow_and_division():
    a = 1 + zeta(7, 3)
    assert math.prod([a] * 3) / a == a * a
    assert (a * a).inv() == a.inv() * a.inv()
    assert (a / a) == CycloElem.one(7)
    assert (a * a) / a == a


def test_one_minus_zeta_product():
    """prod_{k=1}^{p-1} (1 - zeta^k) = p, the classical evaluation."""
    for p in (5, 7, 11, 13):
        prod = CycloElem.one(p)
        for k in range(1, p):
            prod = prod * (1 - zeta(p, k))
        assert prod == CycloElem.from_rational(p, p)


def test_gauss_sum_definition_and_square():
    g5 = gauss_sum(5)
    assert g5 == zeta(5, 1) - zeta(5, 2) - zeta(5, 3) + zeta(5, 4)
    for p in [q for q in odd_primes_upto(41) if q % 4 == 1]:
        g = gauss_sum(p)
        assert g * g == CycloElem.from_rational(p, p)
    with pytest.raises(ValueError):
        gauss_sum(7)


def test_coeff_access_and_hash():
    a = zeta_pow(5, 2) * 3
    assert a.coeffs[2] == 3 and a.coeffs[1] == 0
    assert len(a.coeffs) == 4
    assert hash(a) == hash(CycloElem(5, (0, 0, 6, 0), 2))
    assert a == Cyclo.from_coeffs(5, (0, 0, 3, 0))
    assert a != zeta_pow(5, 2)


def test_legendre_weighted_sum_matches_gauss():
    for p in (5, 13, 17):
        total = Cyclo.zero(p)
        for k in range(1, p):
            total = total + legendre(k, p) * zeta(p, k)
        assert total == gauss_sum(p)


def test_equal_values_hash_equal():
    """A rational element equals its int or Fraction, and hashes as it, so
    either finds the other in a set; equal non-rational elements, however
    built, hash equal too."""
    for p in (3, 5, 13):
        for r in (0, 1, -7, 3, Fraction(1, 2), Fraction(-5, 3)):
            e = CycloElem.from_rational(p, r)
            assert e == r and hash(e) == hash(r)
            assert r in {e} and e in {r}
            assert Cyclo.from_rational(p, r) in {r}
    assert 3 in {CycloElem.from_rational(5, 3)} and Fraction(1, 2) in {CycloElem.from_rational(5, Fraction(1, 2))}
    a, b = CycloElem(5, [0, 2, 0, -4], 6), Cyclo.from_coeffs(5, [0, Fraction(1, 3), 0, Fraction(-2, 3)])
    assert a == b and hash(a) == hash(b) and a in {b}
    assert zeta_pow(7, 3) in {zeta_pow(7, 10)} and zeta_pow(7, 3) not in {zeta_pow(7, 4)}
