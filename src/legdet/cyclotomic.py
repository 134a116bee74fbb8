"""Exact values of the cyclotomic field Q(zeta_p), odd primes p, and the
integer kernels that compute them.

Every computation runs on integer p-slot vectors: Z[x]/(x^p - 1), slot t
for zeta^t, in which a vector stands for 0 exactly when all its slots are
equal.  Lists of CycloElems become such vectors over one denominator
(clear_slots).

Products run in one packed ring, PackedRing: Z/(2^(wp) - 1), the image of
Z[x]/(x^p - 1) under x -> 2^w (Kronecker substitution), where a product
with zeta^e is a shift, sums and products need no bound on the way, and
only a vector read back must fit its w-bit slots: w is fixed from an
a-priori bound on its slots (for the decomposition, the l1 bound B of
identities.verify_decomposition).  Biased by 2^(w-1) in every slot, such a
vector is all equal slots, 0 in Q(zeta_p), exactly when its residue t is
k R, k its low w bits and R = sum_i 2^(wi) (flat), so no slot is unpacked
to compare.  _mul_cyclic, the product of two p-slot vectors, is one
product in that ring.

CycloElem is the value a check reports: the power-basis coefficients of
1, zeta, ..., zeta^(p-2) as an integer vector over one positive common
denominator, normalized so the gcd of all entries and the denominator is 1,
which makes == a plain vector comparison; coeffs gives Fraction views and
str the canonical rendering.  A p-slot vector becomes one by folding slot
p-1 away with zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) (_fold).  Its *
and inv remain only for the right side of the f1f2 check, c f1^2 (f2^2)^-1
and its two monomial factors: a product pads the two power-basis vectors to
p slots and folds after (_mul_vec).

Inversion uses the Galois norm: a^-1 = (prod of the conjugates sigma_k(a),
k != 1) / N(a).  The automorphisms sigma_k: zeta -> zeta^k only permute
the p slots, so the whole inverse is integer cyclic products.  The
conjugate product is built along the cyclic group generated by one
primitive root, in O(log p) multiplications (an Itoh-Tsujii style chain;
see Cohen, GTM 138, section 4.3).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import lshift

from .exact import as_rational
from .ntheory import OddPrime, primitive_root


def _fold(acc) -> list[int]:
    """acc[0..p-1] with slot p-1 folded away by zeta^(p-1) = -(1 + ... + zeta^(p-2))."""
    top = acc[-1]
    return [c - top for c in acc[:-1]]


def _pack(vec, w: int) -> int:
    """The integer sum_e vec[e] 2^(w e); entries may be negative."""
    x = 0
    for c in reversed(vec):
        x = (x << w) + c
    return x


class PackedRing:
    """Z/(M), M = 2^(wp) - 1, the image of Z[x]/(x^p - 1) under x -> 2^w
    (von zur Gathen and Gerhard, Modern Computer Algebra, section 8.4): a
    ring map, as 2^(wp) = 1 (mod M), so a product with x^e is a shift by
    w e.  Vectors enter by _pack; two folds of |x| < 2^(2wp+e) leave
    |x| < 2^wp + 2^(e+1).  w, a multiple of 8, has 2^(w-1) > bound + 1, so
    if every |slot| of v is at most bound, the residue t in [0, M) of v
    plus 2^(w-1) R, R = M / (2^w - 1) = sum_i 2^(wi), is the integer whose
    base-2^w digits are v's slots biased into [2, 2^w - 2]: all equal
    exactly when t = k R, k the low w bits of t (flat)."""

    def __init__(self, p: int, bound: int):
        w = self.w = -(-((bound + 1).bit_length() + 1) // 8) * 8
        self.p, self.wp, self.m, self.r = p, w * p, (1 << w * p) - 1, ((1 << w * p) - 1) // ((1 << w) - 1)

    def fold(self, x: int) -> int:
        x = (x & self.m) + (x >> self.wp)
        return (x & self.m) + (x >> self.wp)

    def times_v(self, rows) -> list[list[int]]:
        """Each row of residues times V_lj = z^(2lj), 0 <= l, j < len(row):
        entry j sums row[l] shifted by w (2lj mod p) bits over l, folded."""
        k = len(rows[0])
        shifts = [[self.w * (2 * l * j % self.p) for l in range(k)] for j in range(k)]
        return [[self.fold(sum(map(lshift, row, sh))) for sh in shifts] for row in rows]

    def flat(self, x: int, c: int) -> bool:
        """Whether x - c, c in slot 0, is a multiple of the all-ones vector."""
        t = (x - c + (self.r << (self.w - 1))) % self.m
        return t == (t & ((1 << self.w) - 1)) * self.r

    def slots(self, x: int) -> list[int]:
        """The p slots of the vector x packs, each at most the bound in absolute value."""
        t, w = (x + (self.r << (self.w - 1))) % self.m, self.w
        return [(t >> w * i & ((1 << w) - 1)) - (1 << (w - 1)) for i in range(self.p)]


def _mul_cyclic(p: int, a, b) -> list[int]:
    """Product of two integer p-slot vectors in Z[x]/(x^p - 1), slot t for
    x^t, as one product in PackedRing, whose bound holds: a slot sums
    a_e b_f over p pairs, so |c| <= p A B for A, B the largest |entry| of
    a, b.
    """
    ring = PackedRing(p, p * max(map(abs, a)) * max(map(abs, b)))
    return ring.slots(ring.fold(_pack(a, ring.w) * _pack(b, ring.w)))


def _mul_vec(p: int, a, b) -> list[int]:
    """Product of two integer power-basis vectors of Q(zeta_p): _mul_cyclic
    on the two padded with a zero z^(p-1) slot, folded."""
    return _fold(_mul_cyclic(p, [*a, 0], [*b, 0]))


def _sigma_vec(p: int, a, k: int) -> list[int]:
    """The conjugate sigma_k(a), zeta -> zeta^k, of an integer p-slot vector:
    slot e moves to slot e k mod p."""
    acc = [0] * p
    for e, c in enumerate(a):
        acc[e * k % p] = c
    return acc


class CycloElem:
    """An element of Q(zeta_p) in canonical power-basis form."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, num, den: int = 1):
        p = OddPrime(p)
        num = list(num)
        if len(num) != p - 1:
            raise ValueError(f"coefficient vector must have length {p - 1}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = gcd(den, *num)
        if g > 1:
            den //= g
            num = [c // g for c in num]
        if not any(num):
            den = 1
        self.p = p
        self.num = tuple(num)
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycloElem":
        return cls(p, [0] * (OddPrime(p) - 1))

    @classmethod
    def one(cls, p: int) -> "CycloElem":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, r) -> "CycloElem":
        r = as_rational(r)
        num = [0] * (OddPrime(p) - 1)
        num[0] = r.numerator
        return cls(p, num, r.denominator)

    # -- views ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- comparison and the right side of f1f2 --------------------------

    def _coerce(self, other) -> "CycloElem | None":
        if isinstance(other, CycloElem):
            if other.p != self.p:
                raise ValueError(f"mixed cyclotomic fields p={self.p} and p={other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem.from_rational(self.p, other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        # a rational element equals its int or Fraction, so it hashes as one
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.p, self.num, self.den))

    def __mul__(self, other) -> "CycloElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloElem(self.p, _mul_vec(self.p, self.num, o.num), self.den * o.den)

    def inv(self) -> "CycloElem":
        """Multiplicative inverse as (product of the other conjugates) / norm.

        With a = A/den and sigma = sigma_g for a primitive root g mod p,
        b_m = prod_{i<m} sigma^i(A) doubles by b_2m = b_m * sigma^m(b_m) and
        steps by b_(m+1) = b_m * sigma^m(A), where sigma^m = sigma_(g^m).
        Then c = sigma(b_(p-2)) is the product of every conjugate except A,
        and A * c = N(A) must be a nonzero rational: on p slots, slot 0 less
        the other slots, which must all be equal.
        """
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in Q(zeta_{self.p})")
        p, a = self.p, [*self.num, 0]
        g = primitive_root(p)
        b, m = a, 1
        for bit in bin(p - 2)[3:]:
            b = _mul_cyclic(p, b, _sigma_vec(p, b, pow(g, m, p)))
            m *= 2
            if bit == "1":
                b = _mul_cyclic(p, b, _sigma_vec(p, a, pow(g, m, p)))
                m += 1
        c = _sigma_vec(p, b, g)
        norm = _mul_cyclic(p, a, c)
        if norm[2:].count(norm[1]) != p - 2 or norm[0] == norm[1]:
            raise RuntimeError(f"conjugate product of {self!r} gave a norm that is not a nonzero rational")
        return CycloElem(p, [x * self.den for x in _fold(c)], norm[0] - norm[1])

    def __repr__(self) -> str:
        return f"CycloElem(p={self.p}, {self!s})"

    def __str__(self) -> str:
        from .render import format_cyclo

        return format_cyclo(self)


def clear_slots(elems) -> tuple[int, list[list[int]]]:
    """(den, vecs) for a list of CycloElems of one field: den the lcm of
    their denominators, each element times den as p slots, slot p-1 zero."""
    den = lcm(*[e.den for e in elems])
    return den, [[c * (den // e.den) for c in (*e.num, 0)] for e in elems]


def zeta_pow(p: int, k: int) -> CycloElem:
    """zeta^k in canonical form; k may be any integer (reduced mod p)."""
    p = OddPrime(p)
    acc = [0] * p
    acc[k % p] = 1
    return CycloElem(p, _fold(acc))

