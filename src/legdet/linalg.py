"""Dense exact matrices over ZZ and Q(zeta_p), with every kernel on integers.

A matrix carries a ``Ring``, its name and zero and one elements: ZZ or
Q(zeta_p) (cyclo_ring), with int or CycloElem entries.  det_bareiss and
adjugate take ZZ alone and det_field Q(zeta_p) alone, each raising
ValueError naming any other ring.

Determinants, each on integers: fraction-free Bareiss elimination over ZZ,
and over QQ on rows first scaled to integers (det_fractions, on rows of
(numerator, denominator) pairs); over Q(zeta_p), rows scaled into
Z[zeta_p], read off their images in F_q for one Proth-certified prime q
past four times a Hadamard bound, half of them when conjugation fixes
every entry; a Toeplitz matrix's by fraction-free Levinson-Trench in
O(k^2) integer operations (toeplitz_columns), with a Bareiss fallback;
det_circulant, the product of a circulant's eigenvalues mod Phi_p(2^L);
and, for a residue mod a prime, one elimination over F_q on rows packed
one per integer, with delayed reduction, one packed Barrett reduction per
pivot row and a slot width it proves (_eliminate_mod), behind two entry
points: det_mod_packed, and its Gauss-Jordan solve_mod_packed, for the Sun
check's det A and table A^-1 B over F_q.  det_mod_rows packs plain rows
for det_mod_packed, pack_windows the rotations of one table.

The general adjugate is fraction-free Gauss-Jordan on [A | I], sharing the
Bareiss step with the determinant, and refuses a singular matrix.  A
Toeplitz matrix also has an O(k^2) adjugate, from the first and last
columns that the Levinson-Trench run ends with (toeplitz_adjugate).  That
one relies on the displacement structure of its input, so a caller
certifies what it derives from it: certify_adjugate checks C X = d I on
rows of X packed at a width past the slots' bound, which for d != 0 leaves
X = d C^-1 as the only solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul
from typing import Any

from .cyclotomic import CycloElem, _pack, clear_slots
from .ntheory import OddPrime


@dataclass(frozen=True)
class Ring:
    """Coefficient structure plug-in for ExactMatrix."""

    name: str
    zero: Any
    one: Any


ZZ = Ring("ZZ", 0, 1)


def cyclo_ring(p: int) -> Ring:
    return Ring(f"QQ(zeta_{p})", CycloElem.zero(p), CycloElem.one(p))


class ExactMatrix:
    """Immutable dense matrix over one coefficient structure, 0-indexed."""

    __slots__ = ("ring", "entries", "rows", "cols")

    def __init__(self, ring: Ring, rows):
        entries = tuple(tuple(row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(entries[0])
        if any(len(r) != ncols for r in entries):
            raise ValueError("ragged rows")
        self.ring = ring
        self.entries = entries
        self.rows = len(entries)
        self.cols = ncols

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"ExactMatrix({self.ring.name}, {self.rows}x{self.cols})"


def _require_square(m: ExactMatrix) -> None:
    if m.rows != m.cols:
        raise ValueError(f"determinant of a {m.rows}x{m.cols} matrix")


def _require_integer(m: ExactMatrix, what: str) -> None:
    _require_square(m)
    if m.ring is not ZZ:
        raise ValueError(f"{what} needs an integer matrix, got one over {m.ring.name}")


def _pivot(a: list, c: int, k: int) -> int:
    """Make a[c][c] nonzero by swapping up the first row below with a nonzero
    entry in column c: 1 if no swap was needed, -1 after a swap, 0 if rows
    c..k-1 have none."""
    for r in range(c, k):
        if a[r][c]:
            if r == c:
                return 1
            a[c], a[r] = a[r], a[c]
            return -1
    return 0


def _bareiss(a: list, k: int, jordan: bool) -> int:
    """Fraction-free elimination in place on the first k columns of integer
    rows a.

    Step c pivots on a[c][c] (see _pivot) and sets
    a[i][j] = (a[i][j] * piv - a[i][c] * a[c][j]) / prev for j > c, prev
    being the previous pivot; each quotient is a minor of the input, hence
    exact (Bareiss 1968).  Without jordan, steps 0..k-2 update the rows
    below c and a[k-1][k-1] ends as sign * det.  With jordan, steps 0..k-1
    update every other row (Nakos, Turner and Williams 1997), so all rows
    end at the scale of the last pivot.  Columns up to c are left stale.
    An inline divmod raises ArithmeticError on a remainder.  Returns the
    sign of the row permutation, or 0 when a column has no nonzero pivot.
    """
    width = len(a[0])
    sign = 1
    prev = 1
    for c in range(k if jordan else k - 1):
        s = _pivot(a, c, k)
        if not s:
            return 0
        sign *= s
        pr = a[c]
        piv = pr[c]
        for i in range(0 if jordan else c + 1, k):
            if i == c:
                continue
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, width):
                q, r = divmod(ai[j] * piv - f * pr[j], prev)
                if r:
                    raise ArithmeticError(f"inexact integer division by {prev}")
                ai[j] = q
        prev = piv
    return sign


def _det_rows(a: list) -> int:
    """Determinant of the square list of integer rows a, which _bareiss
    overwrites; 1 for no rows, the determinant of the 0 x 0 matrix."""
    if not a:
        return 1
    sign = _bareiss(a, len(a), jordan=False)
    if sign == 0:
        return 0
    det = a[-1][-1]
    return det if sign == 1 else -det


def det_bareiss(m: ExactMatrix) -> int:
    """Exact determinant of an integer matrix by one-step fraction-free
    elimination: every division is exact (entries stay equal to minors of
    the input), so no rational arises.  Raises ValueError over any ring but
    ZZ."""
    _require_integer(m, "det_bareiss")
    return _det_rows([list(row) for row in m.entries])


def toeplitz_columns(t, k: int) -> tuple[int, list | None, list | None]:
    """(det T, F, B), F and B the first and last columns of adj(T), for the
    k x k integer Toeplitz matrix T[i][j] = t[j - i + k - 1], that is, t
    lists the 2k-1 diagonal values t_(1-k), ..., t_(k-1) in order.

    Fraction-free Levinson-Trench (Trench, J. SIAM 12, 1964; Bareiss,
    Numer. Math. 13, 1969), O(k^2) integer operations.  Let T_j be the
    leading j x j block, D_j = det T_j with D_0 = 1, and F, B the first and
    last columns of adj(T_j), both [1] at j = 1.  Rows 1..j and columns
    1..j of T_(j+1) are T_j again, so with E_f = (row j of T_(j+1)) [F; 0]
    and E_b = (row 0 of T_(j+1)) [0; B],

        T_(j+1) [F; 0] = D_j e_0 + E_f e_j,  T_(j+1) [0; B] = E_b e_0 + D_j e_j.

    So v = D_j [F; 0] - E_f [0; B] has T_(j+1) v = (D_j^2 - E_f E_b) e_0,
    and multiplying by adj(T_(j+1)) gives D_(j+1) v = (D_j^2 - E_f E_b)
    F_(j+1).  Entry 0 of F_(j+1) is its (0, 0) cofactor D_j, and entry 0 of
    v is D_j D_(j-1) for the same reason.  So, where no D vanishes (generic
    t), and likewise for B,

        D_(j+1) = (D_j^2 - E_f E_b) / D_(j-1),
        F_(j+1) = (D_j [F; 0] - E_f [0; B]) / D_(j-1),
        B_(j+1) = (D_j [0; B] - E_b [F; 0]) / D_(j-1).

    These are identities between polynomials in the t's, so they hold
    whenever D_(j-1) != 0.  Each quotient is a minor of T, and an inline
    divmod raises ArithmeticError on a remainder, as in _bareiss.  When a
    divisor D_(j-1) is 0 the step does not exist: the explicit matrix goes
    to _bareiss, which pivots, and F = B = None.
    """
    if k < 1:
        raise ValueError(f"Toeplitz determinant of order {k}")
    if len(t) != 2 * k - 1:
        raise ValueError(f"a {k}x{k} Toeplitz matrix has {2 * k - 1} diagonals, got {len(t)}")
    c = k - 1  # t[c + d] is t_d
    prev, det = 1, t[c]
    f = b = [1]
    for j in range(1, k):
        if not prev:
            return _det_rows([[t[c + col - row] for col in range(k)] for row in range(k)]), None, None
        ef = sum(t[c + i - j] * x for i, x in enumerate(f))
        eb = sum(t[c + i + 1] * y for i, y in enumerate(b))
        nxt, r = divmod(det * det - ef * eb, prev)
        if r:
            raise ArithmeticError(f"inexact integer division by {prev}")
        nf, nb = [], []
        for x, y in zip(f + [0], [0] + b):
            qf, rf = divmod(det * x - ef * y, prev)
            qb, rb = divmod(det * y - eb * x, prev)
            if rf or rb:
                raise ArithmeticError(f"inexact integer division by {prev}")
            nf.append(qf)
            nb.append(qb)
        f, b = nf, nb
        prev, det = det, nxt
    return det, f, b


def det_circulant(a) -> int:
    """det [a[(j - i) mod p]], 0 <= i, j < p, for an integer list a of odd
    prime length p (ValueError otherwise): the product of the eigenvalues
    a(zeta^s), s < p.  zeta -> 2^L is a ring map onto Z/Phi, Phi = Phi_p(2^L)
    = (2^(Lp) - 1)/(2^L - 1), so det = a(1) prod_(s != 0) a(2^(Ls)) mod Phi.
    Mod 2^(Lp) - 1, a(2^(Ls)) is a with slot j moved to slot sj mod p, one
    join of L-bit byte slots; slot k here holds a_(ks), the factor of s^-1,
    which runs over every s != 0 as s does.  Adding m to every slot adds
    m Phi = m sum_(k<p) 2^(Lk), so slots hold a_j - min a >= 0.  Products
    fold mod 2^(Lp) - 1, as PackedRing folds, and reduce mod Phi at the
    end.  Bound: each row has squared norm S = sum a_j^2, so |det| <= H =
    S^(p/2) (Hadamard).  L = 8b for the least b with 2^(2L(p-1)) >= 4H^2 and
    2^L > max a - min a, so Phi > 2^(L(p-1)) >= 2H and the residue lifted to
    (-Phi/2, Phi/2] is det.  Entries >= 0 give det >= 0: a(1) >= 0 and
    a(zeta^(p-s)) is the conjugate of a(zeta^s), p odd.
    """
    p, lo = OddPrime(len(a)), min(a)
    bits = (4 * sum(x * x for x in a) ** p - 1).bit_length()
    b = max(-(-bits // (16 * p - 16)), -(-(max(a) - lo).bit_length() // 8))
    lp, cells, acc = 8 * b * p, [(x - lo).to_bytes(b, "little") for x in a], sum(a)
    for s in range(1, p):
        acc *= int.from_bytes(b"".join(itemgetter(*map(p.__rmod__, range(0, s * p, s)))(cells)), "little")
        acc = (acc & ((1 << lp) - 1)) + (acc >> lp)
    r = acc % (phi := ((1 << lp) - 1) // ((1 << 8 * b) - 1))
    return r - phi if 2 * r > phi else r


def toeplitz_adjugate(f, b) -> list[list[int]] | None:
    """The rows of adj(T) for an integer Toeplitz T of order k, from F and
    B, its first and last columns (toeplitz_columns), in O(k^2) integer
    operations; None when F_0 = 0.

    T is persymmetric (J T J = T^T, J the reversal), and so is adj(T): its
    first row is J B and its last row J F.  With Z the down-shift, the
    Gohberg-Semencul displacement of the inverse (Trench 1964; Gohberg and
    Semencul 1972; Heinig and Rost, Algebraic Methods for Toeplitz-like
    Matrices, 1984), scaled by det T, is

        adj(T) - Z adj(T) Z^T = (F (J B)^T - Z B (J F)^T Z^T) / F_0,

    F_0 = D_(k-1) the (0, 0) cofactor; entrywise, adj[i][j] =
    adj[i-1][j-1] + (F_i B_(k-1-j) - B_(i-1) F_(k-j)) / F_0.  Each quotient
    is the difference of two entries of adj(T), hence an integer, and an
    inline divmod raises ArithmeticError on a remainder.
    """
    k, f0 = len(f), f[0]
    if not f0:
        return None
    rows = [b[::-1]]
    for i in range(1, k):
        above, fi, bi = rows[-1], f[i], b[i - 1]
        row = [fi]
        for j in range(1, k):
            q, r = divmod(fi * b[k - 1 - j] - bi * f[k - j], f0)
            if r:
                raise ArithmeticError(f"inexact integer division by {f0}")
            row.append(above[j - 1] + q)
        rows.append(row)
    return rows


def certify_adjugate(c: ExactMatrix, x, d: int) -> bool:
    """Whether C X = d I exactly, for C with entries in {0, 1, -1} and X a
    list of integer rows: k^2 additions of rows of X packed one per integer.

    Row i of C X packs to sum_l v_l 2^(w l), v_l = sum_j c_ij X[j][l], so
    |v_l| <= k M, M = max |X|.  With w = bitlen(k M + |d|), each slot of
    the packed difference from d 2^(w i) is below 2^w in absolute value,
    and a sum of such slots times 2^(w l) vanishes only if every slot does
    (the lowest nonzero one is not a multiple of 2^(w (l+1))).  So the
    packed row equals d 2^(w i) exactly when row i of C X is d e_i.  When
    d != 0 this forces X = d C^-1, hence X = adj(C) if d = det C.
    """
    k = c.rows
    w = (k * max(max(max(row), -min(row)) for row in x) + abs(d)).bit_length()
    packed = [_pack(row, w) for row in x]
    for i, row in enumerate(c.entries):
        acc = 0
        for cij, xj in zip(row, packed):
            if cij == 1:
                acc += xj
            elif cij == -1:
                acc -= xj
            elif cij:
                raise ValueError(f"certify_adjugate needs entries in {{0, 1, -1}}, got {cij}")
        if acc != d << (w * i):
            return False
    return True


def _barrett(q: int, k: int) -> tuple[int, int]:
    """(K, m), the Barrett constants of _eliminate_mod for k rows mod q:
    K = bitlen(S), S = 2q^2 k + q the bound on its slots, and
    m = floor(2^K / q)."""
    kb = (2 * q * q * k + q).bit_length()
    return kb, (1 << kb) // q


def mod_slot_width(q: int, k: int) -> int:
    """The least slot width w that _eliminate_mod takes for k rows mod q:
    K + bitlen(m) for (K, m) = _barrett(q, k), the least w with
    2^K m < 2^w, so that s m < 2^w for every slot s < 2^K and no slot's
    product with m spills into the next."""
    kb, m = _barrett(q, k)
    return kb + m.bit_length()


def det_mod_rows(rows, q: int) -> int:
    """det mod q, in range(q), of the square list of integer rows, for a
    prime q and entries already in range(q): the rows packed at
    mod_slot_width, then det_mod_packed."""
    w = mod_slot_width(q, len(rows))
    return det_mod_packed([_pack(row, w) for row in rows], q, w)


def pack_windows(seq, k: int, w: int) -> list[int]:
    """The windows seq[r : r + k], 0 <= r <= len(seq) - k, each packed as
    sum_j seq[r + j] 2^(w j), for nonnegative entries below 2^w: shifts of
    one packed integer."""
    whole = _pack(seq, w)
    mask = (1 << (w * k)) - 1
    return [(whole >> (w * r)) & mask for r in range(len(seq) - k + 1)]


def _eliminate_mod(rows, width: int, q: int, w: int, jordan: bool) -> tuple[int, list[int], list[int]]:
    """Elimination over F_q, q prime, on the first k columns of k rows
    packed one per integer, sum_j a_j 2^(w*j), width slots of w bits each,
    every a_j in range(q).  Raises ValueError if w < mod_slot_width(q, k).
    Returns (det, rows, invs): det the determinant of the first k columns
    mod q, in range(q), and invs the inverses of the pivots mod q, complete
    only with jordan; (0, rows, invs) as soon as a column has no nonzero
    pivot.  Without jordan, the last pivot has no row below it to clear, so
    it is read into det alone, with no inverse and no P.

    Delayed reduction (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008):
    step c takes the first row from c on whose slot 0 is nonzero mod q,
    swaps it up, and clears column c from a row with one bigint step,
    row += f * P, f = a_c / pivot mod q and P the pivot row with each slot
    s_j, slot 0 included, replaced by a value in (0, 2q] congruent to -s_j
    mod q, which adds -f * s_j (mod q) to each slot j; the row then drops
    slot 0 (>> w), and so does the pivot row.  Without jordan, step c
    reaches the rows below c, and the rows end stale.  With jordan, it
    reaches every other row, so each row c ends holding its last width - k
    slots times pivot c (Gauss-Jordan with the pivots left unscaled).  det
    is the product of the pivots, negated per row swap.

    P is one packed Barrett step (Barrett, CRYPTO '86) on every slot of
    the pivot row x at once.  With (K, m) = _barrett(q, k) and R =
    sum_j 2^(w j) over the slots of x, Q = ((x m) >> K) & (2^(w-K) - 1) R
    holds Q_j = floor(s_j m / 2^K) in slot j, and P = 2q R - x + q Q.  As
    s_j < 2^K (slot bound below) and m = (2^K - e) / q with 0 <= e < q,
    s_j m / 2^K > s_j / q - 1, so Q_j is floor(s_j / q) or one less, and
    slot j of P, 2q - (s_j - q Q_j), lies in (0, 2q].  At
    w >= K + bitlen(m) (mod_slot_width), s_j m < 2^w, so no slot of x m
    spills into the next, and Q_j < 2^(w-K) is kept whole by the mask.  As
    each slot of the sum lies in [0, 2^w), the integer P holds exactly
    these slots.

    Slot bound: a slot starts in [0, q), and each step adds at most
    f * 2q <= 2(q - 1) q to it.  In either mode a row takes at most one
    step per column other than its own pivot column, k - 1 in all, so
    every slot, slot 0 included, stays below q + 2(k - 1)(q - 1) q <
    2q^2 k + q = S < 2^K < 2^w.  Slots only grow, since every slot of P is
    positive, so no borrow ever crosses a slot, and none reaches 2^w, so no
    carry does either, not even out of slot 0 before it is dropped.
    """
    k = len(rows)
    kb, m = _barrett(q, k)
    if w < kb + m.bit_length():
        raise ValueError(f"slot width {w} is below the bound for {k} rows mod {q}")
    mask = (1 << w) - 1
    ones = ((1 << (w * width)) - 1) // mask
    two_q, mq = 2 * q * ones, (ones << (w - kb)) - ones
    rows = list(rows)
    det, invs = 1, []
    last = k if jordan else k - 1
    for c in range(last):
        # rows[c:], and with jordan every row, hold columns c, c + 1, ... from slot 0
        for r in range(c, k):
            piv = (rows[r] & mask) % q
            if piv:
                break
        else:
            return 0, rows, invs
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        pivinv = pow(piv, -1, q)
        invs.append(pivinv)
        det = det * piv % q
        pr = rows[c]
        packed = (two_q >> (w * c)) - pr + q * ((pr * m >> kb) & mq)
        rows[c] = pr >> w
        for i in range(0 if jordan else c + 1, k):
            if i == c:
                continue
            ri = rows[i]
            rows[i] = (ri + (ri & mask) * pivinv % q * packed) >> w
    for pr in rows[last:]:  # without jordan, the last row's pivot (none for k = 0)
        det = det * (pr & mask) % q
    return det, rows, invs


def det_mod_packed(rows, q: int, w: int) -> int:
    """det mod q, in range(q), of the k x k matrix over F_q, q prime, whose
    rows are packed one per integer at slot width w as _eliminate_mod takes
    them; ValueError if w < mod_slot_width(q, k)."""
    return _eliminate_mod(rows, len(rows), q, w, jordan=False)[0]


def solve_mod_packed(rows, width: int, q: int, w: int) -> tuple[int, list[list[int]] | None]:
    """(det A, A^-1 B) over F_q, entries in range(q), for the k rows of
    [A | B] packed as in det_mod_packed, width slots each, the first k of
    them A's, for a prime q; (0, None) when A is singular mod q.  The
    Gauss-Jordan of _eliminate_mod leaves row c of B times pivot c, so row
    c is scaled by the pivot's inverse as it is unpacked."""
    det, rows, invs = _eliminate_mod(rows, width, q, w, jordan=True)
    if not det:
        return 0, None
    mask = (1 << w) - 1
    return det, [[((row >> (w * j)) & mask) * inv % q for j in range(width - len(rows))]
                 for row, inv in zip(rows, invs)]


# the odd primes below 100: Proth witnesses, and a screen for candidates
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_PRIMORIAL = prod(_SMALL_PRIMES)


def _proth_prime(p: int, bound: int) -> tuple[int, int]:
    """(q, r): a prime q > bound with q = 1 (mod p), and r of order p in F_q.

    q runs over the Proth numbers j p 2^s + 1, j odd and j p < 2^s, from the
    least above bound, s from the least with 2^s > p and 2^(2s) > 4 bound,
    skipping those with a factor below 100.  Proth's theorem (1878) proves
    q prime once a^((q-1)/2) = -1 (mod q): for a prime f | q, the order of
    a mod f divides q - 1 but not (q-1)/2, so 2^s | f - 1 and
    f^2 > 2^(2s) > q, and no such f is at most sqrt(q).  For prime q that
    power is +-1 (Euler), so any other value shows q composite; at 1 the
    next a is tried.  As p | q - 1,
    r = x^((q-1)/p) has r^p = 1, and the first x with r != 1 gives r of
    order p, p being prime."""
    s = max(p.bit_length(), (bound.bit_length() + 3) // 2)
    while True:
        j = ((bound - 1) // (p << s) + 1) | 1
        while j * p < 1 << s:
            q = (j * p << s) + 1
            j += 2
            if gcd(q, _PRIMORIAL) != 1:
                continue
            for a in _SMALL_PRIMES:
                w = pow(a, (q - 1) // 2, q)
                if w == q - 1:
                    return q, next(r for r in (pow(x, (q - 1) // p, q) for x in range(2, q)) if r != 1)
                if w != 1:
                    break
        s += 1


def _det_coeffs_mod(vecs, p: int, q: int, r: int, real: bool) -> list[int]:
    """c_e mod q, 0 <= e <= p-2, for det' = sum_e c_e z^e, the determinant
    of the k x k matrix over Z[zeta_p] whose entries have the integer
    p-slot vectors vecs (k rows of k vectors, slot p-1 zero; clear_slots).

    phi_t: zeta -> r^t, 1 <= t <= p-1, is a ring map Z[zeta_p] -> F_q, as
    Z[zeta_p] = Z[x]/(Phi_p) and Phi_p(r^t) = 0 in F_q: (r^t)^p - 1 =
    (r^t - 1) Phi_p(r^t) vanishes and r^t != 1.  So d_t = phi_t(det') is
    det_mod_rows of the entrywise image.  The images of an entry v are
    packed: with C_e holding r^(te) mod q in slot t for each t, slot t of
    sum_e v_e C_e is phi_t(v) up to a multiple of q.  Its absolute value is
    below (p - 1) B q < 2^(w-1), B the largest |v_e|, so with 2^(w-1) added
    to every slot each lies in [0, 2^w), and no borrow or carry crosses one.

    real says that every entry, hence det', is fixed by complex conjugation
    sigma_(-1); as phi_(p-t) = phi_t sigma_(-1), then d_(p-t) = d_t, and
    only t <= (p-1)/2 are eliminated.

    The trace Tr = sum_t sigma_t, sigma_t: zeta -> zeta^t, gives the
    coefficients: Tr(z^j) is p-1 if p | j and -1 otherwise, so for
    0 <= e <= p-2, Tr(det' z^-e) = p c_e - sum_f c_f and Tr(det' z) =
    -sum_f c_f, whence c_e = (Tr(det' z^-e) - Tr(det' z)) / p.  As
    phi_1 sigma_t = phi_t, phi_1(Tr(beta)) = sum_t phi_t(beta), so mod q,
    c_e = p^-1 sum_t d_t (r^(-te) - r^t).
    """
    k = len(vecs)
    ts = range(1, (p + 1) // 2 if real else p)
    pows = [pow(r, j, q) for j in range(p)]
    big = max(max(max(v), -min(v)) for row in vecs for v in row)
    wb = ((p - 1) * big * q).bit_length() // 8 + 1
    cols = [int.from_bytes(b"".join(pows[t * e % p].to_bytes(wb, "little") for t in ts), "little")
            for e in range(p - 1)]
    half = 1 << (8 * wb - 1)
    bias = int.from_bytes((bytes(wb - 1) + b"\x80") * len(ts), "little")
    bufs = [(sum(map(mul, v, cols)) + bias).to_bytes(wb * len(ts), "little") for row in vecs for v in row]
    dets = []
    for i in range(0, wb * len(ts), wb):
        vals = [(int.from_bytes(b[i:i + wb], "little") - half) % q for b in bufs]
        dets.append(det_mod_rows([vals[j:j + k] for j in range(0, k * k, k)], q))
    if real:
        dets += dets[::-1]
    pinv = pow(p, -1, q)
    tr_z = sum(d * pows[t] for t, d in enumerate(dets, 1))
    return [(sum(d * pows[-t * e % p] for t, d in enumerate(dets, 1)) - tr_z) * pinv % q
            for e in range(p - 1)]


def det_fractions(rows) -> Fraction:
    """Determinant of a square matrix of rationals, given as rows of integer
    pairs (n, d) for the entries n/d; d may be negative and n/d unreduced.
    Row i times s_i = lcm(d_i0, d_i1, ...), which math.lcm makes positive,
    is integral, entry n * (s_i // d), the division exact and signed, so
    det = det(scaled) / prod s_i, the scaled determinant by the checked
    integer Bareiss step.  Always a Fraction.  Non-square rows raise
    ValueError; a zero d zeroes s_i, so s_i // d raises ZeroDivisionError."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"determinant of {len(rows)} rows that are not all of length {len(rows)}")
    scales = [lcm(*[d for _, d in row]) for row in rows]
    scaled = [[n * (s // d) for n, d in row] for s, row in zip(scales, rows)]
    return Fraction(_det_rows(scaled), prod(scales))


def det_field(m: ExactMatrix):
    """Exact determinant over Q(zeta_p), from one over Z[zeta_p]; raises
    ValueError naming any other ring (det_fractions takes QQ).

    Row i times s_i, the lcm of its denominators, lies over Z[zeta_p]
    (clear_slots), and det = det' / prod s_i, det' the determinant of the
    scaled matrix A.  det' = sum_e c_e z^e is read off c_e mod one prime
    q > 4H that Proth's theorem proves prime (_proth_prime), from images in
    F_q and the trace formula (_det_coeffs_mod; von zur Gathen and Gerhard,
    Modern Computer Algebra, section 5.5).  The bound: for an embedding
    sigma, |sigma(alpha)| <= ||alpha||_1, the sum of the |coefficients|, as
    |sigma(zeta)| = 1.  By Hadamard's inequality,
    |sigma(det')| = |det sigma(A)| <= prod_i sqrt(sum_j |sigma(a_ij)|^2)
    <= H = prod_i ceil(sqrt(sum_j ||a_ij||_1^2)).  The trace formula
    c_e = (Tr(det' z^-e) - Tr(det' z)) / p, each trace a sum of p-1
    conjugates times roots of unity, gives |c_e| <= 2(p-1)H/p < 2H < q/2,
    so c_e is its symmetric residue mod q.  H = 0 means a zero row.

    Conjugation moves slot t of an entry's p-slot vector v to slot -t mod p.
    The mirror agrees with v at slot 0, so it is the same element exactly
    when it is v itself, v[1:] == v[:0:-1]; when every entry passes, det' is
    real and half the images suffice.
    """
    _require_square(m)
    ring = m.ring
    if not isinstance(ring.zero, CycloElem):
        raise ValueError(f"det_field has no kernel over {ring.name}")
    p = ring.zero.p
    scales, vecs = zip(*map(clear_slots, m.entries))
    h = 1
    for row in vecs:
        n2 = sum(sum(map(abs, v)) ** 2 for v in row)
        h *= isqrt(n2 - 1) + 1 if n2 else 0
    if not h:
        return ring.zero
    q, r = _proth_prime(p, 4 * h)
    real = all(v[1:] == v[:0:-1] for row in vecs for v in row)
    return CycloElem(p, [c - q if c > q // 2 else c for c in _det_coeffs_mod(vecs, p, q, r, real)], prod(scales))


def adjugate(m: ExactMatrix) -> ExactMatrix:
    """Transpose of the cofactor matrix of an integer matrix, so
    M @ adj(M) = det(M) * I.  Raises ValueError over any ring but ZZ.

    Fraction-free Gauss-Jordan on [M | I] with row pivoting.  It ends at
    [d * I | d * M^(-1)] with d = sign * det(M), sign that of the row swaps,
    so the right half times sign is adj(M), reached by exact divisions only.
    A singular M has no pivot in some column and raises ValueError.
    """
    _require_integer(m, "adjugate")
    k = m.rows
    a = [list(row) + [int(j == i) for j in range(k)] for i, row in enumerate(m.entries)]
    sign = _bareiss(a, k, jordan=True)
    if not sign:
        raise ValueError(f"adjugate of a singular {k}x{k} matrix")
    return ExactMatrix(ZZ, [row[k:] if sign == 1 else [-x for x in row[k:]] for row in a])


# the former name stays importable: legbench traces the adjugate under both
adjugate_fast = adjugate


def quadratic_form_adjugate(h: ExactMatrix, u, v):
    """v^T adj(H) u computed as det(H + u v^T) - det(H).

    The matrix determinant lemma makes the two sides equal; computing the
    difference of two integer determinants, each by Bareiss, avoids forming
    the adjugate.  Kept, uncalled, for the benchmark tracer.
    """
    _require_square(h)
    u = list(u)
    v = list(v)
    if len(u) != h.rows or len(v) != h.rows:
        raise ValueError("vector length does not match matrix dimension")
    bumped = ExactMatrix(h.ring, [[x + a * b for x, b in zip(row, v)] for row, a in zip(h.entries, u)])
    return det_bareiss(bumped) - det_bareiss(h)
