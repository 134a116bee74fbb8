"""Dense exact matrices over ZZ, QQ and Q(zeta_p), with every kernel on integers.

A matrix carries a ``Ring``, its name and zero and one elements: ZZ, QQ or
Q(zeta_p) (cyclo_ring).  Entries are ints, Fractions or CycloElems with
their own +, -, * and ==, which is all the plain matrix product uses.  The
kernels dispatch on the ring: det_bareiss, adjugate and det_mod_p take ZZ
alone and raise ValueError naming any other, det_field takes QQ and
Q(zeta_p) alone, and @ over Q(zeta_p) has a kernel of its own.

Determinants come in four flavors, each on integers: fraction-free Bareiss
elimination over ZZ, and over QQ (det_field) on rows first scaled to
integers; over the cyclotomic fields, rows scaled into Z[zeta_p], whose
determinant is read off its images in F_q for split primes q and put
together by CRT; det_toeplitz, fraction-free
Levinson-Trench in O(k^2) integer operations on the 2k-1 diagonals of an
integer Toeplitz matrix (toeplitz_columns), which hands the explicit matrix
to Bareiss when a leading minor it must divide by vanishes; and, for when
only the residue mod a prime of an integer determinant is wanted,
det_mod_packed, which eliminates over F_q on rows packed one per integer,
with delayed reduction, and refuses a slot width below its proven bound.
det_mod_rows packs plain rows for it; callers that select rows from a
table, as the Sun check does (for d != 0, row i of [((i + dj)/p)] is row
i d^-1 of [((d/p)(r + j)/p)], as i + dj = d(i d^-1 + j)), pack the table
once (pack_windows).  The product of two matrices over Q(zeta_p) likewise
scales rows and columns to integers and packs each entry once.

The general adjugate is fraction-free Gauss-Jordan on [A | I], sharing the
Bareiss step with the determinant; a singular matrix gets its signed
cofactors instead.  A Toeplitz matrix also has an O(k^2) adjugate, from
the first and last columns that the Levinson-Trench run ends with
(toeplitz_adjugate).  That one relies on the displacement structure of
its input, so a caller certifies what it derives from it:
certify_adjugate checks C X = d I on rows of X packed at a width past the
slots' bound, which for d != 0 leaves X = d C^-1 as the only solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from typing import Any

from .cyclotomic import CycloElem, _dot_vecs, _pack
from .ntheory import is_prime


@dataclass(frozen=True)
class Ring:
    """Coefficient structure plug-in for ExactMatrix."""

    name: str
    zero: Any
    one: Any


ZZ = Ring("ZZ", 0, 1)
QQ = Ring("QQ", Fraction(0), Fraction(1))


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

    def first_diff(self, other: "ExactMatrix") -> tuple[int, int] | None:
        """Row-major index of the first differing entry, None if equal."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        for i in range(self.rows):
            for j in range(self.cols):
                if self.entries[i][j] != other.entries[i][j]:
                    return (i, j)
        return None

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions {self.cols} and {other.rows} disagree")
        zero = self.ring.zero
        cols = list(zip(*other.entries))
        if isinstance(zero, CycloElem):
            return ExactMatrix(self.ring, _cyclo_matmul(zero.p, self.entries, cols))
        return ExactMatrix(
            self.ring,
            [[sum((a * b for a, b in zip(row, col)), start=zero) for col in cols] for row in self.entries],
        )

    def submatrix(self, drop_row: int, drop_col: int) -> "ExactMatrix":
        return ExactMatrix(
            self.ring,
            [
                [a for j, a in enumerate(row) if j != drop_col]
                for i, row in enumerate(self.entries)
                if i != drop_row
            ],
        )

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
    overwrites."""
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


def det_toeplitz(t, k: int) -> int:
    """det T for the k x k integer Toeplitz matrix T[i][j] = t[j - i + k - 1]:
    the determinant of toeplitz_columns."""
    return toeplitz_columns(t, k)[0]


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
    w = (k * max(abs(v) for row in x for v in row) + abs(d)).bit_length()
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


def mod_slot_width(q: int, k: int) -> int:
    """The slot width w of det_mod_packed for k rows mod q: the least with
    q^2 k + q < 2^(w-1)."""
    return (q * q * k + q).bit_length() + 1


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


def det_mod_packed(rows, q: int, w: int) -> int:
    """det mod q, in range(q), of the k x k matrix whose rows are packed one
    per integer, sum_j a_j 2^(w*j), one w-bit slot per entry a_j in
    range(q), for a prime q.  Raises ValueError unless q^2 k + q < 2^(w-1),
    the slot bound below.

    Gaussian elimination over F_q with delayed reduction (Dumas, Giorgi and
    Pernet, ACM TOMS 35(3), 2008): clearing the pivot column from a row is
    one bigint step, row += f * packed(q - pivot_row) with f = a_c / pivot
    mod q, which adds f * (q - r_j) = -f * r_j (mod q) to each slot j.  Only
    the pivot row is unpacked and reduced mod q, to r_j in [0, q); every
    other row stays unreduced and drops its pivot-column slot (>> w) after
    the step.

    Slot bound: a slot starts in [0, q), and each step adds at most
    f * (q - r_j) <= (q - 1) * q to it.  A row takes one such step per
    column eliminated before it becomes the pivot row, at most k - 1 in
    all, so every slot stays below q + (k - 1)(q - 1)q < q^2 k + q
    < 2^(w-1).  Slots only grow, since nothing is subtracted, so no borrow
    ever crosses a slot, and none reaches 2^w, so no carry does either.
    """
    k = len(rows)
    if q * q * k + q >= 1 << (w - 1):
        raise ValueError(f"slot width {w} is below the bound for {k} rows mod {q}")
    mask = (1 << w) - 1
    rows = list(rows)
    det = 1
    for c in range(k):
        # rows[c:] are the rows left, with column c in slot 0
        for r in range(c, k):
            piv = (rows[r] & mask) % q
            if piv:
                break
        else:
            return 0
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        det = det * piv % q
        pivinv = pow(piv, -1, q)
        pr = rows[c]
        packed = 0
        for j in range(k - 1 - c, 0, -1):
            packed = (packed | q - ((pr >> (w * j)) & mask) % q) << w
        for i in range(c + 1, k):
            ri = rows[i]
            rows[i] = (ri + (ri & mask) * pivinv % q * packed) >> w
    return det % q


def det_mod_p(m: ExactMatrix, p: int) -> int:
    """det(m) mod p, in range(p), for an integer matrix and a prime p: the
    entries reduced mod p, then det_mod_rows."""
    _require_integer(m, "det_mod_p")
    return det_mod_rows([[x % p for x in row] for row in m.entries], p)


def _cleared(line):
    """(s, vectors): s the lcm of the denominators of a line of CycloElems,
    and each element times s as its integer power-basis vector."""
    s = lcm(*[e.den for e in line])
    return s, [e.num if e.den == s else [c * (s // e.den) for c in e.num] for e in line]


def _cyclo_matmul(p: int, rows, cols) -> list[list[CycloElem]]:
    """The product of the matrix with these rows and the matrix with these
    columns, all CycloElems of Q(zeta_p): row i times its lcm s_i and
    column j times its lcm t_j are integral, so entry (i, j) is the integer
    dot product of the two (cyclotomic._dot_vecs) over s_i t_j."""
    rs, rvecs = zip(*map(_cleared, rows))
    cs, cvecs = zip(*map(_cleared, cols))
    out = _dot_vecs(p, rvecs, cvecs)
    return [[CycloElem(p, v, s * t) for v, t in zip(row, cs)] for row, s in zip(out, rs)]


def _split_primes(p: int, bound: int) -> list[tuple[int, int]]:
    """Pairs (q, r), q running down the primes below 2^62 with q = 1 (mod p)
    and r an element of order p in F_q, until the product of the q exceeds
    bound.  Every q passes is_prime, which is proven exact there.  Since
    p | q - 1, r = x^((q-1)/p) has r^p = 1 for every x in F_q^*, and the
    first x with r != 1 gives r of order p, p being prime."""
    out, modulus = [], 1
    q = (((1 << 62) - 2) // (2 * p)) * 2 * p + 1  # odd, since p is
    while modulus <= bound:
        if is_prime(q):
            r = next(r for r in (pow(x, (q - 1) // p, q) for x in range(2, q)) if r != 1)
            out.append((q, r))
            modulus *= q
        q -= 2 * p
    return out


def _det_coeffs_mod(vecs, p: int, q: int, r: int) -> list[int]:
    """c_e mod q, 0 <= e <= p-2, for det' = sum_e c_e z^e, the determinant
    of the k x k matrix over Z[zeta_p] whose entries have the integer
    power-basis vectors vecs (k rows of k vectors).

    phi_t: zeta -> r^t, 1 <= t <= p-1, is a ring map Z[zeta_p] -> F_q, as
    Z[zeta_p] = Z[x]/(Phi_p) and Phi_p(r^t) = 0 in F_q: (r^t)^p - 1 =
    (r^t - 1) Phi_p(r^t) vanishes and r^t != 1.  So d_t = phi_t(det') is
    det_mod_rows of the entrywise image.  The images are packed: with P_e
    the integer holding the coefficient e mod q of every entry in its own
    slot, the image under phi_t is sum_e (r^(te) mod q) P_e, whose slots
    stay below (p - 1) q^2 < 2^w and never carry.

    The trace Tr = sum_t sigma_t, sigma_t: zeta -> zeta^t, gives the
    coefficients: Tr(z^j) is p-1 if p | j and -1 otherwise, so for
    0 <= e <= p-2, Tr(det' z^-e) = p c_e - sum_f c_f and Tr(det' z) =
    -sum_f c_f, whence c_e = (Tr(det' z^-e) - Tr(det' z)) / p.  As
    phi_1 sigma_t = phi_t, phi_1(Tr(beta)) = sum_t phi_t(beta), so mod q,
    c_e = p^-1 sum_t d_t (r^(-te) - r^t).
    """
    k = len(vecs)
    flat = [v for row in vecs for v in row]
    wb = ((p * q * q).bit_length() + 7) // 8
    packed = [int.from_bytes(b"".join((v[e] % q).to_bytes(wb, "little") for v in flat), "little")
              for e in range(p - 1)]
    pows = [pow(r, j, q) for j in range(p)]
    dets = []
    for t in range(1, p):
        image = sum(map(mul, [pows[t * e % p] for e in range(p - 1)], packed))
        buf = image.to_bytes(wb * k * k, "little")
        vals = [int.from_bytes(buf[i:i + wb], "little") % q for i in range(0, wb * k * k, wb)]
        dets.append(det_mod_rows([vals[i:i + k] for i in range(0, k * k, k)], q))
    pinv = pow(p, -1, q)
    tr_z = sum(d * pows[t] for t, d in enumerate(dets, 1))
    return [(sum(d * pows[-t * e % p] for t, d in enumerate(dets, 1)) - tr_z) * pinv % q
            for e in range(p - 1)]


def det_field(m: ExactMatrix):
    """Exact determinant over a field, from a determinant over the integers.

    Over QQ, row i times s_i, the lcm of its denominators, is integral, so
    det = det_bareiss(scaled) / prod s_i, a Fraction.

    Over Q(zeta_p), row i times s_i, the lcm of its denominators, lies over
    Z[zeta_p], and det = det' / prod s_i, det' the determinant of the
    scaled matrix A.  det' = sum_e c_e z^e is found from its residues mod
    primes q by CRT (von zur Gathen and Gerhard, Modern Computer Algebra,
    section 5.5), each residue from images in F_q (_det_coeffs_mod).  The
    bound: for an embedding sigma, |sigma(alpha)| <= ||alpha||_1, the sum of
    the |coefficients|, as |sigma(zeta)| = 1.  By Hadamard's inequality,
    |sigma(det')| = |det sigma(A)| <= prod_i sqrt(sum_j |sigma(a_ij)|^2)
    <= H = prod_i ceil(sqrt(sum_j ||a_ij||_1^2)).  The trace formula
    c_e = (Tr(det' z^-e) - Tr(det' z)) / p, each trace a sum of p-1
    conjugates times roots of unity, gives |c_e| <= 2(p-1)H/p < 2H.  With
    M, the product of the primes, above 4H, c_e is the one integer of its
    class mod M in (-M/2, M/2], since |c_e| < 2H < M/2.
    """
    _require_square(m)
    ring = m.ring
    if ring is QQ:
        scales = [lcm(*[x.denominator for x in row]) for row in m.entries]
        rows = [[x.numerator * (s // x.denominator) for x in row] for s, row in zip(scales, m.entries)]
        return Fraction(_det_rows(rows), prod(scales))
    if not isinstance(ring.zero, CycloElem):
        raise ValueError(f"det_field has no kernel over {ring.name}")
    p = ring.zero.p
    scales, vecs = zip(*map(_cleared, m.entries))
    h = 1
    for row in vecs:
        n2 = sum(sum(map(abs, v)) ** 2 for v in row)
        h *= isqrt(n2 - 1) + 1 if n2 else 0
    coeffs, modulus = [0] * (p - 1), 1
    for q, r in _split_primes(p, 4 * h):
        # CRT: keep coeffs = c mod modulus, lift to c mod modulus * q
        lift = pow(modulus, -1, q)
        coeffs = [x + modulus * ((c - x) * lift % q) for x, c in zip(coeffs, _det_coeffs_mod(vecs, p, q, r))]
        modulus *= q
    half = modulus // 2
    return CycloElem(p, [x - modulus if x > half else x for x in coeffs], prod(scales))


def adjugate(m: ExactMatrix) -> ExactMatrix:
    """Transpose of the cofactor matrix of an integer matrix, so
    M @ adj(M) = det(M) * I.  Raises ValueError over any ring but ZZ.

    Nonsingular input: fraction-free Gauss-Jordan on [M | I] with row
    pivoting.  It ends at [d * I | d * M^(-1)] with d = sign * det(M), sign
    that of the row swaps, so the right half times sign is adj(M), reached
    by exact divisions only.

    Singular input: the signed cofactors, entry (i, j) being
    (-1)^(i+j) det(M without row j and column i) by det_bareiss.  The 1x1
    case follows the empty-minor convention adj([h]) = [1].
    """
    _require_integer(m, "adjugate")
    k = m.rows
    a = [list(row) + [int(j == i) for j in range(k)] for i, row in enumerate(m.entries)]
    sign = _bareiss(a, k, jordan=True)
    if sign:
        return ExactMatrix(ZZ, [row[k:] if sign == 1 else [-x for x in row[k:]] for row in a])
    if k == 1:
        return ExactMatrix(ZZ, [[1]])
    out = [[det_bareiss(m.submatrix(j, i)) for j in range(k)] for i in range(k)]
    return ExactMatrix(ZZ, [[c if (i + j) % 2 == 0 else -c for j, c in enumerate(row)]
                            for i, row in enumerate(out)])


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
