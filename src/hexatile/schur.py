"""MacMahon-matrix structure: LU factorization, explicit inverse, and the
block reduction of the intrusion determinant to a small d x d matrix F.

Everything is an integer.  Each displayed matrix or sum is kept once, scaled
by a positive factor.  With r_i = (b+1)_{i-1}, s_j = (c+1)_{j-1} and
W = (a-1)! (b+c+a-1)!, the bundle holds diag(r) L, diag(r) U = diag(r) L.M,
T diag(s), and the diagonal of D as the list W D_kk / (r_k s_k), so that
T diag(s) . diag(that list) . diag(r) L = W M^-1.  The inverse's single sum
and the double and triple sums return W times their entry.  The blocks Q1-Q4
are integer matrices, and the complement is scaled by delta = det Q2:
Y = delta Q2^-1 Q1 and Fp = delta F.  The displayed double sums and their
inner sums are memoized (bounded) on their arguments, so a sweep of checks
evaluates each distinct term once.
verify_sum_formula is cross-multiplied: its summands are scaled by their
common factorial denominator and compared with the right side's numerator
over (b+c)_a.

The blocks have one memo, kept by (a, b, c, p) with the depth d free: Q2
depends on (a, b, c) alone, and row i of Q3 and column j of Q1 on their own
index and p, so the blocks at every depth e <= d are leading parts of those
at d, and so is Fp.  build_blocks records the count at every e <= d from the
leading minors of its Fp, and the memo keeps of it what count_via_F and
verify_triple_sum read: the counts, delta, Y and Q3.

count_via_inverse is the memo-free route to E and O, in either parity:
qfit.cross_validate's source of truth, and lgv.count's for a large point
that misses its line memo.  It is MacMahon's product (formulas.macmahon)
times det(S F) / S^d, with S = (b+c+a-1)! / (b! c!), a divisor of W.
S F = S Q4 - Q3 (S M^-1) Q1 is built as a d x d integer matrix straight from
the explicit inverse's Toeplitz factors, with no solve, no Y, no path matrix
and no endpoints.  Its algebra needs only M invertible, so it holds at every
a, b, c, d >= 0 and every integer p, as lgv.count's domain does.  The odd
blocks are the even ones shifted by the odd needle's offset o = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial
from operator import mul, neg
from typing import NamedTuple

from .detkernel import IntMatrix, det_bareiss, leading_minors, mat_mul, solve_exact
from .exactmath import NotIntegerError, OutOfValidityError, as_int, binom, rising
from .hexmodel import EVEN, ODD, _check_spec


@dataclass(frozen=True)
class MacMahonBundle:
    """M_ij = C(b+c, b+i-j) and its factors U = L.M and M^-1 = T.D.L, each
    scaled to integers as the module docstring says; D is a list."""

    a: int
    b: int
    c: int
    M: IntMatrix
    L: IntMatrix
    T: IntMatrix
    D: list
    U: IntMatrix


@dataclass(frozen=True)
class BlockDecomposition:
    """The blocks at depth d, their complement, and counts: E at each e <= d."""

    Q1: list
    Q2: list
    Q3: list
    Q4: list
    delta: int  # det Q2 = M(a, b, c)
    Y: list  # delta Q2^-1.Q1, integral
    Fp: list  # delta F = delta Q4 - Q3.Y
    counts: list  # E at depth 0..d, None where det(Fp_e) delta / delta^e leaves a remainder


def inverse_scale(a: int, b: int, c: int) -> int:
    """W = (a-1)! (b+c+a-1)!, which makes W M^-1 integral (1 when a = 0)."""
    return factorial(a - 1) * factorial(b + c + a - 1) if a else 1


def _macmahon_matrix(a: int, b: int, c: int) -> IntMatrix:
    """M_ij = C(b+c, b+i-j) for i, j = 1..a: the bundle's M and the blocks' Q2."""
    rng = range(1, a + 1)
    return [[binom(b + c, b + i - j) for j in rng] for i in rng]


def build_bundle(a: int, b: int, c: int) -> MacMahonBundle:
    """M and its scaled factors: L_ij = (-1)^(i+j) C(i-1,j-1) (c)_{i-j} (b+1)_{j-1},
    U_ij = (j-i+1)_{i-1} C(b+c+i-1, c+j-1), T_ij = (-1)^(i+j) C(j-1,i-1)
    (b)_{j-i} (c+1)_{i-1} and D_k = b! c! (k)_{a-k} (b+c+k)_{a-k}."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("a, b, c must be nonnegative")
    rng = range(1, a + 1)
    M = _macmahon_matrix(a, b, c)
    L = [[(-1) ** (i + j) * binom(i - 1, j - 1) * rising(c, i - j) * rising(b + 1, j - 1)
          if j <= i else 0 for j in rng] for i in rng]
    T = [[(-1) ** (i + j) * binom(j - 1, i - 1) * rising(b, j - i) * rising(c + 1, i - 1)
          if i <= j else 0 for j in rng] for i in rng]
    D = [factorial(b) * factorial(c) * rising(k, a - k) * rising(b + c + k, a - k) for k in rng]
    # C(b+c+i-1, c+j-1) vanishes for j > b+i, where U has its zeros
    U = [[rising(j - i + 1, i - 1) * binom(b + c + i - 1, c + j - 1) for j in rng] for i in rng]
    return MacMahonBundle(a=a, b=b, c=c, M=M, L=L, T=T, D=D, U=U)


def verify_inverse(bundle: MacMahonBundle) -> bool:
    """Check U = L.M, M.X = W I for X = T.diag(D).L, and X entrywise against
    (-1)^(i+j) (b+j-1)! (c+i-1)! times the scaled inner sum."""
    a, b, c = bundle.a, bundle.b, bundle.c
    if mat_mul(bundle.L, bundle.M) != bundle.U:
        return False
    x = mat_mul(bundle.T, [[dk * v for v in row] for dk, row in zip(bundle.D, bundle.L)])
    w = inverse_scale(a, b, c)
    if mat_mul(bundle.M, x) != [[w if i == j else 0 for j in range(a)] for i in range(a)]:
        return False
    rng = range(1, a + 1)
    return all(
        x[i - 1][j - 1]
        == (-1) ** (i + j) * factorial(b + j - 1) * factorial(c + i - 1) * _inner_sum(a, b, c, i, j)
        for i in rng for j in rng
    )


def _check_blocks(a: int, b: int, c: int, d: int) -> None:
    """The blocks' domain, a >= 1 and b, c, d >= 0, else a ValueError; the
    memo checks it before it reads an entry."""
    if a < 1 or min(b, c, d) < 0:
        raise ValueError("block decomposition needs a >= 1 and b, c, d >= 0")


def build_blocks(a: int, b: int, c: int, d: int, p: int) -> BlockDecomposition:
    """Q1-Q4 blocks of the even-intrusion matrix, delta = det Q2, Y = delta
    Q2^-1.Q1, Fp = delta Q4 - Q3.Y, all integers, and the count at every
    e <= d, det(Fp_e) delta / delta^e with Fp_e Fp's leading e x e block."""
    _check_blocks(a, b, c, d)
    q1 = [[binom(2 * j - 1, -i + j + p) for j in range(1, d + 1)] for i in range(1, a + 1)]
    q2 = _macmahon_matrix(a, b, c)
    q3 = [[binom(b + c - 2 * i + 1, c - i + j - p) for j in range(1, a + 1)] for i in range(1, d + 1)]
    q4 = [[binom(2 * (j - i), j - i) for j in range(1, d + 1)] for i in range(1, d + 1)]
    delta, y = solve_exact(q2, q1)
    fp = [[delta * x - z for x, z in zip(r4, rz)] for r4, rz in zip(q4, mat_mul(q3, y))]
    counts = []
    for e, minor in enumerate([1] + leading_minors(fp)):  # [1]: the empty Fp
        count, rest = divmod(minor * delta, delta**e)
        counts.append(None if rest else count)
    return BlockDecomposition(Q1=q1, Q2=q2, Q3=q3, Q4=q4, delta=delta, Y=y, Fp=fp, counts=counts)


class _Kept(NamedTuple):
    """The fields of a BlockDecomposition that the block memo keeps."""

    counts: list
    delta: int
    Y: list
    Q3: list


# The block memo, (a, b, c, p) -> the _Kept of build_blocks' result, and its
# bound.  One `hexatile verify all` pass builds 350 entries:
# complement_block_count asks for each (a, b, c) from its largest d down, and
# inverse_entry_sums reads the entries it left.  The largest fill measured,
# CI's `verify schur` at 6/7/7/5, is 1,323 entries.
_BLOCKS: dict = {}
_BLOCKS_MAX = 4096


def _complement(a: int, b: int, c: int, d: int, p: int) -> _Kept:
    """The memo entry of (a, b, c, p), built at depth d or deeper: a miss, or
    an entry built shallower, builds the blocks at d once, after clearing the
    memo if it holds its bound."""
    _check_blocks(a, b, c, d)  # a negative d must not read a stored entry
    key = (a, b, c, p)
    blocks = _BLOCKS.get(key)
    if blocks is not None and d < len(blocks.counts):
        return blocks
    if len(_BLOCKS) >= _BLOCKS_MAX:
        _BLOCKS.clear()
    blocks = build_blocks(a, b, c, d, p)
    blocks = _BLOCKS[key] = _Kept(blocks.counts, blocks.delta, blocks.Y, blocks.Q3)
    return blocks


def count_via_F(a: int, b: int, c: int, d: int, p: int) -> int:
    """E(a,b,c,d,p) = det(F) det(Q2) = det(Fp) / delta^(d-1) (det of empty Fp
    is 1), read from the block memo."""
    count = _complement(a, b, c, d, p).counts[d]
    if count is None:
        raise NotIntegerError(f"count_via_F is not an integer at {(a, b, c, d, p)}")
    return count


def count_via_inverse(a: int, b: int, c: int, d: int, p: int, parity: str = EVEN) -> int:
    """E(a,b,c,d,p) (parity EVEN) or O(a,b,c,d,p) (ODD) = M(a,b,c) det(S F) /
    S^d for every a, b, c, d >= 0 and every integer p, with no solve and no
    memo.

    With o = 1 for odd intrusions, else 0, the blocks are those of
    lgv.path_matrix: row i of Q3 is C(b+c+1-2i-o, c-i+t-p-o) over t,
    column j of Q1 is C(2j-1-o, j-l+p) over l, and Q4 is C(2(j-i-o), j-i-o),
    unitriangular for even intrusions and strictly upper triangular for odd.

    build_bundle's T.diag(D).L = W M^-1 is, with its factorials (k-1)!
    moved to the middle, M^-1 = T' diag(1/m_k) L' for the integer matrices
    T' = diag(C(c+t-1, t-1)) H_b and L' = H_c^T diag(C(b+l-1, l-1)), where
    H_x is the upper triangular Toeplitz matrix of (1+z)^-x and m_k is the
    multinomial (b+c+k-1)! / (b! c! (k-1)!).  S = (b+c+a-1)! / (b! c!), a
    divisor of W, clears every 1/m_k to the weight (k-1)! (b+c+k)_{a-k}.  So
    S F = S Q4 - Q3 (S M^-1) Q1 is a d x d integer matrix.  Its entry (i, j)
    is a short dot product of column j of Q1, nonzero on at most 2j rows,
    with row i of Q3 T' diag(weights) H_c^T, built only at those rows.

    A point with p + o < 0 is counted at its mirror image, (a, c, b, d,
    a-o-p): E(a,b,c,d,p) = E(a,c,b,d,a-p) and O(a,b,c,d,p) =
    O(a,c,b,d,a-1-p), and S F itself is the same matrix there.  After it
    every row has m = i+p+o-1 >= 0.

    Only what reaches S F is built.  Q1's columns have their nonzeros in
    rows lo..hi, lo = max(1, p+1-d+o) and hi = min(a, p+d), so the weights
    are taken only for k = lo..a and the series of (1+z)^-c only up to
    a - lo; with lo > hi, Q1 is zero and S F is S Q4.  Row i of Q3 is
    nonzero only at columns first..last, and its row of Q3 T' is built
    there alone, its running sums from column first on, since the columns
    below it are zero and stay zero; a row with first > last adds nothing.
    Q1's columns are taken on their rows lo_j..hi_j with their signs set by
    slice, and Q4's entries only where they are nonzero, j >= i + o.

    Row i of Q3 T' is the series of u(z) (1+z)^-b with u_t = Q3[i, t]
    C(c+t-1, t-1), and with the signs (-1)^t moved onto u, each factor
    (1+z)^-1 is one running sum.  u(z) has the factor (1+z)^e, e =
    b+1-2i-o, of either sign.  Proof: with N = b+c+1-2i-o >= 0 (else the
    row is zero) and m >= 0, the sum over t >= 1 of u_t z^(t-1) is
    D^c[z^m (1+z)^N] / c!, which Leibniz's rule writes as the sum over j of
    C(m, j) z^(m-j) C(N, c-j) (1+z)^(N-c+j): (1+z)^(N-c) = (1+z)^e times
    the sum over j of C(m, j) C(N, c-j) z^(m-j) (1+z)^j, whose coefficient
    of z^(m-s) is C(m, s) C(N+m-s, c-s) by Vandermonde's sum, a polynomial
    q(z) of degree <= m; with m >= 0 no negative power of z arises, and
    neither step asks e > 0 (Krattenthaler's identification of factors,
    "Advanced determinant calculus", 1999, section 2.4).  So u(z) (1+z)^-b
    = q(z) (1+z)^-(2i-1+o), and the signed q is (-1)^t C(m, t-1)
    C(N+t-1, c+t-1-m) at column t, 0 past column i+p+o.  Every row is
    built in that form on columns first..min(a, i+p+o), two binomials a
    column, and takes 2i-1+o running sums over columns first..a: about
    (2i-1+o)(a+1-first) additions, whatever b, and its weighted correlation
    with H_c^T about 2 d (a - lo) products.  With m < 0 the series has
    negative powers and no such cut, hence the mirror.
    At a = 0 the count is det Q4: 1 for even intrusions and at d = 0, and 0
    for odd ones with d > 0.  A negative side or an unknown parity is a
    ValueError, as in lgv.count, and a remainder raises NotIntegerError.
    """
    from .formulas import macmahon  # formulas imports schur

    _check_spec(a, b, c, d, parity)
    o = parity == ODD
    if a == 0:
        return 0 if o and d else 1
    spec = (a, b, c, d, p, parity)  # as asked, for the error below
    if p + o < 0:  # the mirror image, where m >= 0 on every row
        b, c, p = c, b, a - o - p
    scale = comb(b + c, b) * rising(b + c + 1, a - 1)
    # column j of Q1 has its nonzeros at rows max(1, p+1-j+o)..min(a, p+j),
    # so (S M^-1) Q1 reads only columns lo..a of Q3 T' diag(weights), and
    # L' Q1 only rows lo..hi of the correlation of those columns with h_c
    lo, hi = max(1, p + 1 - d + o), min(a, p + d)
    near = [[]] * d  # with lo > hi, Q1 is zero and S F is S Q4
    if lo <= hi:
        # the weights (k-1)! (b+c+k)_{a-k} for k = lo..a, shared by the d rows
        tails = [*accumulate(range(b + c + a - 1, b + c + lo - 1, -1), mul, initial=1)]
        facts = accumulate(range(lo, a), mul, initial=factorial(lo - 1))
        weights = [*map(mul, facts, reversed(tails))]
        # C(c-1+k, k), the series of (1+z)^-c unsigned (the unit series at c = 0):
        # the sign (-1)^l moves onto Q1
        h_c = [*map(comb, range(c - 1, c + a - lo), range(a - lo + 1))] if c else [
            1, *repeat(0, a - lo)]
        near = []  # (-1)^l times row i of Q3 T' diag(weights) H_c^T at columns lo..hi
        for i in range(1, d + 1):
            # row i of Q3, C(b+c+1-2i-o, c-i+t-p-o), is nonzero only at columns first..last
            top, shift = b + c + 1 - 2 * i - o, c - i - p - o
            first, last = max(1, -shift), min(a, top - shift)
            if first > last:
                near.append([0] * (hi - lo + 1))
                continue
            # (-1)^k times the coefficient of z^k in u(z) (1+z)^-b: 2i-1+o
            # running sums of the closed form q above, 0 past column m+1
            m, stop = i + p + o - 1, min(a, i + p + o)
            u = [*map(mul, map(comb, repeat(m), range(first - 1, stop)),
                      map(comb, range(top + first - 1, top + stop),
                          range(first + shift, stop + shift + 1)))]
            u[1 - first % 2::2] = map(neg, u[1 - first % 2::2])  # the odd t
            u += repeat(0, a - stop)
            for _ in range(2 * i - 1 + o):
                u = [*accumulate(u)]
            row = [*map(mul, weights, u[lo - first:])] if lo >= first else [
                *repeat(0, first - lo), *map(mul, weights[first - lo:], u)]  # columns lo..a
            near.append([sum(map(mul, row[l - lo:], h_c)) for l in range(lo, hi + 1)])
    sf = []  # S F transposed, which has the same determinant
    for j in range(1, d + 1):
        # (-1)^l C(b+l-1, l-1) times column j of Q1, C(2j-1-o, j-l+p), at its rows
        lo_j, hi_j = max(1, p + 1 - j + o), min(a, p + j)
        v = [*map(mul, map(comb, range(b + lo_j - 1, b + hi_j), range(lo_j - 1, hi_j)),
                  map(comb, repeat(2 * j - 1 - o), range(j + p - lo_j, j + p - hi_j - 1, -1)))]
        v[1 - lo_j % 2::2] = map(neg, v[1 - lo_j % 2::2])  # the odd l
        sf.append([(scale * comb(2 * (j - i - o), j - i - o) if i + o <= j else 0)
                   - sum(map(mul, v, row[lo_j - lo:])) for i, row in enumerate(near, 1)])
    return as_int(f"count_via_inverse at {spec}",
                  macmahon(a, b, c) * det_bareiss(sf), scale**d)


# Read by verify_inverse and double_sum_entry.  The bound: a `verify all`
# pass at the CLI defaults holds 750 entries in 2,466 calls, and one at
# (6, 6, 6, 4) 3,276 in 4,992; the identity registry asks for none.
@lru_cache(maxsize=4096)
def _inner_sum(a: int, b: int, c: int, i: int, l: int) -> int:
    # W times the sum over k of the M^-1-shaped kernel: W / ((k-1)! (b+c+k-1)!)
    # is (k)_{a-k} (b+c+k)_{a-k}, and k starts where both binomials do
    return sum(
        binom(k - 1, i - 1) * binom(k - 1, l - 1) * rising(b, k - i) * rising(c, k - l)
        * rising(k, a - k) * rising(b + c + k, a - k)
        for k in range(max(i, l), a + 1)
    )


# Read by the inverse_entry_sums check, whose box stops at a, b, c = 4 and
# i, j = 2: a `verify all` pass holds 832 entries in 1,976 calls, at the CLI
# defaults and at (6, 6, 6, 4) alike.
@lru_cache(maxsize=4096)
def double_sum_entry(a: int, b: int, c: int, p: int, i: int, j: int) -> int:
    """W times the (i,j)-entry of Q2^-1.Q1, as the displayed double sum (1-based)."""
    out = 0
    for l in range(1, a + 1):
        outer = binom(2 * j - 1, l + j - p - 1)
        if outer:
            out += ((-1) ** (i + l) * factorial(b + l - 1) * factorial(c + i - 1) * outer
                    * _inner_sum(a, b, c, i, l))
    return out


def triple_sum_entry(a: int, b: int, c: int, p: int, i: int, j: int) -> int:
    """W times the (i,j)-entry of Q3.Q2^-1.Q1, as the displayed triple sum (1-based)."""
    out = 0
    for t in range(1, a + 1):
        outer = binom(b + c - 2 * i + 1, c - i + t - p)
        if outer:
            out += outer * double_sum_entry(a, b, c, p, t, j)
    return out


def verify_triple_sum(a: int, b: int, c: int, p: int, i: int, j: int) -> bool:
    """Check the double- and triple-sum displays against direct linear algebra:
    delta times a display is W times the matching entry of Y or Q3.Y, read
    from the block memo's leading parts.  The indices are 1-based: i or j
    below 1 is a ValueError."""
    if i < 1 or j < 1:
        raise ValueError(f"the indices are 1-based, not (i, j) = ({i}, {j})")
    blocks = _complement(a, b, c, max(i, j), p)
    delta, y = blocks.delta, blocks.Y
    w = inverse_scale(a, b, c)
    if i <= a and delta * double_sum_entry(a, b, c, p, i, j) != w * y[i - 1][j - 1]:
        return False
    q3y = sum(q * row[j - 1] for q, row in zip(blocks.Q3[i - 1], y))
    return delta * triple_sum_entry(a, b, c, p, i, j) == w * q3y


def verify_sum_formula(a: int, b: int, c: int, p: int) -> bool:
    """Check the closed summation identity extracted from F_{1,1} at d=1.

    The k = p summand contains (c)_{-1} = 1/(c-1), so the display requires
    c >= 2 when p >= 1 (the c = 1 singularity is removable but the printed
    form is literally 0/0 there); p = 0 requires c >= 1 and the whole
    identity needs b+p >= 1 and, for its (b+c+k-1)! and (b+c)_a, b+c >= 1.

    Both sides are compared in integers.  Every summand is scaled by
    (a-1)! (b+c+a-1)!, and by c-1 when p >= 1, where
    (c-1) (c)_{k-p-1} = (c-1)_{k-p} also at k = p; the second display's
    coefficient -bk/p + b+c-1 is scaled by p, and the p = 0 variant by
    (b+c+a-1)!.  The right side is rhs_num / (b+c)_a.
    """
    if (a < 1 or p < 0 or b + p < 1 or (p >= 1 and c < 2) or (p == 0 and c < 1)
            or b + c < 1):
        raise OutOfValidityError("outside the displayed sum's pole-free window")

    bc_a = rising(b + c, a)
    # binom(a, a-p) vanishes for p > a, where (c)_{a-p} has a negative index
    rhs_num = bc_a - (binom(a, a - p) * rising(b, p) * rising(c, a - p) if p <= a else 0)
    scale = factorial(a - 1) * factorial(b + c + a - 1) * (c - 1 if p else 1)

    def outer(coef):
        # coef(k) times (a-1)!/(k-1)! (b+c+a-1)!/(b+c+k-1)! and the scaled
        # (c)_{k-p-1}; every coef vanishes for k < p, so no index is negative
        w = {}
        for k in range(1, a + 1):
            ck = coef(k)
            if ck:
                cpart = rising(c - 1, k - p) if p else rising(c, k - 1)
                w[k] = ck * rising(k, a - k) * rising(b + c + k, a - k) * cpart
        total = 0
        for t in range(1, a + 1):
            inner = sum(wk * rising(b, k - t) * binom(k - 1, t - 1) for k, wk in w.items() if k >= t)
            total += (-1) ** t * binom(b + c - 1, c - p + t - 1) * factorial(c + t - 1) * inner
        return (-1) ** p * factorial(b + p - 1) * total

    lhs = outer(lambda k: -(b + p) * binom(k - 1, p) + (c + k - p - 1) * binom(k - 1, p - 1))
    if lhs * bc_a != rhs_num * scale:
        return False

    if p == 0:
        variant = 0
        for t in range(0, a):
            inner = sum(
                rising(b, k - t) * binom(k, t) * binom(c + k - 1, k) * rising(b + c + k + 1, a - 1 - k)
                for k in range(t, a)
            )
            variant += (-1) ** t * rising(b - t, c + t) * inner
        return factorial(b) * variant * bc_a == (bc_a - rising(c, a)) * factorial(b + c + a - 1)
    lhs2 = outer(lambda k: (p * (b + c - 1) - b * k) * binom(k - 1, p - 1))
    return lhs2 * bc_a == rhs_num * scale * p
