"""Exact dense determinant and linear-solve kernels over the integers.

Matrices are dense row-major lists of lists.  One fraction-free (Bareiss)
elimination that skips the structural zeros of the banded LGV matrices
computes every count, so its cost follows the band, not the dimension.  It
takes steps two at a time by Bareiss's two-step method (Math. Comp. 22,
1968): per entry and pair of steps, three multiplications and one exact
division where two single steps take four and two.  Once a pair's second
pivot has more than `_PAIR_BITS` bits it takes single steps, whose narrower
products then cost less.  Every step first brings the next pivot row to
date, and every row update divides by its row's own scale (1 for a row no
step has touched), so each kind of step has one row update.  The same
elimination, run on [m | rhs], is the linear solve: it returns det m and
det(m) m^-1 rhs, both integral, so no Fraction is ever formed.  Its pivots
are the leading principal minors, and a zero pivot swaps in the first row
below that can replace it, which leaves every other minor readable:
`leading_minors` returns all n of them, so one elimination gives the
determinant of every leading block.  The elimination reads each row only
up to its end, one past its last nonzero: `det_bareiss`, `leading_minors`
and `solve_exact` copy their matrix and scan for the ends, and
`leading_minors_in_place` takes rows and ends from a caller that built
them (`lgv`), so a count's matrix is neither copied nor scanned.  A
multi-modular/CRT kernel with the determinant's contract is the
independent cross-check (`hexatile count --method modular`, `hexatile
bench`, the acceptance suite).  Its prime pool is a fixed, deterministic
sequence (the largest primes below 2^62, in descending order), so every
run is reproducible.
"""

from __future__ import annotations

import math
from typing import Sequence

IntMatrix = list[list[int]]


class SingularMatrixError(ArithmeticError):
    pass


def _check_square(m: Sequence[Sequence]) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def mat_mul(a, b):
    """Exact product of two integer matrices."""
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = range(len(b[0]))
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in cols] for row in a]


def _row_ends(a: IntMatrix, width: int) -> list[int]:
    """One past the last nonzero of each row of `a`, each of which must have
    `width` entries."""
    end = []
    for row in a:
        e = len(row)
        if e != width:
            raise ValueError(f"matrix rows must have {width} entries")
        while e and not row[e - 1]:
            e -= 1
        end.append(e)
    return end


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination that skips zeros."""
    a = [list(row) for row in m]
    return _eliminate(a, _row_ends(a, len(a)))[0]


def leading_minors(m: IntMatrix) -> list[int]:
    """The n leading principal minors of m, from the 1 x 1 one up, by one
    elimination of a copy of m (see `leading_minors_in_place`)."""
    a = [list(row) for row in m]
    return leading_minors_in_place(a, _row_ends(a, len(a)))


def leading_minors_in_place(rows: IntMatrix, ends: list[int]) -> list[int]:
    """The n leading principal minors of the n x n matrix `rows`, from the
    1 x 1 one up, by one elimination of `rows` itself.

    The rows are consumed: they are left part-eliminated, and `ends` with
    them.  Each ends[i] must be at least one past the last nonzero of
    rows[i]: the elimination reads no entry of a row past its end.  A caller
    that builds the rows knows their ends and so skips the scan that
    `leading_minors` makes for them.

    Bareiss's pivot at step k is the leading (k+1)-minor (Bareiss, Math.
    Comp. 22, 1968), and `_eliminate` leaves it on the diagonal.  A row swap
    at step s brings in row r, the first row with a nonzero in column s:
    rows s..r-1 are zero there, so every leading minor of size s+1..r is 0.
    Past r the swap stays inside the leading block and only flips the
    minor's sign.  After a singular stop every larger minor is 0 too.  So
    every minor is known, and the last is the determinant.
    """
    n = len(rows)
    det, swaps = _eliminate(rows, ends)
    if not n:
        return []
    minors = [rows[k][k] for k in range(n - 1)] + [det]
    if 0 in minors:  # from a singular stop's zero pivot on, every minor is 0
        k = minors.index(0)
        minors[k:] = [0] * (n - k)
    for s, r in swaps:  # the minors of size s+1..r are 0; larger ones but det flip sign
        minors[s:r] = [0] * (r - s)
        minors[r:-1] = [-v for v in minors[r:-1]]
    return minors


# Steps k and k+1 are taken as one while the second pivot has at most this
# many bits (see `_eliminate`).  Past it a pair's products of 2m- by m-bit
# numbers cost more than two steps' m- by m-bit ones: in three sweeps with
# no bound, the boxed (40, 40, 40) and (60, 60, 60) matrices of `hexatile
# bench`, whose pivots pass 1,800 bits, took 7-12% and 16-21% longer than
# single steps alone.  Of 256, 512 and 1024 bits, 512 was the fastest in
# five of those six comparisons.  On one pass of each benchmark workload
# (seed 1), with each count in the orientation `lgv._det` picks, the bound
# declines 6 of 8,492 pairs, all in `count`; every bound measured level on
# those workloads.
_PAIR_BITS = 512


def _eliminate(a: IntMatrix, end: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """(det, swaps) for the leading n x n block of the n rows `a`, eliminated
    in place; swaps lists each row swap as (step, row brought up).

    Every row has at least n entries; columns past n (an augmented
    right-hand side) are carried along.  end[i] is at least one past the
    last nonzero of row i (`_row_ends` finds it), and it is updated in
    place with the row.  Bareiss's two-step method (Math. Comp. 22, 1968)
    takes steps k and k+1 together.  Every step k first
    brings row k+1, the pivot row of step k+1, to step k+1 at scale p0: the
    last row too, and a row with a_{k+1,k} = 0 is only rescaled.  With its
    pivot p1 != 0 every lower row i with a nonzero a_ik is then updated once,
        a_ij <- (p1 p0 a_ij - p1 a_ik a_kj - at[i] g a_{k+1,j}) // (at[i] p0),
        g = (p0 a_{i,k+1} - a_ik a_{k,k+1}) // at[i],
    three multiplications and one exact division per entry where two single
    steps take four and two.  A row with a_ik = 0 takes step k+1 alone.  One
    step is taken instead when p1 = 0 (step k+1 swaps rows), when k+1 is the
    last row, or when p1 has more than `_PAIR_BITS` bits.

    A step eliminates only the rows with a nonzero in its column, and
    updates each of them only up to one past the last nonzero column of it
    or of the pivot rows (`end`).  A row skipped at some steps is scaled
    lazily: `at[i]` is the divisor its entries are currently scaled to.
    Sylvester's identity makes every division exact, also when a stale row
    catches up: its next update divides by `at[i]` instead of the current
    `prev`, and a stale pivot row (or last entry) is brought up to date by
    `x * prev // at[i]`.  Every update divides by `at[i]`, which is 1 for a
    row no step has updated, so there is no divide-by-one case.  On a
    banded LGV matrix the work is about n * band^2 instead of n^3 / 3.
    Afterwards every row k is upper triangular from column k on, each row at
    one scale of its own.  A zero
    pivot swaps in the first row below with a nonzero in its column; each
    pivot is brought up to scale before it is used, so the diagonal a[k][k]
    is the leading (k+1)-minor of the rows as swapped.  Returns det 0,
    leaving `a` part-eliminated with a[k][k] = 0 at the step k where it
    stopped, when the block is singular.
    """
    n = len(a)
    swaps: list[tuple[int, int]] = []
    if n < 2:
        return (a[0][0] if n else 1), swaps
    at = [1] * n
    sign = 1
    prev = 1
    k = 0
    while k < n - 1:
        row_k = a[k]
        if not row_k[k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], row_k
                    end[k], end[r] = end[r], end[k]
                    at[k], at[r] = at[r], at[k]
                    swaps.append((k, r))
                    sign = -sign
                    break
            else:
                return 0, swaps
            row_k = a[k]
        ek = end[k]
        s = at[k]
        if s != prev:
            for j in range(k, ek):
                row_k[j] = row_k[j] * prev // s
        pivot = row_k[k]
        k1 = k + 1
        # Each row update below is written out where it is used: a call per
        # row made the small matrices of `verify` and `oracle` about 4% slower.
        # Row k+1, the pivot row of step k+1, goes to step k+1 at scale pivot;
        # with a1k = 0 that is the lazy catch-up x * pivot // at[k1]
        row_1 = a[k1]
        a1k = row_1[k]
        if a1k and end[k1] < ek:
            end[k1] = ek
        e1 = end[k1]
        s = at[k1]
        if a1k or s != pivot:
            for j in range(k1, e1):
                row_1[j] = (row_1[j] * pivot - a1k * row_k[j]) // s
            at[k1] = pivot
        p1 = row_1[k1]
        if k1 < n - 1 and p1 and p1.bit_length() <= _PAIR_BITS:
            k2 = k1 + 1
            alpha = p1 * pivot
            akk1 = row_k[k1]
            e2 = e1 if e1 > ek else ek
            for i in range(k2, n):
                row_i = a[i]
                aik = row_i[k]
                if aik:
                    e = end[i]
                    if e < e2:
                        e = end[i] = e2
                    s = at[i]
                    beta = p1 * aik
                    gamma = (pivot * row_i[k1] - aik * akk1) // s * s  # at[i] g
                    q = s * pivot
                    for j in range(k2, e):
                        row_i[j] = (alpha * row_i[j] - beta * row_k[j] - gamma * row_1[j]) // q
                    at[i] = p1
                else:
                    ai1 = row_i[k1]
                    if ai1:  # step k+1 alone
                        e = end[i]
                        if e < e1:
                            e = end[i] = e1
                        s = at[i]
                        for j in range(k2, e):
                            row_i[j] = (row_i[j] * p1 - ai1 * row_1[j]) // s
                        at[i] = p1
            prev = p1
            k = k2
            continue
        for i in range(k1 + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if aik:
                e = end[i]
                if e < ek:
                    e = end[i] = ek
                s = at[i]
                for j in range(k1, e):
                    row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // s
                at[i] = pivot
        prev = pivot
        k = k1
    last = a[-1][n - 1]
    s = at[-1]
    if s != prev:
        last = last * prev // s
    return sign * last, swaps


# --- multi-modular kernel ---------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 3.3e24


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_CACHE: list[int] = []


def _pool_prime(k: int) -> int:
    """Prime k (from 0) of the fixed pool, the largest primes below 2^62 in
    descending order, found on first use."""
    candidate = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else (1 << 62) - 1
    while len(_PRIME_CACHE) <= k:
        if _is_prime(candidate):
            _PRIME_CACHE.append(candidate)
        candidate -= 2
    return _PRIME_CACHE[k]


def _det_mod(m: IntMatrix, p: int) -> int:
    n = len(m)
    a = [[x % p for x in row] for row in m]
    det = 1
    for k in range(n):
        piv = k
        while piv < n and a[piv][k] == 0:
            piv += 1
        if piv == n:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = p - det
        pivot = a[k][k]
        det = det * pivot % p
        inv = pow(pivot, p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k]
            if f == 0:
                continue
            f = f * inv % p
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] - f * row_k[j]) % p
    return det


def _hadamard_bound(m: IntMatrix) -> int:
    bound = 1
    for row in m:
        norm_sq = sum(x * x for x in row)
        if norm_sq == 0:
            return 0
        s = math.isqrt(norm_sq)
        if s * s < norm_sq:
            s += 1
        bound *= s
    return bound


def det_modular(m: IntMatrix) -> int:
    """Same value as det_bareiss, via residues mod 62-bit primes and CRT.

    The prime product is grown past twice the Hadamard bound, so the
    symmetric CRT representative is the exact determinant.
    """
    n = _check_square(m)
    if n == 0:
        return 1
    bound = _hadamard_bound(m)
    if bound == 0:
        return 0
    target = 2 * bound + 1
    residue, modulus, k = 0, 1, 0
    while modulus < target:  # CRT merge, one pool prime at a time
        p = _pool_prime(k)
        residue += modulus * ((_det_mod(m, p) - residue) * pow(modulus, -1, p) % p)
        modulus *= p
        k += 1
    residue %= modulus
    if residue > modulus // 2:
        residue -= modulus
    return residue


def solve_exact(m: IntMatrix, rhs: IntMatrix) -> tuple[int, IntMatrix]:
    """(delta, Y) with delta = det m and m Y = delta rhs, all in integers.

    One fraction-free elimination of [m | rhs] gives delta, signed by its
    row swaps.  Y = delta m^-1 rhs is integral by Cramer's rule, so each
    back-substitution division is exact.  The eliminated rows keep the
    scales the lazy elimination left them at; scaling an equation does not
    change its solution, so they are read as they are.  Raises
    SingularMatrixError when m is singular.
    """
    n = _check_square(m)
    if len(rhs) != n:
        raise ValueError("rhs has incompatible dimensions")
    r = len(rhs[0]) if rhs else 0
    aug = [list(m[i]) + list(rhs[i]) for i in range(n)]
    delta = _eliminate(aug, _row_ends(aug, n + r))[0]
    if not delta:
        raise SingularMatrixError("matrix is singular")
    y: IntMatrix = [[]] * n
    for k in range(n - 1, -1, -1):
        row = aug[k]
        known = [(row[t], y[t]) for t in range(k + 1, n) if row[t]]
        y[k] = [(delta * row[n + j] - sum(u * yt[j] for u, yt in known)) // row[k]
                for j in range(r)]
    return delta, y
