"""Exact dense determinant and linear-solve kernels over the integers.

Matrices are dense row-major lists of lists.  One fraction-free (Bareiss)
elimination that skips the structural zeros of the banded LGV matrices
computes every count, so its cost follows the band, not the dimension.  The
same elimination, run on [m | rhs], is the linear solve: it returns
det m and det(m) m^-1 rhs, both integral, so no Fraction is ever formed.
Its pivots are the leading principal minors: `leading_minors` reads them
off up to the first zero pivot, so one elimination also gives the
determinant of every leading block up to there, and of the whole matrix.  A
multi-modular/CRT kernel with the determinant's contract is the independent
cross-check (`hexatile count --method modular`, `hexatile bench`, the
acceptance suite).  Its prime pool is a fixed, deterministic sequence (the
largest primes below 2^62, in descending order), so every run is
reproducible.
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


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Exact product of two integer matrices."""
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = range(len(b[0]))
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in cols] for row in a]


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination that skips zeros."""
    n = len(m)
    return _eliminate([list(row) for row in m], n, n)[0]


def leading_minors(m: IntMatrix) -> list:
    """The n leading principal minors of m, from the 1 x 1 one up, by one
    elimination; None where the elimination does not give one.

    Bareiss's pivot at step k is the leading (k+1)-minor (Bareiss, Math.
    Comp. 22, 1968), and `_eliminate` leaves it on the diagonal.  That holds
    up to the first zero pivot, a vanishing minor, whose entry is 0.  Past
    it a row swap permutes the rows, so those minors are None, except the
    last, which is always the determinant.
    """
    n = len(m)
    a = [list(row) for row in m]
    det, clean = _eliminate(a, n, n)
    if clean < n:
        return [a[k][k] for k in range(clean)] + [0] + [None] * (n - 2 - clean) + [det]
    return [a[k][k] for k in range(n - 1)] + [det] if n else []


def _eliminate(a: IntMatrix, n: int, width: int) -> tuple[int, int]:
    """(det, clean) for the leading n x n block of the n rows `a`, eliminated
    in place; clean is the step of the first zero pivot, n if none before
    the last step.

    Every row must have `width` >= n entries; columns past n (an augmented
    right-hand side) are carried along.  Step k eliminates only the rows with a
    nonzero in column k, and updates each of them only up to one past the
    last nonzero column of it or of the pivot row (`end`).  A row skipped at
    some steps is scaled lazily: `at[i]` is the divisor its entries are
    currently scaled to.  Sylvester's identity makes every division exact,
    also when a stale row catches up: its next update divides by `at[i]`
    instead of the current `prev`, and a stale pivot row (or last entry) is
    brought up to date by `x * prev // at[i]`.  On a banded LGV matrix the
    work is about n * band^2 instead of n^3 / 3.  Afterwards every row k is
    upper triangular from column k on, each row at one scale of its own.
    Each pivot is brought up to scale before it is used, so up to step
    clean the diagonal a[k][k] is the leading (k+1)-minor.  Returns det 0,
    leaving `a` part-eliminated, when the block is singular.
    """
    end = []
    for row in a:
        e = len(row)
        if e != width:
            raise ValueError(f"matrix rows must have {width} entries")
        while e and not row[e - 1]:
            e -= 1
        end.append(e)
    if n < 2:
        return (a[0][0] if n else 1), n
    at = [1] * n
    sign = 1
    prev = 1
    clean = n
    for k in range(n - 1):
        row_k = a[k]
        if not row_k[k]:
            clean = min(clean, k)
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], row_k
                    end[k], end[r] = end[r], end[k]
                    at[k], at[r] = at[r], at[k]
                    sign = -sign
                    break
            else:
                return 0, clean
            row_k = a[k]
        ek = end[k]
        s = at[k]
        if s != prev:
            for j in range(k, ek):
                row_k[j] = row_k[j] * prev // s
        pivot = row_k[k]
        k1 = k + 1
        for i in range(k1, n):
            row_i = a[i]
            aik = row_i[k]
            if aik:
                e = end[i]
                if e < ek:
                    e = end[i] = ek
                s = at[i]
                if s == 1:  # dividing by 1 changes nothing (a row's first update)
                    for j in range(k1, e):
                        row_i[j] = row_i[j] * pivot - aik * row_k[j]
                else:
                    for j in range(k1, e):
                        row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // s
                at[i] = pivot
        prev = pivot
    last = a[-1][n - 1]
    s = at[-1]
    if s != prev:
        last = last * prev // s
    return sign * last, clean


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
    """Prime k (from 0) of the fixed pool, found on first use."""
    candidate = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else (1 << 62) - 1
    while len(_PRIME_CACHE) <= k:
        if _is_prime(candidate):
            _PRIME_CACHE.append(candidate)
        candidate -= 2
    return _PRIME_CACHE[k]


def prime_pool(count: int) -> list[int]:
    """First `count` primes of the fixed pool: largest primes below 2^62, descending."""
    return [_pool_prime(k) for k in range(count)]


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
    delta = _eliminate(aug, n, n + r)[0]
    if not delta:
        raise SingularMatrixError("matrix is singular")
    y: IntMatrix = [[]] * n
    for k in range(n - 1, -1, -1):
        row = aug[k]
        known = [(row[t], y[t]) for t in range(k + 1, n) if row[t]]
        y[k] = [(delta * row[n + j] - sum(u * yt[j] for u, yt in known)) // row[k]
                for j in range(r)]
    return delta, y
