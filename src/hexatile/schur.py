"""MacMahon-matrix structure: LU factorization, explicit inverse, and the
block reduction of the intrusion determinant to a small d x d matrix F.

The bundle's matrices are dense lists of Fractions.  The blocks Q1-Q4 are
integer matrices, and the complement is kept scaled to integers by
delta = det Q2: Y = delta Q2^-1 Q1 and Fp = delta F.  Every check is exact.
The displayed double sums and their inner sums are memoized (bounded) on
their arguments, so a sweep of checks evaluates each distinct term once.
verify_sum_formula is cross-multiplied in integers: its summands are scaled
by their common factorial denominator and compared with the right side's
numerator over (b+c)_a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .detkernel import RatMatrix, det_bareiss, identity, mat_mul, solve_exact
from .exactmath import OutOfValidityError, as_int, binom, factorial, pochhammer, rising


@dataclass(frozen=True)
class MacMahonBundle:
    a: int
    b: int
    c: int
    M: RatMatrix
    L: RatMatrix
    T: RatMatrix
    D: RatMatrix
    U: RatMatrix


@dataclass(frozen=True)
class BlockDecomposition:
    a: int
    b: int
    c: int
    d: int
    p: int
    Q1: list
    Q2: list
    Q3: list
    Q4: list
    delta: int  # det Q2 = M(a, b, c)
    Y: list  # delta Q2^-1.Q1, integral
    Fp: list  # delta F = delta Q4 - Q3.Y


def build_bundle(a: int, b: int, c: int) -> MacMahonBundle:
    """The five a x a matrices M, L, T, D, U with U = L.M and M^-1 = T.D.L."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("a, b, c must be nonnegative")
    rng = range(1, a + 1)
    M = [[Fraction(binom(b + c, b + i - j)) for j in rng] for i in rng]
    L = [
        [
            Fraction(0)
            if j > i
            else (-1) ** (i + j) * binom(i - 1, j - 1) * pochhammer(c, i - j) / pochhammer(b + j, i - j)
            for j in rng
        ]
        for i in rng
    ]
    T = [
        [
            Fraction(0)
            if i > j
            else (-1) ** (i + j) * binom(j - 1, i - 1) * pochhammer(b, j - i) / pochhammer(c + i, j - i)
            for j in rng
        ]
        for i in rng
    ]
    D = [
        [
            Fraction(factorial(b + i - 1) * factorial(c + i - 1), factorial(b + c + i - 1) * factorial(i - 1))
            if i == j
            else Fraction(0)
            for j in rng
        ]
        for i in rng
    ]
    U = []
    for i in rng:
        row = []
        for j in rng:
            lead = pochhammer(-i + j + 1, i - 1)
            if lead == 0 or b + i - j < 0:
                row.append(Fraction(0))
            else:
                row.append(
                    lead
                    * Fraction(
                        factorial(b) * factorial(b + c + i - 1),
                        factorial(b + i - 1) * factorial(c + j - 1) * factorial(b + i - j),
                    )
                )
        U.append(row)
    return MacMahonBundle(a=a, b=b, c=c, M=M, L=L, T=T, D=D, U=U)


def inverse_entry(a: int, b: int, c: int, i: int, j: int) -> Fraction:
    """(i,j)-entry of M^-1 as the explicit single sum (1-based indices)."""
    return (-1) ** (i + j) * factorial(b + j - 1) * factorial(c + i - 1) * _inner_sum(a, b, c, i, j)


def verify_inverse(bundle: MacMahonBundle) -> bool:
    """Check U = L.M, M.(T.D.L) = I, and the entrywise inverse formula."""
    a = bundle.a
    if mat_mul(bundle.L, bundle.M) != bundle.U:
        return False
    inv = mat_mul(bundle.T, mat_mul(bundle.D, bundle.L))
    if mat_mul(bundle.M, inv) != identity(a):
        return False
    for i in range(1, a + 1):
        for j in range(1, a + 1):
            if inv[i - 1][j - 1] != inverse_entry(a, bundle.b, bundle.c, i, j):
                return False
    return True


def build_blocks(a: int, b: int, c: int, d: int, p: int) -> BlockDecomposition:
    """Q1, Q2, Q3, Q4 blocks of the even-intrusion matrix, delta = det Q2,
    Y = delta Q2^-1.Q1 and Fp = delta Q4 - Q3.Y, all integers."""
    if a < 1 or d < 0:
        raise ValueError("block decomposition needs a >= 1 and d >= 0")
    q1 = [[binom(2 * j - 1, -i + j + p) for j in range(1, d + 1)] for i in range(1, a + 1)]
    q2 = [[binom(b + c, c - i + j) for j in range(1, a + 1)] for i in range(1, a + 1)]
    q3 = [[binom(b + c - 2 * i + 1, c - i + j - p) for j in range(1, a + 1)] for i in range(1, d + 1)]
    q4 = [[binom(2 * (j - i), j - i) for j in range(1, d + 1)] for i in range(1, d + 1)]
    delta, y = solve_exact(q2, q1)
    fp = [[delta * x - z for x, z in zip(r4, rz)] for r4, rz in zip(q4, mat_mul(q3, y))]
    return BlockDecomposition(a=a, b=b, c=c, d=d, p=p, Q1=q1, Q2=q2, Q3=q3, Q4=q4,
                              delta=delta, Y=y, Fp=fp)


def count_via_F(a: int, b: int, c: int, d: int, p: int) -> int:
    """E(a,b,c,d,p) = det(F) det(Q2) = det(Fp) / delta^(d-1) (det of empty Fp is 1)."""
    blocks = build_blocks(a, b, c, d, p)
    delta = blocks.delta
    return as_int(Fraction(det_bareiss(blocks.Fp) * delta, delta**d), "count_via_F")


@lru_cache(maxsize=4096)
def _inner_sum(a: int, b: int, c: int, i: int, l: int) -> Fraction:
    # sum over k of the M^-1-shaped kernel; zero-binomial terms skipped so no
    # negative-length Pochhammer is ever formed
    s = Fraction(0)
    for k in range(max(i, l), a + 1):
        coef = binom(k - 1, i - 1) * binom(k - 1, l - 1)
        if coef == 0:
            continue
        s += coef * pochhammer(b, k - i) * pochhammer(c, k - l) / (
            factorial(k - 1) * factorial(b + c + k - 1)
        )
    return s


@lru_cache(maxsize=4096)
def double_sum_entry(a: int, b: int, c: int, p: int, i: int, j: int) -> Fraction:
    """(i,j)-entry of Q2^-1.Q1 as the displayed double sum (1-based)."""
    out = Fraction(0)
    for l in range(1, a + 1):
        outer = binom(2 * j - 1, l + j - p - 1)
        if outer == 0:
            continue
        out += (
            (-1) ** (i + l)
            * factorial(b + l - 1)
            * factorial(c + i - 1)
            * outer
            * _inner_sum(a, b, c, i, l)
        )
    return out


def triple_sum_entry(a: int, b: int, c: int, p: int, i: int, j: int) -> Fraction:
    """(i,j)-entry of Q3.Q2^-1.Q1 as the displayed triple sum (1-based)."""
    out = Fraction(0)
    for t in range(1, a + 1):
        outer = binom(b + c - 2 * i + 1, c - i + t - p)
        if outer == 0:
            continue
        out += outer * double_sum_entry(a, b, c, p, t, j)
    return out


def verify_triple_sum(a: int, b: int, c: int, p: int, i: int, j: int) -> bool:
    """Check the double- and triple-sum displays against direct linear algebra."""
    blocks = build_blocks(a, b, c, max(i, j), p)
    delta, y = blocks.delta, blocks.Y
    if i <= a and delta * double_sum_entry(a, b, c, p, i, j) != y[i - 1][j - 1]:
        return False
    q3y = sum(q * row[j - 1] for q, row in zip(blocks.Q3[i - 1], y))
    return delta * triple_sum_entry(a, b, c, p, i, j) == q3y


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
