"""LGV determinants for damaged hexagons: E(a,b,c,d,p) and O(a,b,c,d,p).

E and O denote the determinants of the path-count matrix on `endpoints`.
`path_matrix` lists the intrusive points first, in rows and columns alike,
which leaves the determinant as it is and lets the elimination clear the
intrusion before the dense lateral block.  For even intrusions the
determinant is the tiling count; for odd intrusions it may be the
negative of the count (the admissible permutation can be odd).

Counts come per point (`even_count`, `odd_count`, memoized in `_det`) or,
for the even family, a line at a time: `even_line` reads E(a', b, c, d, p)
for every a' <= a from the leading minors of one elimination, which is how
qfit samples.  The odd family has no line route: its intrusive block has a
zero diagonal, so its elimination swaps rows at step 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .detkernel import IntMatrix, det_bareiss, leading_minors
from .hexmodel import EVEN, ODD, endpoints


@dataclass(frozen=True)
class SignedCount:
    value: int
    tilings: int
    sign: int

    @staticmethod
    def of(value: int) -> "SignedCount":
        return SignedCount(value, abs(value), 0 if value == 0 else (1 if value > 0 else -1))


def path_matrix(a: int, b: int, c: int, d: int, p: int, parity: str) -> IntMatrix:
    """Path-count matrix on `endpoints`, for any integer b, c (formal extension).

    Entry (i, j) counts the monotone paths from start i to end j: C(dx+dy, dx)
    for their offset (dx, dy), and 0 when dx or dy is negative.  The d
    intrusive points come first, among both starts and ends, then the a
    lateral ones: this simultaneous permutation leaves the determinant as it
    is.  The intrusive block is unitriangular for even intrusions (entries
    C(2(j-i), j-i)), so det_bareiss's first d steps pivot on 1 and touch only
    the lateral rows that reach the intrusion; what is left is the a x a
    Schur complement, the lateral paths that avoid it.  And since the
    lateral points do not depend on a, path_matrix(a', ...) is the leading
    (d + a') block of path_matrix(a, ...) for every a' <= a.
    """
    starts, ends = endpoints(a, b, c, d, p, parity)
    starts = starts[a:] + starts[:a]
    ends = ends[a:] + ends[:a]
    return [[comb(u - x + v - y, u - x) if u >= x and v >= y else 0 for (u, v) in ends]
            for (x, y) in starts]


# The memo bound: one `hexatile verify all` pass plus the identity registry at
# the CLI default ranges computes 8,731 distinct determinants
# (`_det.cache_info().misses` after both), so they all fit.
@lru_cache(maxsize=1 << 14)
def _det(a: int, b: int, c: int, d: int, p: int, parity: str) -> int:
    """det of path_matrix(a, b, c, d, p, parity), memoized on the literal arguments.

    Every determinant in this module goes through here.  Keys are not
    canonicalized (no mirror images), so the symmetry and condensation
    checks still compare values computed at distinct points.
    """
    return det_bareiss(path_matrix(a, b, c, d, p, parity))


# The line memo, (b, c, d, p) -> (E(0), E(1), ...), and its bound in lines.
# A fit up to layer n samples C(n + 3, 3) lines: 2,024 for fit_auto(5),
# 5,984 for fit_auto(6) and 15,180 at d = 7, so one fit's lines all fit.
_LINES: dict = {}
_LINES_MAX = 1 << 14


def even_line(a_top: int, b: int, c: int, d: int, p: int) -> tuple:
    """E(a', b, c, d, p) for a' = 0..a_top (or further), from one elimination.

    path_matrix(a', b, c, d, p) is the leading (d + a') block of
    path_matrix(a_top, b, c, d, p), so the leading minors of the one matrix
    (detkernel.leading_minors) are the whole line.  A zero count E(a') is a
    zero pivot, where the elimination swaps rows and its diagonal stops
    being minors; from there on each value is a per-point determinant
    (`_det`).  The fit's samples are tiling counts of admissible regions,
    and no line of fit_auto(d) for d <= 5 has one.  The memo keeps, per
    (b, c, d, p), the longest line computed so far, and a longer request
    eliminates anew.  It is shared by every caller in the process, so a
    later fit reads what an earlier one computed; when full, it drops the
    line stored first.
    """
    if min(a_top, b, c, d) < 0:
        raise ValueError("a, b, c, d must be nonnegative")
    key = (b, c, d, p)
    line = _LINES.get(key)
    if line is None or len(line) <= a_top:
        minors = [1] + leading_minors(path_matrix(a_top, b, c, d, p, EVEN))
        line = tuple(minors[d + a] if d + a < len(minors) else _det(a, b, c, d, p, EVEN)
                     for a in range(a_top + 1))
        _LINES.pop(key, None)
        if len(_LINES) >= _LINES_MAX:
            del _LINES[next(iter(_LINES))]  # the line stored first
        _LINES[key] = line
    return line


def _signed(a: int, b: int, c: int, d: int, p: int, parity: str) -> SignedCount:
    if min(a, b, c, d) < 0:
        raise ValueError("a, b, c, d must be nonnegative")
    return SignedCount.of(_det(a, b, c, d, p, parity))


def even_count(a: int, b: int, c: int, d: int, p: int) -> SignedCount:
    return _signed(a, b, c, d, p, EVEN)


def odd_count(a: int, b: int, c: int, d: int, p: int) -> SignedCount:
    return _signed(a, b, c, d, p, ODD)


def _dodgson(x, a: int, b: int, c: int, p: int) -> int:
    """The right side of Dodgson's condensation on x(a, b, c, p), which it
    equates with x(a, b, c, p) * x(a-2, b, c, p-1)."""
    return x(a - 1, b, c, p - 1) * x(a - 1, b, c, p) - x(a - 1, b + 1, c - 1, p - 1) * x(
        a - 1, b - 1, c + 1, p
    )


def even_count_by_condensation(a: int, b: int, c: int, d: int, p: int) -> int:
    """E(a,b,c,d,p) via the condensation recursion in a, memoized per call.

    Recurses through E(a-1, b+-1, c-+1, d, p or p-1) down to the base cases
    E(0,...) = 1 and a direct (1+d)-dimensional determinant at a = 1.  A zero
    divisor is a condensation breakdown; those nodes fall back to the direct
    determinant.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("a, b, c, d must be nonnegative")
    memo: dict[tuple[int, int, int, int], int] = {}

    def rec(a: int, b: int, c: int, p: int) -> int:
        if a == 0:
            return 1
        key = (a, b, c, p)
        if key in memo:
            return memo[key]
        if a == 1:
            v = _det(1, b, c, d, p, EVEN)
        else:
            lower = rec(a - 2, b, c, p - 1)
            if lower == 0:
                v = _det(a, b, c, d, p, EVEN)
            else:
                q, r = divmod(_dodgson(rec, a, b, c, p), lower)
                if r:
                    v = _det(a, b, c, d, p, EVEN)
                else:
                    v = q
        memo[key] = v
        return v

    return rec(a, b, c, p)


def verify_symmetry(a: int, b: int, c: int, d: int, p: int) -> bool:
    """Reflection at a vertical axis: E(a,b,c,d,p) = E(a,c,b,d,a-p) and
    O(a,b,c,d,p) = O(a,c,b,d,a-1-p).

    Intrusion positions are counted from 0 for both parities, so the p
    positions of the odd family are 0..a-1 and the mirror sends p to a-1-p.
    """
    if even_count(a, b, c, d, p).value != even_count(a, c, b, d, a - p).value:
        return False
    return odd_count(a, b, c, d, p).value == odd_count(a, c, b, d, a - 1 - p).value


def _condensation_holds(a: int, b: int, c: int, d: int, p: int, parity: str) -> bool:
    def x(a_, b_, c_, p_):
        # a_ = 0 stays meaningful: the intrusive-only determinant (1 when d = 0,
        # and 0 for the odd family once d > 0, where the diagonal vanishes).
        return _det(a_, b_, c_, d, p_, parity)

    return x(a, b, c, p) * x(a - 2, b, c, p - 1) == _dodgson(x, a, b, c, p)


def verify_dodgson_even(a: int, b: int, c: int, d: int, p: int) -> bool:
    """Condensation identity on E-values (a >= 2); b, c shifts taken formally."""
    if a < 2:
        raise ValueError("condensation needs a >= 2")
    return _condensation_holds(a, b, c, d, p, EVEN)


def verify_dodgson_odd(a: int, b: int, c: int, d: int, p: int) -> bool:
    """Condensation identity on O-values (a >= 2)."""
    if a < 2:
        raise ValueError("condensation needs a >= 2")
    return _condensation_holds(a, b, c, d, p, ODD)
