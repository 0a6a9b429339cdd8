"""LGV determinants for damaged hexagons: E(a,b,c,d,p) and O(a,b,c,d,p).

E and O denote the determinants of the path-count matrix on `endpoints`.
`path_matrix` lists the intrusive points first, in rows and columns alike,
which leaves the determinant as it is and lets the elimination clear the
intrusion before the dense lateral block.  For even intrusions the
determinant is the tiling count; for odd intrusions it may be the
negative of the count (the admissible permutation can be odd).

Every count comes from `_line`: path_matrix(a', ...) is a leading block of
path_matrix(a, ...), so one elimination gives the count at every a' <= a
along a line (b, c, d, p and the parity fixed, a free) from its leading
minors.  `count` reads it through `_det` and its one memo, kept by line;
`count_line` returns the whole line and leaves the memo alone, and qfit's
fit reads each of its lines with one such call.  An elimination builds the
matrix's rows with `_band_rows`, the lateral ones as windows of one band of
binomials and each row's end from the binomials' support, and hands rows
and ends to `leading_minors_in_place`: a dimension-n matrix is built in
O(n (d + 1)) Python work and eliminated with no copy and no scan for its
rows' ends.  The elimination's cost follows the lateral band below the
diagonal, c entries wide, so an even line with c > b and a > b + 2d is
eliminated as the transpose, b wide there, which `_reflected_rows` builds
with `_band_rows` from the point-reflected endpoints; odd lines and short
even lines keep path_matrix's orientation (see `_line`).  `count` reads the
memo as a checked int; `even_count` and `odd_count` wrap it in a
SignedCount.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .detkernel import IntMatrix, leading_minors_in_place
from .hexmodel import EVEN, ODD, endpoints


class SignedCount(NamedTuple):
    value: int
    tilings: int
    sign: int

    @staticmethod
    def of(value: int) -> "SignedCount":
        return SignedCount(value, abs(value), 1 if value > 0 else -1 if value else 0)


def path_matrix(a: int, b: int, c: int, d: int, p: int, parity: str) -> IntMatrix:
    """Path-count matrix on `endpoints`, for any integer b, c (formal extension).

    Entry (i, j) counts the monotone paths from start i to end j: C(dx+dy, dx)
    for their offset (dx, dy), and 0 when dx or dy is negative.  The d
    intrusive points come first, among both starts and ends, then the a
    lateral ones: this simultaneous permutation leaves the determinant as it
    is.  The intrusive block is unitriangular for even intrusions (entries
    C(2(j-i), j-i)), so the elimination's first d steps pivot on 1 and touch
    only the lateral rows that reach the intrusion; what is left is the
    a x a Schur complement, the lateral paths that avoid it.  And since the
    lateral points do not depend on a, path_matrix(a', ...) is the leading
    (d + a') block of path_matrix(a, ...) for every a' <= a.  The rows are
    `_path_rows`'s, each a list of its own.  A count eliminates this matrix
    or, on an even line with c > b and a > b + 2d, its transpose (see `_line`).
    """
    return _path_rows(a, b, c, d, p, parity)[0]


def _path_rows(a: int, b: int, c: int, d: int, p: int, parity: str) -> tuple[IntMatrix, list[int]]:
    """(rows, ends): the rows of path_matrix(a, b, c, d, p, parity), each a
    list of its own, and one past the last nonzero of each (`_band_rows` on
    `endpoints`)."""
    return _band_rows(a, b, c, d, *endpoints(a, b, c, d, p, parity))


def _band_rows(a: int, b: int, c: int, d: int, starts: list,
               ends: list) -> tuple[IntMatrix, list[int]]:
    """(rows, ends): the path-count matrix from `starts` to `ends`, lateral
    points first in each list as `endpoints` gives them, with the d intrusive
    points moved first, and one past the last nonzero of each row.

    The a lateral points must be those of sides b and c: start i at
    (1-i, i-1) and end j at (b+1-j, c+j-1).  The d intrusive ends must rise
    in both coordinates, as `endpoints` lists them for either parity.  So
    every lateral start lies on x + y = 0 and every lateral end on
    x + y = b + c, one unit apart, and lateral row i over the lateral columns
    j = 1..a is C(b+c, b+i-j): the window b+i-1 down to b+i-a of one band
    of 2a - 1 binomials, C(b+c, b+a-1) down to C(b+c, b+1-a).  Only the d
    intrusive rows and the d intrusive columns are evaluated entry by entry.
    The ends come from the binomials' support: a row from start (x, y)
    reaches lateral end j iff y+1-c <= j <= b+1-x, so when that range meets
    1..a the row ends at column d + min(a, b+1-x) (d + min(a, b+i) for
    lateral row i).  Otherwise it ends inside its intrusive head: the
    intrusive ends rise in both coordinates with j, so the ones a start
    reaches are a suffix, and the row ends at d if its head's last entry is
    nonzero, else at 0.  So the Python work is O((a + d)(d + 1)), not the
    O((a + d)^2) of evaluating every entry.  `_path_rows` calls it on
    `endpoints`, and `_reflected_rows` on the point-reflected endpoints with
    the sides swapped, which gives the transpose with its intrusive block
    reversed.
    """
    n = b + c
    band = [comb(n, k) if 0 <= k <= n else 0 for k in range(b + a - 1, b - a, -1)]
    starts = starts[a:] + starts[:a]
    if d:
        mids = ends[a:]
        cols = mids + ends[:a]
        rows = [[comb(u - x + v - y, u - x) if u >= x and v >= y else 0 for (u, v) in cols]
                for (x, y) in starts[:d]]
        rows += [[comb(u - x + v - y, u - x) if u >= x and v >= y else 0 for (u, v) in mids]
                 + band[a - i:2 * a - i] for i, (x, y) in enumerate(starts[d:], 1)]
    else:  # the lateral rows alone, without an empty head to join
        rows = [band[a - i:2 * a - i] for i in range(1, a + 1)]
    row_ends = []
    for (x, y), row in zip(starts, rows):
        last = b + 1 - x if b + 1 - x < a else a
        if last >= 1 and last >= y + 1 - c:
            row_ends.append(d + last)
        else:  # no lateral end in reach: the head's nonzeros are a suffix
            row_ends.append(d if d and row[d - 1] else 0)
    return rows, row_ends


def _reflected_rows(a: int, b: int, c: int, d: int, p: int) -> tuple[IntMatrix, list[int]]:
    """(rows, ends) of the transpose of path_matrix(a, b, c, d, p, EVEN), its
    first d rows and columns in reverse order, built by `_band_rows`.

    Reversing every path transposes the matrix and keeps its determinant.
    The point reflection psi(x, y) = (c - y, b - x) reverses paths and sends
    the ends to the lateral starts of sides (c, b) and the starts to their
    lateral ends, so `_band_rows` with the sides swapped, on psi(ends) as
    starts and psi(starts) as ends, builds the transpose; listing the
    intrusive points in reverse makes them rise again.  Reversing the
    intrusive block, in rows and columns alike, leaves every leading minor
    of size >= d as it is.
    """
    starts, ends = endpoints(a, b, c, d, p, EVEN)
    return _band_rows(a, c, b, d, [(c - y, b - x) for x, y in ends[:a] + ends[a:][::-1]],
                      [(c - y, b - x) for x, y in starts[:a] + starts[a:][::-1]])


# The count memo, (b, c, d, p, parity) -> [count at a' = 0, 1, ...], and its
# bound in lines.  At d = 0 neither p nor the parity changes path_matrix, so
# every d = 0 line is kept as (b, c, 0, 0, EVEN).  One `hexatile verify all`
# pass plus the identity registry at the CLI default ranges touches 2,026
# lines and, as formulas' runner asks for each check's points from the
# largest a down, eliminates 2,685 times.  A fit reads its lines through
# `count_line` and leaves the memo as it found it.  When full, the memo drops
# the line stored first.
_LINES: dict = {}
_LINES_MAX = 1 << 14
_PARITIES = (EVEN, ODD)


def _det(a: int, b: int, c: int, d: int, p: int, parity: str) -> int:
    """det of path_matrix(a, b, c, d, p, parity), from the line memo.

    Every determinant in this module but `count_line`'s goes through here.
    A miss stores `_line`'s counts at every a' <= a in place of the shorter
    line.  Keys are canonicalized only where the matrix is the same: every
    d = 0 request is kept as (b, c, 0, 0, EVEN).  Mirror images are not, so
    the symmetry and condensation checks still compare values computed at
    distinct points.
    """
    if not d:
        p, parity = 0, EVEN
    key = (b, c, d, p, parity)
    line = _LINES.get(key)
    if line is not None:
        if a < len(line):
            return line[a]
        del _LINES[key]  # stored again below, as the newest line
    elif len(_LINES) >= _LINES_MAX:
        del _LINES[next(iter(_LINES))]  # the line stored first
    line = _LINES[key] = _line(a, b, c, d, p, parity)
    return line[a]


def _line(a: int, b: int, c: int, d: int, p: int, parity: str) -> list[int]:
    """[det of path_matrix(a', b, c, d, p, parity) for a' = 0..a], read off
    the leading minors of one elimination of path_matrix(a, ...) or its
    transpose; `_det` keeps it in the memo, `count_line` hands it out.

    An even line with c > b and a > b + 2d is eliminated as the
    transpose, from `_reflected_rows`.  Lateral row i is C(b+c, b+i-j) over
    j, nonzero from c columns left of the diagonal to b right of it.  A step
    updates only the rows with a nonzero in its column, the c rows below the
    pivot, each up to its end, b past its diagonal: about c (b + c/2) row
    entries a step, and b (c + b/2) in the transpose.  That saving needs a
    past the upper band: when a <= b every lateral row reaches the last
    column in either orientation.  And the transpose's d intrusive steps
    each update the lateral rows that reach the intrusion from the far
    side, about b + c - 2j of them against about 2j, so short lines with an
    intrusion (most of a fit's) cost more transposed.  Measured on the line
    misses of the four benchmark workloads, a > b + 2d keeps the transpose's
    saving on the long lines and routes none of a fit's lines to it.
    Either orientation gives the same line.  Odd lines keep
    `_path_rows`: intrusive end 1, (-p, p), is lateral start p + 1 itself,
    so in the transpose that row has no intrusive entry and sinks one row a
    step, each step a single one, until step d + p; measured, that about
    doubles the row updates.
    """
    if parity == EVEN and c > b and a > b + 2 * d:
        rows = _reflected_rows(a, b, c, d, p)
    else:
        rows = _path_rows(a, b, c, d, p, parity)
    return ([1] + leading_minors_in_place(*rows))[d:]  # [1]: no rows


def _check_count_args(a: int, b: int, c: int, d: int, parity: str) -> None:
    if a < 0 or b < 0 or c < 0 or d < 0:
        raise ValueError("a, b, c, d must be nonnegative")
    if parity not in _PARITIES:
        raise ValueError(f"parity must be {EVEN!r} or {ODD!r}, not {parity!r}")


def count(a: int, b: int, c: int, d: int, p: int, parity: str) -> int:
    """The signed count E(a,b,c,d,p) (parity EVEN) or O(a,b,c,d,p) (ODD) as an
    int, read from the line memo.  Negative a, b, c or d and any other parity
    are a ValueError."""
    _check_count_args(a, b, c, d, parity)
    return _det(a, b, c, d, p, parity)


def count_line(a: int, b: int, c: int, d: int, p: int, parity: str) -> list[int]:
    """[count(a', b, c, d, p, parity) for a' = 0..a] from one elimination,
    which neither reads nor fills the line memo: a caller that reads a line
    once (qfit's fit) holds it itself.  Rejects what `count` rejects."""
    _check_count_args(a, b, c, d, parity)
    return _line(a, b, c, d, p, parity)


def even_count(a: int, b: int, c: int, d: int, p: int) -> SignedCount:
    return SignedCount.of(count(a, b, c, d, p, EVEN))


def odd_count(a: int, b: int, c: int, d: int, p: int) -> SignedCount:
    return SignedCount.of(count(a, b, c, d, p, ODD))


def _dodgson(x, a: int, b: int, c: int, p: int) -> int:
    """The right side of Dodgson's condensation on x(a, b, c, p), which it
    equates with x(a, b, c, p) * x(a-2, b, c, p-1)."""
    return x(a - 1, b, c, p - 1) * x(a - 1, b, c, p) - x(a - 1, b + 1, c - 1, p - 1) * x(
        a - 1, b - 1, c + 1, p
    )


def even_count_by_condensation(a: int, b: int, c: int, d: int, p: int) -> int:
    """E(a,b,c,d,p) via the condensation recursion in a, memoized per call.

    Recurses through E(a-1, b+-1, c-+1, d, p or p-1) down to the base case
    E(0,...) = 1.  A node takes the direct determinant where the recursion
    gives no exact quotient: at a = 1, at a zero divisor (a condensation
    breakdown) and at a division that leaves a remainder.  The recursion
    deepens with a; past Python's recursion limit it raises ValueError (at
    the default limit, a = 480 runs and a = 520 does not, for b = c = 2).
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
        q, r = 0, 1  # a = 1 or a zero divisor: no quotient
        if a > 1 and (lower := rec(a - 2, b, c, p - 1)):
            q, r = divmod(_dodgson(rec, a, b, c, p), lower)
        memo[key] = v = _det(a, b, c, d, p, EVEN) if r else q
        return v

    try:
        return rec(a, b, c, p)
    except RecursionError:
        raise ValueError(f"condensation at a = {a} recurses past Python's recursion "
                         f"limit; count it by det") from None


def verify_symmetry(a: int, b: int, c: int, d: int, p: int) -> bool:
    """Reflection at a vertical axis: E(a,b,c,d,p) = E(a,c,b,d,a-p) and
    O(a,b,c,d,p) = O(a,c,b,d,a-1-p).

    Intrusion positions are counted from 0 for both parities, so the p
    positions of the odd family are 0..a-1 and the mirror sends p to a-1-p.
    """
    if count(a, b, c, d, p, EVEN) != count(a, c, b, d, a - p, EVEN):
        return False
    return count(a, b, c, d, p, ODD) == count(a, c, b, d, a - 1 - p, ODD)


def _condensation_holds(a: int, b: int, c: int, d: int, p: int, parity: str) -> bool:
    if a < 2:
        raise ValueError("condensation needs a >= 2")

    def x(a_, b_, c_, p_):
        # a_ = 0 stays meaningful: the intrusive-only determinant (1 when d = 0,
        # and 0 for the odd family once d > 0, where the diagonal vanishes).
        return _det(a_, b_, c_, d, p_, parity)

    return x(a, b, c, p) * x(a - 2, b, c, p - 1) == _dodgson(x, a, b, c, p)


def verify_dodgson_even(a: int, b: int, c: int, d: int, p: int) -> bool:
    """Condensation identity on E-values (a >= 2); b, c shifts taken formally."""
    return _condensation_holds(a, b, c, d, p, EVEN)


def verify_dodgson_odd(a: int, b: int, c: int, d: int, p: int) -> bool:
    """Condensation identity on O-values (a >= 2)."""
    return _condensation_holds(a, b, c, d, p, ODD)
