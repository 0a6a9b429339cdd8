"""LGV determinants for damaged hexagons: E(a,b,c,d,p) and O(a,b,c,d,p).

E and O denote the determinants of the path-count matrix of the a lateral
and d intrusive paths, `path_matrix`.  For even intrusions the determinant
is the tiling count; for odd intrusions it may be the negative of the count
(the admissible permutation can be odd).

Counts come from `_line`: path_matrix(a', ...) is a leading block of
path_matrix(a, ...), so one elimination gives the count at every a' <= a
along a line (b, c, d, p and the parity fixed, a free) from its leading
minors.  `count` reads it through `_det` and its one memo, kept by line;
`count_line` returns the whole line and leaves the memo alone, and qfit's
fit reads each of its lines with one such call.  The exceptions are one
large point that misses the memo, counted alone and stored nowhere: with an
intrusion (d >= 1, a >= 10 and b + c > 2d) `_det` returns schur's
d x d complement, MacMahon's product times a d x d determinant; d = 0 never
takes the complement, and an intact hexagon with a >= 10, a shorter side and
a longer one (min(b, c) < a != max(b, c)) is counted along its shortest side
instead, the b x b or c x c path matrix of the hexagon turned cyclically.
One bound, `_COMPLEMENT_A`, serves both routes.
`_path_rows` builds the rows, in either orientation (see `_line`), and their
ends from the closed forms of the path counts, the part free of b and c once
per intrusion shape (`_shape`), for `leading_minors_in_place` to eliminate
with no copy and no scan.  No lattice point is written here: the path sweep
(`oracle`) reads hexmodel's endpoints, and the two share no geometry code.
`count` reads the memo as a checked int; `even_count` and `odd_count` wrap
it.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from typing import NamedTuple

from . import schur
from .detkernel import IntMatrix, leading_minors_in_place
from .hexmodel import EVEN, ODD, _check_spec


class SignedCount(NamedTuple):
    value: int
    tilings: int
    sign: int

    @staticmethod
    def of(value: int) -> "SignedCount":
        return SignedCount(value, abs(value), 1 if value > 0 else -1 if value else 0)


def path_matrix(a: int, b: int, c: int, d: int, p: int, parity: str) -> IntMatrix:
    """Path-count matrix of the LGV paths, for any integer b, c (formal
    extension); a negative a or d, or any parity but EVEN and ODD, is a
    ValueError.

    Entry (i, j) counts the monotone paths from start i to end j: C(dx+dy, dx)
    for their offset (dx, dy), and 0 when dx or dy is negative.  The d
    intrusive points come first, among both starts and ends, then the a
    lateral ones: this simultaneous permutation leaves the determinant as it
    is.  The intrusive block is unitriangular for even intrusions (entries
    C(2(j-i), j-i)), so the elimination's first d steps pivot on 1 and touch
    only the lateral rows that reach the intrusion; what is left is the
    a x a Schur complement, the lateral paths that avoid it.  And since the
    lateral points do not depend on a, path_matrix(a', ...) is the leading
    (d + a') block of path_matrix(a, ...) for every a' <= a.
    """
    _check_spec(a, 0, 0, d, parity)  # b and c may be formal
    return _path_rows(a, b, c, d, p, parity, False)[0]


def _window(n: int, hi: int, size: int) -> list[int]:
    """[C(n, k) for k = hi, hi - 1, ..., hi - size + 1], 0 outside 0 <= k <= n."""
    lo = hi - size + 1
    top, bottom = (hi if hi < n else n), (lo if lo > 0 else 0)  # C(n, k)'s support
    if top < bottom:
        return [0] * size
    window = [*[0] * (hi - top), *map(comb, repeat(n), range(top, bottom - 1, -1))]
    if bottom > lo:
        window += [0] * (bottom - lo)
    return window


def _tails(a: int, b: int, c: int, d: int, p: int, odd: bool) -> IntMatrix:
    """Intrusive row m's lateral entries C(b+c+1-2m-odd, b+1+p-m-j), j = 1..a."""
    return [_window(b + c + 1 - odd - 2 * m, b + p - m, a) for m in range(1, d + 1)]


def _path_rows(a: int, b: int, c: int, d: int, p: int, parity: str,
               transpose: bool) -> tuple[IntMatrix, list[int]]:
    """(rows, ends) of path_matrix(a, b, c, d, p, parity), or with `transpose`
    of its transpose, first d rows and columns reversed: each row a fresh list
    (the elimination works in place), each end one past its last nonzero.

    With o = 1 for odd intrusions, else 0, the paths run from lateral start
    i = (1-i, i-1) to lateral end j = (b+1-j, c+j-1) and from intrusive start
    m = (m-p, p+m-1+o) to intrusive end m = (m-p-o, p+m-1).  So lateral row i
    is C(b+c, b+i-j), a window of one band; intrusive row m is
    C(b+c+1-2m-o, b+1+p-m-j) (`_tails`); lateral row i's head is
    C(2m-1-o, m+p-i), `_tails` at sides (d, d) read by column from the bottom
    up; and the intrusive block is C(2(m'-m-o), m'-m-o), both kept by
    `_shape`.  The transpose, its intrusive points reversed, has the same
    block and `_tails` at sides (d, d) in its intrusive rows, and the band of
    sides (c, b) behind `_tails`' columns in its lateral rows.  A row with
    tail or band sides (B, C) reaches lateral column j for p+m+o-C <= j <=
    B+1+p-m (intrusive row m) or i-C <= j <= B+i (lateral row i), and ends at
    d plus the upper bound, at most a, if that meets 1..a; otherwise in its
    head, whose nonzeros are a suffix as the intrusive ends rise: at d if the
    head's last entry is nonzero, else at 0.
    """
    odd = parity == ODD
    block, tails, heads = [], [], [[]] * a  # d = 0: the lateral rows alone
    if d:
        block, tails_dd, heads = _shape(a, d, p, parity)
        tails = _tails(a, b, c, d, p, odd)
        if transpose:
            tails, heads = [tail[:a] for tail in tails_dd], [*map(list, zip(*tails[::-1]))]
    tb, tc, b, c = (d, d, c, b) if transpose else (b, c, b, c)
    band = _window(b + c, b + a - 1, 2 * a - 1)
    rows = [head + tail for head, tail in zip(block, tails)]
    rows += [head + band[a - i:2 * a - i] for i, head in enumerate(heads[:a], 1)]
    ends = []
    for m in range(1, d + 1):
        u = tb + 1 + p - m if tb + 1 + p - m < a else a
        ends.append(d + u if u >= 1 and u >= p + m + odd - tc else d if m + odd <= d else 0)
    for i, row in enumerate(rows[d:], 1):
        u = b + i if b + i < a else a
        ends.append(d + u if u >= 1 and u >= i - c else d if row[d - 1] else 0)
    return rows, ends


# The shape memo, (d, p, parity) -> (block, tails, heads) for d > 0, for the
# longest a asked so far.  One `hexatile verify all` pass plus the identity
# registry at the CLI default ranges builds 2,685 lines on 48 shapes;
# perfbench's `oracle`, `count` and `fit` passes use 65, 46 and 10, and the
# largest CI sweep, `verify all` at 6/6/6/4, 66.
_SHAPES: dict = {}
_SHAPES_MAX = 1 << 10


def _shape(a: int, d: int, p: int, parity: str) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(intrusive block, `_tails` at sides (d, d), lateral heads); never rows."""
    key = (d, p, parity)
    shape = _SHAPES.get(key)
    if shape is not None and a <= len(shape[2]):
        return shape
    if len(_SHAPES) >= _SHAPES_MAX:
        _SHAPES.clear()
    odd = parity == ODD
    block = [[0] * (m + odd) + [comb(2 * t, t) for t in range(d - m - odd)] for m in range(d)]
    tails = _tails(a, d, d, d, p, odd)
    zero = [0] * d  # shared by every head with no nonzero
    shape = _SHAPES[key] = (block, tails, [list(h) if any(h) else zero for h in zip(*tails[::-1])])
    return shape


# The count memo, (b, c, d, p, parity) -> [count at a' = 0, 1, ...], and its
# bound in lines.  At d = 0 neither p nor the parity changes path_matrix, so
# every d = 0 line is kept as (b, c, 0, 0, EVEN).  One `hexatile verify all`
# pass plus the identity registry at the CLI default ranges touches 2,026
# lines and, as formulas' runner asks for each check's points from the
# largest a down, eliminates 2,685 times; the largest fill measured, CI's
# `verify byun` at 12/12/12/4, is 6,244 lines.  A fit reads its lines through
# `count_line` and leaves the memo as it found it.
_LINES: dict = {}
_LINES_MAX = 1 << 14

# The side a at which a memo miss is counted as one point: with an intrusion
# through schur's d x d complement, when b + c > 2d, and at d = 0 along the
# hexagon's shortest side, when min(b, c) < a != max(b, c).  The bound is the
# crossover of a grid (BENCH_pr53.json: at each a = 6..20, 24 shapes with
# d = 1..4, 2d < b + c <= 32, b <= 2a and p = -1..a+1, in both parities, and
# 12 intact ones with b + c <= 32).  The median time of one elimination of
# the path matrix over the complement's was 0.99 at a = 8, 1.03 at a = 9,
# 1.23 at a = 10, 1.72 at a = 14 and 2.78 at a = 16; over a >= 10 it was
# 1.59, and the complement won at 73% of the points.  The worst rows are odd
# intrusions with d = 4 outside the odd window, whose count is 0 and whose
# elimination is cheap: 0.17 at (10, 12, 12, 4, -1) and (20, 12, 5, 4, -1).
# A row of the complement takes 2i-1+o running sums whatever b is, so a long
# b costs it little (BENCH_pr55.json has the grid past b = 2a).  With
# b + c <= 2d the d^2 a products dominate: 0.56 at (20, 3, 5, 4, 10) and 0.05
# at (100, 5, 5, 20, 50).  The turned hexagon beat the a x a elimination at
# every a of the grid, 1.3 times at worst and 2.2 at the median at a = 6,
# 4.5 at a = 10; BENCH_pr52.json has it 0.88 times at (20, 24, 19), where
# the shortest side is a - 1, 61 at (50, 8, 24) and 23 at (100, 30, 30).
_COMPLEMENT_A = 10


def _det(a: int, b: int, c: int, d: int, p: int, parity: str) -> int:
    """det of path_matrix(a, b, c, d, p, parity), from the line memo or, for
    one large point, from schur's d x d complement or the turned hexagon.

    Every determinant in this module but `count_line`'s goes through here.
    A hit is read from the memo.  A miss (no line, or one shorter than a)
    with d >= 1, a >= _COMPLEMENT_A (10) and b + c > 2d returns
    `schur.count_via_inverse` for that one point and stores nothing: the
    complement gives one point, and the memo holds whole lines.  d = 0 never
    takes the complement, which is then MacMahon's product itself.  A d = 0
    miss with a >= _COMPLEMENT_A, min(b, c) < a and a != max(b, c) is
    counted through the intact hexagon turned cyclically so that its
    shortest side comes first, (b, c, a) when b <= c and (c, a, b)
    otherwise: the same region, so its b x b or c x c path matrix has the
    same determinant.  It too is one point, eliminated and stored nowhere,
    so the memo holds only lines of the matrices it is keyed by.  Any other
    miss stores `_line`'s counts at every a' <= a, after clearing the memo if
    it holds its bound.  Neither single-point route takes the formal b, c < 0
    of the condensation recursion.  Keys are canonicalized only where the
    matrix is the same: every d = 0 request is kept as (b, c, 0, 0, EVEN).
    Mirror images are not, and the turn is cyclic, not a swap: (a, b, c) and
    (a, c, b) with b != c reach two matrices, transposes of each other, so
    the symmetry and condensation checks still compare values computed at
    distinct points.  Where a is the longer of b and c, (a, b, a) and
    (a, a, b) are one turn apart and a turn would read one matrix for both,
    so neither is turned.
    """
    if not d:
        p, parity = 0, EVEN
    key = (b, c, d, p, parity)
    line = _LINES.get(key)
    if line is not None and a < len(line):
        return line[a]
    if a >= _COMPLEMENT_A and 0 <= b and 0 <= c:
        if d and b + c > 2 * d:
            return schur.count_via_inverse(a, b, c, d, p, parity)
        if not d and min(b, c) < a != max(b, c):  # turned cyclically, shortest side first
            return _line(b, c, a, 0, 0, EVEN)[b] if b <= c else _line(c, a, b, 0, 0, EVEN)[c]
    if len(_LINES) >= _LINES_MAX:
        _LINES.clear()
    line = _LINES[key] = _line(a, b, c, d, p, parity)
    return line[a]


def _line(a: int, b: int, c: int, d: int, p: int, parity: str) -> list[int]:
    """[det of path_matrix(a', b, c, d, p, parity) for a' = 0..a], read off
    the leading minors of one elimination of path_matrix(a, ...) or its
    transpose; `_det` keeps it in the memo, `count_line` hands it out.

    Lateral row i is C(b+c, b+i-j) over j, nonzero from c columns left of
    the diagonal to b right of it.  A step updates only the rows with a
    nonzero in its column, each up to its end: about c (b + c/2) row entries
    a step, and b (c + b/2) in the transpose, a saving that needs a past the
    upper band (when a <= b every lateral row reaches the last column).  The
    transpose's d intrusive steps each update about b + c - 2j lateral rows
    against about 2j, so short lines with an intrusion (most of a fit's)
    cost more transposed.  Measured on the four benchmark workloads' line
    misses, transposing even lines with c > b and a > b + 2d keeps the
    saving on long lines and sends no fit line there.  Odd lines keep
    path_matrix's: intrusive end 1, (-p, p), is lateral start p + 1, so in
    the transpose that row has no intrusive entry and sinks one row a step
    until step d + p, which about doubles the row updates (measured).
    """
    rows = _path_rows(a, b, c, d, p, parity, parity == EVEN and c > b and a > b + 2 * d)
    return ([1] + leading_minors_in_place(*rows))[d:]  # [1]: no rows


def count(a: int, b: int, c: int, d: int, p: int, parity: str) -> int:
    """The signed count E(a,b,c,d,p) (parity EVEN) or O(a,b,c,d,p) (ODD) as an
    int, read from the line memo.  Negative a, b, c or d and any other parity
    are a ValueError."""
    _check_spec(a, b, c, d, parity)
    return _det(a, b, c, d, p, parity)


def count_line(a: int, b: int, c: int, d: int, p: int, parity: str) -> list[int]:
    """[count(a', b, c, d, p, parity) for a' = 0..a] from one elimination,
    which neither reads nor fills the line memo: a caller that reads a line
    once (qfit's fit) holds it itself.  Rejects what `count` rejects."""
    _check_spec(a, b, c, d, parity)
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
    _check_spec(a, b, c, d, EVEN)
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
