"""Exact determinant kernels and the fraction-free linear solver."""

import dis
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexatile import detkernel
from hexatile.detkernel import (
    SingularMatrixError,
    det_bareiss,
    det_modular,
    leading_minors,
    leading_minors_in_place,
    mat_mul,
    solve_exact,
)
from hexatile.exactmath import binom

small_entries = st.integers(min_value=-1000, max_value=1000)
# Mostly zeros: zero pivots, row swaps, rows skipped at some steps (and so
# scaled lazily) and short rows all turn up often.
sparse_entries = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-40, 40))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def square(n, draw):
    return [[draw() for _ in range(n)] for _ in range(n)]


def test_det_bareiss_small_cases():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss(identity(5)) == 1
    assert det_bareiss([]) == 1
    # 3x3 matrix with entries binom(2, 1-i+j): determinant 4 = 2*(3/2)*(4/3)
    m = [[binom(2, 1 - i + j) for j in range(3)] for i in range(3)]
    assert det_bareiss(m) == 4


def test_det_bareiss_rejects_ragged():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])


def leibniz(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def sparse_square(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


@given(sparse_square(9))
@settings(max_examples=200, deadline=None)
def test_bareiss_on_mostly_zero_matrices(m):
    det = det_bareiss(m)
    assert det == det_modular(m)
    if len(m) <= 6:
        assert det == leibniz(m)


def test_bareiss_lazy_rows_and_swaps():
    # row 1 is zero in column 0: step 0 only rescales it, to be the pivot of step 1
    assert det_bareiss([[2, 1, 1], [0, 3, 1], [1, 1, 5]]) == 26
    # row 2 is skipped at steps 0 and 1: only its last entry catches up
    assert det_bareiss([[2, 1, 1], [1, 3, 1], [0, 0, 5]]) == 25
    # row 3 is skipped at step 0 and updated at step 1 from its stale scale
    m = [[3, 1, 0, 2], [1, 4, 1, 0], [2, 0, 5, 1], [0, 2, 1, 7]]
    assert det_bareiss(m) == leibniz(m)
    # a zero pivot swaps in a row that was skipped before
    m = [[2, 1, 0, 0], [4, 2, 1, 0], [0, 3, 1, 1], [1, 0, 0, 3]]
    assert det_bareiss(m) == leibniz(m) != 0
    # banded: entries past a row's last nonzero column stay untouched
    band = [[binom(5, 2 + i - j) for j in range(9)] for i in range(9)]
    assert det_bareiss(band) == det_modular(band)
    assert det_bareiss([[0, 0], [0, 0]]) == 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[7]]) == 7


@given(sparse_square(9))
@settings(max_examples=100, deadline=None)
def test_leading_minors_are_the_leading_blocks_determinants(m):
    # det_bareiss of each block is a separate elimination, checked against
    # det_modular and the Leibniz sum above.  Every minor is known: past a
    # row swap too, and past a singular stop, where the larger ones are 0
    minors = leading_minors(m)
    blocks = [det_bareiss([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
    assert minors == blocks
    # the in-place entry reads each row up to the end it is given, and an
    # end past the row's last nonzero only adds work
    assert leading_minors_in_place([list(row) for row in m], [len(m)] * len(m)) == minors


def test_leading_minors_past_row_swaps():
    assert leading_minors([]) == []
    assert leading_minors([[0]]) == [0]
    assert leading_minors([[0, 1], [1, 0]]) == [0, -1]  # a swap at step 0
    # row 1 is zero in column 0: step 0 only rescales it, to be the pivot of step 1
    assert leading_minors([[2, 1, 1], [0, 3, 1], [1, 1, 5]]) == [2, 6, 26]
    # the 2 x 2 minor vanishes, and the swap at step 1 brings up row 2: it
    # stays inside the 3 x 3 block, whose minor is the pivot with its sign flipped
    m = [[2, 1, 0, 0], [4, 2, 1, 0], [0, 3, 1, 1], [1, 0, 0, 3]]
    assert leading_minors(m) == [2, 0, -6, det_bareiss(m)] and det_bareiss(m) != 0
    # a swap at step 0 brings up row 2 past a zero row 1: the 2 x 2 minor is 0
    assert leading_minors([[0, 1, 2], [0, 3, 1], [1, 0, 4]]) == [0, 0, -5]
    # singular with no row to swap in: every larger minor vanishes
    assert leading_minors([[1, 1, 5], [1, 1, 7], [0, 0, 2]]) == [1, 0, 0]
    assert leading_minors([[1, 1, 5, 0], [1, 1, 7, 0], [0, 0, 2, 1], [0, 0, 1, 3]]) == [1, 0, 0, 0]
    # a minor that vanishes at the last step needs no swap
    assert leading_minors([[1, 2], [2, 4]]) == [1, 0]


def _checked(m):
    """det_bareiss(m) after checking it, and every leading minor, against
    the Leibniz sum."""
    minors = [leibniz([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
    assert leading_minors(m) == minors
    assert det_bareiss(m) == minors[-1]
    return minors[-1]


def test_two_step_branches():
    # steps 0 and 1 pair only while the second pivot (the 2 x 2 minor) is
    # nonzero; here it is 0, so step 0 is taken alone and step 1 swaps rows
    assert _checked([[1, 2, 0, 1], [1, 2, 1, 0], [1, 0, 1, 1], [2, 1, 0, 1]]) == -5
    # row 2 is zero in column 0 and nonzero in column 1: it takes step 1 alone
    assert _checked([[2, 1, 3, 0], [1, 3, 0, 1], [0, 3, 1, 2], [1, 0, 2, 5]]) == 72
    # step 0 alone clears row 3's column 1 (g = 0): its pair update takes no
    # multiple of row 1
    assert _checked([[2, 1, 3, 1], [4, 3, 1, 0], [1, 2, 1, 1], [2, 1, 0, 1]]) == 21
    # row 6 is updated by the pair (0, 1), skipped by the pair (2, 3) and
    # enters the pair (4, 5) stale, scaled to the pivot of step 1
    m = [[2, 1, 0, 0, 1, 0, 1],
         [1, 3, 0, 0, 0, 1, 2],
         [0, 1, 2, 1, 3, 0, 0],
         [1, 0, 1, 3, 0, 2, 1],
         [0, 0, 1, 0, 2, 1, 3],
         [0, 2, 0, 1, 1, 3, 0],
         [3, 1, 0, 0, 1, 2, 2]]
    assert _checked(m) == det_modular(m) != 0
    # after the pair (0, 1) row 3 is zero in column 2 and at step 1's scale:
    # step 2 rescales it, and its pivot p1 (the 4 x 4 minor) is 0, so the
    # pair (2, 3) is declined and step 3 swaps rows
    assert _checked([[3, 1, 2, 1, 2],
                     [1, 3, 1, 3, 0],
                     [2, 3, 0, 1, 2],
                     [3, 1, 2, 1, 3],
                     [1, 0, 2, 0, 1]]) == -22
    # the last row, skipped by the pair (2, 3) and zero in column 4, is
    # rescaled from step 1's scale by the same update at step 4
    assert _checked([[2, 1, 0, 0, 0, 2],
                     [1, 2, 2, 0, 3, 2],
                     [2, 0, 0, 3, 3, 2],
                     [1, 1, 0, 1, 2, 2],
                     [2, 2, 0, 2, 3, 2],
                     [2, 1, 0, 0, 0, 0]]) == 20
    # even n ends on a single step (k + 1 is the last row), odd n on a pair
    for n in (4, 5, 6, 7):
        m = [[(3 * i + 5 * j) % 7 - 2 + (i == j) * 4 for j in range(n)] for i in range(n)]
        assert _checked(m) == det_modular(m) != 0


def test_solve_exact_through_pairs():
    m = [[(2 * i + 3 * j) % 5 + (i == j) * 3 for j in range(5)] for i in range(5)]
    rhs = [[i - 2, 3 * i + 1] for i in range(5)]
    delta, y = solve_exact(m, rhs)
    assert delta == det_bareiss(m) == det_modular(m) != 0
    assert mat_mul(m, y) == [[delta * v for v in row] for row in rhs]


def test_large_entries_cross_the_pair_bound():
    # the leading minors of 2^s m are 2^(s k) times m's: at s = 60 every
    # pair is taken, at s = 300 none (a 2 x 2 minor has 600 bits), and at
    # s = 200 the bound falls between the pairs of steps (0, 1) and (2, 3)
    m = [[(4 * i + 7 * j) % 9 - 4 + (i == j) * 7 for j in range(7)] for i in range(7)]
    minors = [leibniz([row[:k] for row in m[:k]]) for k in range(1, 8)]
    assert all(minors)
    for s in (60, 200, 300):
        big = [[x << s for x in row] for row in m]
        assert leading_minors(big) == [v << s * k for k, v in enumerate(minors, 1)]
        assert det_bareiss(big) == det_modular(big) == minors[-1] << 7 * s
        delta, y = solve_exact(big, identity(7))
        assert delta == minors[-1] << 7 * s
        assert mat_mul(big, y) == [[delta * v for v in row] for row in identity(7)]


def test_every_line_of_the_elimination_runs_on_the_cases_above():
    # the hand-written cases between them reach every branch of `_eliminate`
    code = detkernel._eliminate.__code__
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        test_det_bareiss_rejects_ragged()
        test_bareiss_lazy_rows_and_swaps()
        test_leading_minors_past_row_swaps()
        test_two_step_branches()
        test_solve_exact_through_pairs()
        test_large_entries_cross_the_pair_bound()
    finally:
        sys.settrace(before)
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    assert sorted(lines - {code.co_firstlineno} - ran) == []


def test_det_modular_small_cases():
    assert det_modular([[0] * 3 for _ in range(3)]) == 0
    assert det_modular([[1, 2], [3, 4]]) == -2


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_modular_matches_bareiss(n, data):
    m = square(n, lambda: data.draw(small_entries))
    assert det_modular(m) == det_bareiss(m)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_det_multiplicative(n, data):
    a = square(n, lambda: data.draw(st.integers(min_value=-9, max_value=9)))
    b = square(n, lambda: data.draw(st.integers(min_value=-9, max_value=9)))
    assert det_bareiss(mat_mul(a, b)) == det_bareiss(a) * det_bareiss(b)


def test_row_swap_negates_and_duplicate_row_kills():
    m = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    swapped = [m[1], m[0], m[2]]
    assert det_bareiss(swapped) == -det_bareiss(m)
    assert det_bareiss([m[0], m[0], m[2]]) == 0
    assert det_modular([m[0], m[0], m[2]]) == 0


def test_solve_exact_identity_and_scaling():
    rhs = [[1, 2], [3, 4]]
    assert solve_exact(identity(2), rhs) == (1, [[1, 2], [3, 4]])
    # X = I/2 is carried as delta = 4 and Y = 4 X
    assert solve_exact([[2, 0], [0, 2]], identity(2)) == (4, [[2, 0], [0, 2]])


def test_solve_exact_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 1], [1, 1]], identity(2))


def test_solve_exact_row_swap_signs():
    # a zero pivot in column 0 swaps rows 0 and 1, so delta = det m < 0;
    # X = m^-1 rhs = [[1/2, 1], [3, 0]]
    m = [[0, 1, 0], [2, 0, 0], [0, 0, 1]]
    delta, y = solve_exact(m, [[3, 0], [1, 2], [5, -1]])
    assert delta == det_bareiss(m) == -2
    assert y == [[-1, -2], [-6, 0], [-10, 2]]


@given(sparse_square(9), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_exact_on_mostly_zero_matrices(m, data):
    n = len(m)
    r = data.draw(st.integers(min_value=1, max_value=3))
    rhs = [[data.draw(small_entries) for _ in range(r)] for _ in range(n)]
    det = det_bareiss(m)
    assert det == det_modular(m)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            solve_exact(m, rhs)
        return
    delta, y = solve_exact(m, rhs)
    assert delta == det
    assert mat_mul(m, y) == [[delta * v for v in row] for row in rhs]


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_solve_round_trip(n, data):
    m = square(n, lambda: data.draw(st.integers(min_value=-9, max_value=9)))
    if det_bareiss(m) == 0:
        return
    rhs = square(n, lambda: data.draw(st.integers(min_value=-9, max_value=9)))
    delta, y = solve_exact(m, rhs)
    assert mat_mul(m, y) == [[delta * v for v in row] for row in rhs]


def _isprime(n: int) -> bool:
    """Miller-Rabin with Sinclair's bases, deterministic below 2^64; a base set
    apart from the one det_modular's prime pool uses, so the check does not
    share it."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 325, 9375, 28178, 450775, 9780504, 1795265022):
        x = pow(base % n, d, n)
        if x in (0, 1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_reference_matches_trial_division():
    small = [n for n in range(2, 5000) if all(n % q for q in range(2, int(n**0.5) + 1))]
    assert [n for n in range(5000) if _isprime(n)] == small
    # strong pseudoprimes to several small bases, and a Carmichael number
    for n in (561, 3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not _isprime(n)
    assert _isprime(2**61 - 1) and not _isprime(2**62 - 1)


def test_prime_pools_are_prime_and_deterministic():
    pool = [detkernel._pool_prime(k) for k in range(6)]
    assert pool == [detkernel._pool_prime(k) for k in range(6)]
    assert all(_isprime(q) for q in pool)
    assert pool == sorted(pool, reverse=True) and pool[0] < 2**62
