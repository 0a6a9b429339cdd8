"""Triangular decomposition, explicit inverse, and block reduction of the
binomial matrix behind the intact-hexagon count."""

import math
import random
from collections import Counter
from dataclasses import replace
from itertools import accumulate, product
from math import factorial

import pytest

from hexatile import formulas, lgv, schur
from hexatile.detkernel import det_bareiss, mat_mul
from hexatile.exactmath import NotIntegerError, binom, rising
from hexatile.formulas import detF_factorized, macmahon
from hexatile.hexmodel import EVEN, ODD, endpoints
from hexatile.lgv import even_count, path_matrix
from hexatile.schur import (
    build_blocks,
    build_bundle,
    count_via_F,
    count_via_inverse,
    inverse_scale,
    triple_sum_entry,
    verify_inverse,
    verify_sum_formula,
    verify_triple_sum,
)


def _w(a, b, c):
    # the scale of the inverse: W M^-1 is integral
    return factorial(a - 1) * factorial(b + c + a - 1)


def _scaled_inverse(bundle):
    # X = T.diag(D).L = W M^-1
    return mat_mul(bundle.T, [[dk * v for v in row] for dk, row in zip(bundle.D, bundle.L)])


def test_bundle_a1():
    bundle = build_bundle(1, 3, 4)
    assert bundle.M == [[binom(7, 3)]]
    assert bundle.L == [[1]]
    assert bundle.T == [[1]]
    assert bundle.U == [[binom(7, 3)]]
    assert bundle.D == [factorial(3) * factorial(4)]
    assert _scaled_inverse(bundle) == [[144]] == [[factorial(7) // 35]]
    assert inverse_scale(1, 3, 4) == factorial(7)


def test_bundle_shapes_and_triangularity():
    a, b, c = 4, 3, 2
    bundle = build_bundle(a, b, c)
    for mat in (bundle.M, bundle.L, bundle.T, bundle.U):
        assert len(mat) == a and all(len(row) == a for row in mat)
    assert len(bundle.D) == a
    for i in range(a):
        assert bundle.L[i][i] == rising(b + 1, i)  # r_i, the row scale of L and U
        assert bundle.T[i][i] == rising(c + 1, i)  # s_i, the column scale of T
        for j in range(i + 1, a):
            assert bundle.L[i][j] == 0  # lower triangular
            assert bundle.U[j][i] == 0  # upper triangular
            assert bundle.T[j][i] == 0


def test_bundle_products():
    for a in range(1, 6):
        for b in range(0, 6):
            for c in range(0, 6):
                bundle = build_bundle(a, b, c)
                assert bundle.U == mat_mul(bundle.L, bundle.M)
                w = _w(a, b, c)
                assert inverse_scale(a, b, c) == w
                assert mat_mul(bundle.M, _scaled_inverse(bundle)) == [
                    [w if i == j else 0 for j in range(a)] for i in range(a)
                ]


def test_det_u_is_macmahon():
    for a in range(1, 6):
        for b, c in [(2, 3), (4, 4), (5, 1)]:
            bundle = build_bundle(a, b, c)
            diag = math.prod(bundle.U[i][i] for i in range(a))
            assert diag == macmahon(a, b, c) * math.prod(rising(b + 1, i) for i in range(a))
            assert det_bareiss(bundle.M) == macmahon(a, b, c)


def test_verify_inverse():
    assert verify_inverse(build_bundle(4, 3, 2))
    for a in range(0, 6):  # a = 0: the empty matrix
        for b in range(0, 6):
            for c in range(0, 6):
                assert verify_inverse(build_bundle(a, b, c)), (a, b, c)


def test_blocks_reassemble_to_lgv_matrix():
    for a, b, c, d, p in [(4, 5, 3, 2, 4), (2, 3, 3, 1, 0), (3, 4, 5, 2, 2), (1, 2, 2, 1, 1)]:
        blocks = build_blocks(a, b, c, d, p)
        # the LGV matrix with lateral points first, intrusive ones last
        starts, ends = endpoints(a, b, c, d, p, EVEN)
        full = [[binom(u - x + v - y, u - x) for (u, v) in ends] for (x, y) in starts]
        for i in range(a):
            for j in range(a):
                assert blocks.Q2[i][j] == full[i][j]
            for j in range(d):
                assert blocks.Q1[i][j] == full[i][a + j]
        for i in range(d):
            for j in range(a):
                assert blocks.Q3[i][j] == full[a + i][j]
            for j in range(d):
                assert blocks.Q4[i][j] == full[a + i][a + j]


def test_q4_structure():
    blocks = build_blocks(3, 4, 4, 3, 1)
    for i in range(3):
        assert blocks.Q4[i][i] == 1
        for j in range(i):
            assert blocks.Q4[i][j] == 0


def test_f_entries_do_not_depend_on_d():
    base = build_blocks(4, 5, 5, 4, 2).Fp
    for d in range(1, 4):
        smaller = build_blocks(4, 5, 5, d, 2).Fp
        for i in range(d):
            for j in range(d):
                assert smaller[i][j] == base[i][j]


def test_count_via_F():
    assert count_via_F(2, 2, 2, 1, 1) == 8
    assert count_via_F(4, 5, 3, 2, 4) == even_count(4, 5, 3, 2, 4).value
    for a in range(1, 5):
        for b in range(1, 6):
            for c in range(1, 6):
                for d in range(1, 4):
                    for p in range(0, a + 1):
                        assert count_via_F(a, b, c, d, p) == even_count(a, b, c, d, p).value


def test_count_via_F_outside_the_needle_window():
    for a in range(1, 5):
        for b in range(1, 5):
            for c in range(1, 5):
                for d in range(1, 4):
                    for p in (-2, a + 2):
                        assert count_via_F(a, b, c, d, p) == even_count(a, b, c, d, p).value


def test_count_via_inverse_is_the_path_determinant():
    # 8,100 points of prefactor_P's window, a = 0 among them
    points = 0
    for d in range(1, 6):
        for a in range(9):
            for p in range(a + 1):
                for b in range(d + 1, d + 7):
                    for c in range(d + p + 1, d + p + 7):
                        want = det_bareiss(path_matrix(a, b, c, d, p, EVEN))
                        assert count_via_inverse(a, b, c, d, p) == want, (a, b, c, d, p)
                        points += 1
    assert points == 8100


@pytest.mark.parametrize("spec", [
    (0, 8, 9, 7, 0), (14, 7, 9, 6, 0), (20, 8, 15, 6, 5), (25, 9, 18, 7, 6),
    (30, 8, 40, 7, 20), (80, 4, 45, 3, 40),
])
def test_count_via_inverse_at_depths_6_and_7_and_on_a_long_side(spec):
    assert count_via_inverse(*spec) == det_bareiss(path_matrix(*spec, EVEN))


def _comb_only_in_support(monkeypatch):
    """Make schur's math.comb fail for a binomial outside its support."""
    def comb_in_support(n, k):
        assert 0 <= k <= n, (n, k)
        return math.comb(n, k)

    monkeypatch.setattr(schur, "comb", comb_in_support)


def test_count_via_inverse_is_the_count_outside_prefactor_P_window(monkeypatch):
    # p < 0, p > a, b <= d, c <= d + p, d = 0, a = 0, b = 0, c = 0 and
    # b + c < 2i - 1; math.comb is asked only for binomials in its support
    _comb_only_in_support(monkeypatch)
    points = 0
    schur._BLOCKS.clear()
    try:
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    for d in range(4):
                        for p in range(-d - 2, a + d + 3):
                            if 0 <= p <= a and b > d >= 1 and c > d + p:
                                continue
                            want = lgv.count(a, b, c, d, p, EVEN)
                            assert count_via_inverse(a, b, c, d, p) == want, (a, b, c, d, p)
                            assert a == 0 or count_via_F(a, b, c, d, p) == want, (a, b, c, d, p)
                            points += 1
    finally:
        schur._BLOCKS.clear()
    assert points == 4889


@pytest.mark.parametrize("spec", [
    (24, 0, 9, 3, 5),  # b = 0: no running sum
    (22, 1, 12, 2, 7),  # b = 1: one
    (1, 7, 9, 3, 2),  # a = 1, with p > a
    (20, 3, 10, 4, -2),  # rows 2..4 of Q3 end before column 1: b + p + 1 - i < 1
])
def test_count_via_inverse_on_long_rows_outside_prefactor_P_window(spec):
    # against the elimination: lgv.count takes this route itself at a >= 10
    a, b, c, d, p = spec
    assert not (0 <= p <= a and b > d >= 1 and c > d + p)
    assert count_via_inverse(*spec) == lgv.count_line(*spec, EVEN)[-1]


def test_count_via_inverse_is_the_path_determinant_in_both_parities(monkeypatch):
    # every a <= 5, b, c <= 4, d <= 3 and p in -d-2..a+d+2: p < 0, p > a,
    # b or c = 0, a = 0 (where the odd count is 0 once d > 0) and odd needles
    # that leave the hexagon; math.comb is asked only inside its support
    _comb_only_in_support(monkeypatch)
    points = 0
    for parity in (EVEN, ODD):
        for a, b, c, d in product(range(6), range(5), range(5), range(4)):
            for p in range(-d - 2, a + d + 3):
                want = det_bareiss(path_matrix(a, b, c, d, p, parity))
                assert count_via_inverse(a, b, c, d, p, parity) == want, (a, b, c, d, p, parity)
                points += 1
    assert points == 2 * 25 * sum(a + 2 * d + 5 for a in range(6) for d in range(4))
    assert count_via_inverse(0, 3, 3, 2, 0, ODD) == 0
    assert count_via_inverse(0, 3, 3, 0, 0, ODD) == 1


@pytest.mark.parametrize("spec", [
    (12, 5, 0, 2, 6),  # c = 0, and row 1 of Q3 starts past lo: lo < first
    (14, 6, 1, 3, 7),  # lo < first
    (12, 3, 9, 2, 6),  # lo > first
    (12, 0, 7, 3, 5),  # b = 0: no running sum
    (12, 5, 6, 3, -3), (12, 5, 6, 3, -5),  # p <= -d: Q1 is zero on rows 1..a
    (12, 5, 6, 3, 15), (12, 5, 6, 3, 18),  # p >= a + d: so too
    (12, 5, 6, 3, 11), (12, 5, 6, 3, 12),  # p = a - 1 and a, the odd window's edge
    (2, 6, 7, 4, 1), (3, 9, 9, 5, 2),  # d > a
    (1, 4, 5, 2, 0), (1, 4, 5, 2, 1),  # a = 1
    (10, 1, 2, 3, 4),  # row 3 of Q3 is empty: first > last
    (20, 10, 3, 4, 12),
])
@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_count_via_inverse_at_the_edges_of_its_windows(monkeypatch, spec, parity):
    # the weights and the series of (1+z)^-c from row lo of Q1 on, each row
    # of Q3 built on its support first..last and summed from column first:
    # the path determinant where those windows have edges, with math.comb
    # asked only inside its support
    _comb_only_in_support(monkeypatch)
    assert count_via_inverse(*spec, parity) == det_bareiss(path_matrix(*spec, parity))


def _signed_q3_row(b, c, i, p, o, columns):
    """(-1)^t Q3[i, t] C(c+t-1, t-1) for t = 1..columns, not cut at any a."""
    return [(-1) ** t * binom(b + c + 1 - 2 * i - o, c - i + t - p - o) * binom(c + t - 1, t - 1)
            for t in range(1, columns + 1)]


def _running_sums(row, times):
    for _ in range(times):
        row = [*accumulate(row)]
    return row


@pytest.mark.parametrize("o", [0, 1])
def test_e_running_sums_of_a_q3_row_are_its_closed_form_and_vanish_past_column_i_plus_p_plus_o(o):
    # with p >= 1-i-o, row i of Q3 diag(C(c+t-1, t-1)) has the factor
    # (1+z)^e, e = b+1-2i-o: e running sums of the signed row are
    # (-1)^t C(m, t-1) C(N+t-1, c+t-1-m), m = i+p+o-1 and N = b+c+1-2i-o,
    # so nothing is left past column i+p+o, on rows taken past their last
    # nonzero, which count_via_inverse cuts at column a
    rng = random.Random(54 + o)
    seen, rows = set(), 0
    while rows < 600:
        i, c, a, e = rng.randint(1, 6), rng.randint(0, 12), rng.randint(1, 12), rng.randint(0, 14)
        b, p = e + 2 * i + o - 1, rng.randint(1 - i - o, a + 4)
        m, n = i + p + o - 1, b + c + 1 - 2 * i - o
        columns = max(m + 1, b + 1 - i + p) + 3
        row = _signed_q3_row(b, c, i, p, o, columns)
        if not any(row):
            continue
        closed = [(-1) ** t * binom(m, t - 1) * binom(n + t - 1, c + t - 1 - m)
                  for t in range(1, columns + 1)]
        assert _running_sums(row, e) == closed, (b, c, i, p, o)
        assert any(closed) and not any(closed[m + 1:])
        seen |= {name for name, hit in [("c = 0", c == 0), ("e = 0", e == 0),
                                        ("first > 1", m + 1 - c > 1), ("i+p+o > a", m + 1 > a)]
                 if hit}
        rows += 1
    assert seen == {"c = 0", "e = 0", "first > 1", "i+p+o > a"}


@pytest.mark.parametrize("o", [0, 1])
def test_rows_with_e_below_0_take_2i_minus_1_plus_o_sums_of_their_closed_form(o):
    # with m = i+p+o-1 >= 0 the factor needs no e > 0: u(z) (1+z)^-b is
    # (1+z)^-(2i-1+o) times the closed form at every b, so b running sums of
    # the signed row are 2i-1+o running sums of the closed form, also where
    # b < 2i-1+o and the closed form is the row's differences, not its sums
    rng = random.Random(55 + o)
    seen, rows = set(), 0
    while rows < 600:
        i, c = rng.randint(1, 6), rng.randint(0, 12)
        b, m = rng.randint(0, 2 * i - 2 + o), rng.randint(0, 12)
        p, n = m + 1 - i - o, b + c + 1 - 2 * i - o
        columns = m + c + 4
        row = _signed_q3_row(b, c, i, p, o, columns)
        if not any(row):  # m < c - n: first > last, a row count_via_inverse skips
            continue
        closed = [(-1) ** t * binom(m, t - 1) * binom(n + t - 1, c + t - 1 - m)
                  for t in range(1, columns + 1)]
        assert _running_sums(closed, 2 * i - 1 + o) == _running_sums(row, b), (b, c, i, p, o)
        seen |= {name for name, hit in [("b = 0", b == 0), ("e < -1", n - c < -1),
                                        ("first = 1", m < c), ("first > 1", m > c)] if hit}
        rows += 1
    assert seen == {"b = 0", "e < -1", "first = 1", "first > 1"}


@pytest.mark.parametrize("b, c, i, p, o", [(6, 3, 2, -2, 0), (7, 3, 2, -3, 1)])
def test_e_running_sums_of_a_q3_row_at_p_minus_i_minus_o_do_not_vanish(b, c, i, p, o):
    # at p = -i-o the row's series has a negative power of z, and after its
    # e = 3 running sums no column is 0: -C(k+2, 2) at column k.  So no closed
    # form cuts such a row short, and count_via_inverse counts every p + o < 0
    # at its mirror image, where m >= 0 on every row
    row = _signed_q3_row(b, c, i, p, o, 30)
    assert row[:4] == [-15, 24, -10, 0] and not any(row[3:])
    assert _running_sums(row, b + 1 - 2 * i - o) == [-math.comb(k + 2, 2) for k in range(4, 34)]


@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_count_via_inverse_past_b_2a_is_the_path_determinant(monkeypatch, parity):
    # b in (2a, 4a] and b >> a, which lgv.count sends here at a >= 10 and
    # b + c > 2d: every row starts from its closed form on columns
    # first..i+p+o and takes 2i-1+o running sums, e <= 0 among them, and
    # p + o < 0 is counted at its mirror image, where c is the long side.
    # math.comb is asked only inside its support
    _comb_only_in_support(monkeypatch)
    points = 0
    for a in (1, 2, 3, 5, 8, 12):
        for b in sorted({2 * a + 1, 3 * a, 4 * a, 60}):
            for d, c in product((1, 2, 3), (0, 2 + (a + b) % 10)):
                for p in range(-d - 2, a + d + 3):
                    want = lgv.count_line(a, b, c, d, p, parity)[-1]
                    assert count_via_inverse(a, b, c, d, p, parity) == want, (a, b, c, d, p)
                    points += 1
    assert points == 1980


@pytest.mark.parametrize("spec", [
    (10, 2000, 3, 4, -1), (16, 2000, 3, 2, -1), (10, 3, 2000, 4, -1), (12, 25, 6, 3, -2),
    (12, 6, 25, 2, -3), (8, 17, 60, 3, -1), (5, 60, 4, 2, -4), (10, 21, 21, 2, -1),
])
@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_count_via_inverse_at_p_plus_o_below_0_is_the_path_determinant(monkeypatch, spec,
                                                                       parity):
    # counted at the mirror image (a, c, b, d, a-o-p), with b or c in
    # {2a+1, 60, 2000}, the odd needle one step further left so that p + o
    # < 0; at b = 2000 the mirror has c = 2000
    _comb_only_in_support(monkeypatch)
    spec = (*spec[:4], spec[4] - (parity == ODD))
    assert count_via_inverse(*spec, parity) == lgv.count_line(*spec, parity)[-1]


def test_mirror_symmetry_never_compares_the_complements_mirror_with_itself(monkeypatch):
    # the check's points have p in 0..a, so neither side has p + o < 0 and no
    # count it compares goes through count_via_inverse's mirror; a >= 10 with
    # b + c > 2d still reaches the complement
    real, calls = schur.count_via_inverse, []

    def unmirrored(a, b, c, d, p, parity=EVEN):
        if p + (parity == ODD) < 0:
            raise AssertionError(f"count_via_inverse at its mirror: {(a, b, c, d, p, parity)}")
        calls.append((a, b, c, d, p, parity))
        return real(a, b, c, d, p, parity)

    monkeypatch.setattr(schur, "count_via_inverse", unmirrored)
    monkeypatch.setattr(lgv, "_LINES", {})
    [result] = formulas.run_checks(["mirror_symmetry"], 12, 4, 4, 2)
    assert result.cases and not result.failures
    assert calls


@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_count_via_inverse_eliminates_s_f_entry_by_entry(monkeypatch, parity):
    # S F = S Q4 - Q3 (S M^-1) Q1 from build_bundle's inverse, S / W being
    # 1 / ((a-1)! b! c!).  At p + o < 0 the count builds S F at its mirror
    # image (a, c, b, d, a-o-p), and this comparison, which reads every
    # entry, finds the original's S F there entry by entry
    o = parity == ODD
    taken = []
    monkeypatch.setattr(schur, "det_bareiss", lambda m: taken.append(m) or det_bareiss(m))
    for a, b, c in product((1, 3, 6), (0, 2, 5, 13), (0, 1, 4)):
        x, den = _scaled_inverse(build_bundle(a, b, c)), factorial(a - 1) * factorial(b) * factorial(c)
        s = factorial(b + c + a - 1) // (factorial(b) * factorial(c))
        for d in (1, 2, 3):
            for p in range(-d - 2, a + d + 3):
                q3 = [[binom(b + c + 1 - 2 * i - o, c - i + t - p - o) for t in range(1, a + 1)]
                      for i in range(1, d + 1)]
                q1 = [[binom(2 * j - 1 - o, j - l + p) for j in range(1, d + 1)] for l in range(1, a + 1)]
                q3xq1 = mat_mul(mat_mul(q3, x), q1)
                want = [[(s * den * binom(2 * (j - i - o), j - i - o) - q3xq1[i - 1][j - 1]) // den
                         for i in range(1, d + 1)] for j in range(1, d + 1)]  # transposed
                taken.clear()
                count_via_inverse(a, b, c, d, p, parity)
                assert taken == [want], (a, b, c, d, p)


@pytest.mark.parametrize("spec", [
    (9, 8, 9, 7, 4), (14, 7, 9, 6, 0), (20, 8, 15, 6, 5), (25, 9, 18, 7, 6),
    (31, 8, 40, 7, 15), (79, 9, 5, 3, 39), (30, 6, 4, 2, -1), (20, 3, 9, 4, 22),
])
def test_odd_count_via_inverse_at_depths_6_and_7_and_on_a_long_side(spec):
    assert count_via_inverse(*spec, ODD) == det_bareiss(path_matrix(*spec, ODD))


@pytest.mark.parametrize("spec", [(-1, 3, 3, 1, 0), (2, -1, 3, 1, 0), (3, 2, -1, 1, 1),
                                  (2, 3, 3, -1, 1), (0, -1, 2, 1, 0)])
def test_count_via_inverse_rejects_points_outside_its_window(spec, monkeypatch):
    # its window is a, b, c, d >= 0 (every integer p): a negative side, a = 0
    # among them, is a ValueError on every route, raised before the memo is
    # read (an entry planted at the key (a, b, c, p))
    a, b, c, d, p = spec
    monkeypatch.setattr(schur, "_BLOCKS", {})
    planted = schur._complement(2, 3, 3, 2, 1)
    monkeypatch.setattr(schur, "_BLOCKS", {(a, b, c, p): planted})
    for route in (count_via_inverse, count_via_F, build_blocks, lambda *s: lgv.count(*s, EVEN)):
        with pytest.raises(ValueError):
            route(*spec)


def test_count_via_inverse_refuses_a_remainder(monkeypatch):
    # one more on det(S F) leaves M(a, b, c) over S^d
    det = schur.det_bareiss
    monkeypatch.setattr(schur, "det_bareiss", lambda m: det(m) + 1)
    with pytest.raises(NotIntegerError):
        count_via_inverse(4, 5, 6, 2, 1)
    # a point counted at its mirror image is named as asked
    with pytest.raises(NotIntegerError, match=r"\(4, 5, 6, 2, -1, 'even'\)"):
        count_via_inverse(4, 5, 6, 2, -1)


def test_blocks_delta_is_macmahon_and_solves_q2():
    # every point of the `schur` verify suite at its default ranges
    points = 0
    for a in range(1, 5):
        for b in range(1, 6):
            for c in range(1, 6):
                for d in range(0, 4):
                    for p in range(0, a + 1):
                        blocks = build_blocks(a, b, c, d, p)
                        assert blocks.delta == macmahon(a, b, c)
                        want = [lgv.count(a, b, c, e, p, EVEN) for e in range(d + 1)]
                        assert blocks.counts == want
                        assert mat_mul(blocks.Q2, blocks.Y) == [
                            [blocks.delta * v for v in row] for row in blocks.Q1
                        ]
                        points += 1
    assert points == 1400


def test_count_via_F_refuses_a_remainder(monkeypatch):
    # det(Fp) = E delta^(d-1), so one more on the last minor leaves delta over delta^d
    minors = schur.leading_minors
    monkeypatch.setattr(schur, "leading_minors", lambda m: minors(m)[:-1] + [minors(m)[-1] + 1])
    schur._BLOCKS.clear()
    try:
        with pytest.raises(NotIntegerError):
            count_via_F(4, 5, 3, 2, 4)
        # the smaller depths of the same entry are read from their own minors
        assert count_via_F(4, 5, 3, 1, 4) == even_count(4, 5, 3, 1, 4).value
        assert count_via_F(4, 5, 3, 0, 4) == macmahon(4, 5, 3)
    finally:
        schur._BLOCKS.clear()


def test_count_via_F_d0_degenerates_to_macmahon():
    assert count_via_F(3, 4, 5, 0, 1) == macmahon(3, 4, 5)


def test_detF_matches_factorized_at_a_2p():
    for p in range(1, 3):
        for b in range(2, 6):
            for c in range(2, 6):
                for d in range(1, min(b, c) + 1):
                    blocks = build_blocks(2 * p, b, c, d, p)
                    # det F = det(Fp) / delta^d, cross-multiplied
                    want = detF_factorized(p, b, c, d) * blocks.delta**d
                    assert det_bareiss(blocks.Fp) == want


def test_triple_sum_entries():
    for i in range(1, 4):
        for j in range(1, 4):
            assert verify_triple_sum(3, 3, 3, 1, i, j)
    # a=1 collapses the sums to the single k=l=1 term
    assert verify_triple_sum(1, 4, 2, 0, 1, 1)
    for a, b, c, p in [(2, 3, 4, 1), (4, 2, 2, 2), (3, 5, 2, 0)]:
        for i in range(1, 3):
            for j in range(1, 3):
                assert verify_triple_sum(a, b, c, p, i, j), (a, b, c, p, i, j)


def test_triple_sum_rejects_indices_below_one(monkeypatch):
    # row or column 0 would read the last row or column of Y and Q3
    monkeypatch.setattr(schur, "_BLOCKS", {})
    for i, j in ((1, 0), (0, 1), (0, 0), (-1, 2)):
        with pytest.raises(ValueError, match=rf"\(i, j\) = \({i}, {j}\)"):
            verify_triple_sum(3, 3, 3, 1, i, j)
    assert schur._BLOCKS == {}  # raised before the block memo is read
    assert verify_triple_sum(3, 3, 3, 1, 1, 1)


def test_triple_sum_entry_value():
    blocks = build_blocks(3, 3, 3, 2, 1)
    q3y = mat_mul(blocks.Q3, blocks.Y)  # delta Q3.Q2^{-1}.Q1
    # triple_sum_entry is W times the entry of Q3.Q2^{-1}.Q1 (1-based)
    for i in range(1, 3):
        for j in range(1, 3):
            assert blocks.delta * triple_sum_entry(3, 3, 3, 1, i, j) == _w(3, 3, 3) * q3y[i - 1][j - 1]


def test_inverse_checks_fail_on_one_wrong_inner_sum(monkeypatch):
    inner = schur._inner_sum

    def clear_memos():
        inner.cache_clear()
        schur.double_sum_entry.cache_clear()

    clear_memos()
    monkeypatch.setattr(schur, "_inner_sum", lambda a, b, c, i, l: inner(a, b, c, i, l) + ((i, l) == (2, 1)))
    try:
        assert not verify_inverse(build_bundle(3, 2, 2))
        assert not verify_triple_sum(3, 3, 3, 1, 2, 1)
    finally:
        monkeypatch.undo()
        clear_memos()
    assert verify_inverse(build_bundle(3, 2, 2))
    assert verify_triple_sum(3, 3, 3, 1, 2, 1)


def test_only_the_double_sum_comparison_catches_a_wrong_double_sum(monkeypatch):
    # at (a, b, c, p, i) = (2, 1, c, 0, 2) the triple sum's outer binomial
    # C(b+c-2i+1, c-i+t-p) is 0 at t = i, so the triple sum never reads the
    # double-sum entry of row i, and only the double-sum comparison sees it
    point = (2, 1, 3, 0, 2, 1)
    assert verify_triple_sum(*point)
    triple = triple_sum_entry(*point)
    double, reads = schur.double_sum_entry, []

    def off_by_one(*q):
        reads.append(q)
        return double(*q) + (q == point)

    monkeypatch.setattr(schur, "double_sum_entry", off_by_one)
    assert triple_sum_entry(*point) == triple and point not in reads
    assert not verify_triple_sum(*point)


def test_verify_inverse_fails_on_one_wrong_factor_entry():
    bundle = build_bundle(4, 3, 2)
    assert verify_inverse(bundle)

    def bump(m, i, j):
        return [[v + ((r, k) == (i, j)) for k, v in enumerate(row)] for r, row in enumerate(m)]

    for field, wrong in [
        ("U", bump(bundle.U, 1, 2)),
        ("L", bump(bundle.L, 2, 1)),
        ("T", bump(bundle.T, 1, 3)),
        ("D", [v + (k == 2) for k, v in enumerate(bundle.D)]),
    ]:
        assert not verify_inverse(replace(bundle, **{field: wrong})), field


def test_verify_sum_formula():
    from hexatile.formulas import OutOfValidityError

    assert verify_sum_formula(3, 4, 5, 1)
    checked = 0
    for a in range(1, 6):
        for b in range(1, 6):
            for c in range(1, 6):
                for p in range(0, a + 1):
                    try:
                        ok = verify_sum_formula(a, b, c, p)
                    except OutOfValidityError:
                        continue
                    assert ok, (a, b, c, p)
                    checked += 1
    assert checked > 300


def test_verify_sum_formula_tally_includes_failing_points():
    from hexatile.formulas import OutOfValidityError

    def verdict(a, b, c, p):
        try:
            return verify_sum_formula(a, b, c, p)
        except OutOfValidityError:
            return None

    tally = Counter(
        verdict(a, b, c, p)
        for a in range(0, 6)
        for b in range(-1, 6)
        for c in range(-1, 6)
        for p in range(-1, a + 2)
    )
    # p = a + 1 is inside the window, and the display fails there
    assert tally == {True: 525, False: 140, None: 952}
    assert not verify_sum_formula(1, 1, 2, 2)
    with pytest.raises(OutOfValidityError):
        verify_sum_formula(2, -2, 2, 3)  # b + c = 0: (b+c)_a vanishes


def _counting_builds(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return build_blocks(*args)

    monkeypatch.setattr(schur, "build_blocks", counted)
    return built


def test_inverse_entry_sums_builds_each_distinct_block_once(monkeypatch):
    from hexatile import cli, formulas

    built = _counting_builds(monkeypatch)
    schur._BLOCKS.clear()
    try:
        [result] = formulas.run_checks(["inverse_entry_sums"], 5, 5, 5, 3)
        assert (result.cases, result.failures) == (704, [])
        # 704 (a, b, c, p, i, j) ask for 176 distinct (a, b, c, p), each built
        # once at its largest depth max(i, j) = 2, which is asked for first
        assert len(built) == len({args[:3] + args[4:] for args in built}) == 176
        assert {args[3] for args in built} == {2}
        blocks = schur._complement(3, 3, 3, 2, 1)
        assert [len(blocks.Y), len(blocks.Y[0]), len(blocks.Q3), len(blocks.Q3[0]),
                len(blocks.counts)] == [3, 2, 2, 3, 3]
        # the memo keeps only what its readers read: not Q1, Q2, Q4 or Fp
        assert blocks._fields == ("counts", "delta", "Y", "Q3")

        # as the `schur` suite runs them, complement_block_count leaves every
        # block inverse_entry_sums reads, one per (a, b, c, p) at d = dmax
        schur._BLOCKS.clear()
        built.clear()
        first, second = cli._SUITES["schur"]
        [result] = formulas.run_checks([first], 4, 5, 5, 3)
        assert (result.cases, result.failures) == (1400, [])
        assert len(built) == len(set(built)) == 350 and {args[3] for args in built} == {3}
        built.clear()
        [result] = formulas.run_checks([second], 4, 5, 5, 3)
        assert (result.cases, result.failures, built) == (704, [], [])
    finally:
        schur._BLOCKS.clear()


def _fresh_count(a, b, c, d, p):
    # det(Fp) delta / delta^d from a build that reads no memo
    blocks = build_blocks(a, b, c, d, p)
    count, rest = divmod(det_bareiss(blocks.Fp) * blocks.delta, blocks.delta**d)
    assert not rest
    return count


def test_block_memo_counts_match_a_fresh_build_in_either_order(monkeypatch):
    keys = [(a, b, c, p) for a in range(1, 5) for b in range(6) for c in range(6)
            for p in range(-2, a + 3)]
    want = {(a, b, c, d, p): _fresh_count(a, b, c, d, p)
            for a, b, c, p in keys for d in range(5)}
    built = _counting_builds(monkeypatch)
    try:
        for depths, builds in [(range(5), 5), (range(4, -1, -1), 1)]:
            schur._BLOCKS.clear()
            built.clear()
            for a, b, c, p in keys:
                for d in depths:
                    assert count_via_F(a, b, c, d, p) == want[a, b, c, d, p], (a, b, c, d, p)
            # ascending rebuilds at every depth; descending builds once, at the top
            assert len(built) == builds * len(keys)
    finally:
        schur._BLOCKS.clear()


def test_block_memo_stays_within_its_bound(monkeypatch):
    # a memo that holds its bound is cleared before a miss or a deeper entry
    # is stored: it never holds more than its bound, a full memo holds only
    # the new entry after a miss, and every read is a fresh build's count
    monkeypatch.setattr(schur, "_BLOCKS_MAX", 4)
    k0, k1, k2, k3, k4 = [(2, 3, 3, 1), (3, 2, 4, 0), (1, 5, 1, 1), (4, 4, 4, 2), (3, 3, 2, 3)]
    schur._BLOCKS.clear()
    try:
        for key, d, held in [(k0, 2, {k0: 3}), (k1, 2, {k0: 3, k1: 3}),
                             (k2, 2, {k0: 3, k1: 3, k2: 3}), (k3, 2, {k0: 3, k1: 3, k2: 3, k3: 3}),
                             (k4, 2, {k4: 3}),  # a miss in a full memo
                             (k0, 1, {k4: 3, k0: 2}),
                             (k0, 3, {k4: 3, k0: 4}),  # deeper, in place
                             (k1, 2, {k4: 3, k0: 4, k1: 3}), (k2, 0, {k4: 3, k0: 4, k1: 3, k2: 1}),
                             (k0, 1, {k4: 3, k0: 4, k1: 3, k2: 1}),  # a read stores nothing
                             (k1, 4, {k1: 5})]:  # deeper, in a full memo
            a, b, c, p = key
            assert count_via_F(a, b, c, d, p) == _fresh_count(a, b, c, d, p), (key, d)
            assert {k: len(entry.counts) for k, entry in schur._BLOCKS.items()} == held, (key, d)
        a, b, c, p = k1
        for d in range(5):
            assert count_via_F(a, b, c, d, p) == _fresh_count(a, b, c, d, p)
        assert list(schur._BLOCKS) == [k1]
    finally:
        schur._BLOCKS.clear()


def test_a_planted_count_fails_its_complement_block_check():
    from hexatile import formulas

    schur._BLOCKS.clear()
    try:
        blocks = schur._complement(2, 3, 3, 2, 1)
        counts = list(blocks.counts)
        counts[1] += 1
        schur._BLOCKS[2, 3, 3, 1] = blocks._replace(counts=counts)
        [result] = formulas.run_checks(["complement_block_count"], 2, 3, 3, 2)
        assert result.failures == [(2, 3, 3, 1, 1)]
    finally:
        schur._BLOCKS.clear()


def test_count_via_F_checks_its_arguments_before_the_memo():
    schur._BLOCKS.clear()
    try:
        assert count_via_F(2, 3, 3, 2, 1) == even_count(2, 3, 3, 2, 1).value
        with pytest.raises(ValueError):
            count_via_F(2, 3, 3, -1, 1)  # not counts[-1]
        schur._BLOCKS[0, 3, 3, 1] = schur._BLOCKS[2, 3, 3, 1]
        with pytest.raises(ValueError):
            count_via_F(0, 3, 3, 1, 1)
    finally:
        schur._BLOCKS.clear()
