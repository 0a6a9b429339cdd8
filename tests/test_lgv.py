"""Signed determinant counts, their symmetries, and the condensation engine."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexatile import lgv, schur
from hexatile.detkernel import det_bareiss, det_modular, leading_minors
from hexatile.exactmath import binom
from hexatile.cli import main
from hexatile.formulas import byun_even, macmahon, verify_identities
from hexatile.hexmodel import EVEN, ODD, HexSpec, endpoints
from hexatile.lgv import (
    even_count,
    even_count_by_condensation,
    odd_count,
    path_matrix,
    verify_dodgson_even,
    verify_dodgson_odd,
    verify_symmetry,
)
from hexatile.oracle import region_count


def lateral_first(a, b, c, d, p, parity):
    """The path-count matrix on `endpoints` in their own order, lateral first."""
    starts, ends = endpoints(a, b, c, d, p, parity)
    return [[binom(u - x + v - y, u - x) for (u, v) in ends] for (x, y) in starts]


def intrusive_first(a, b, c, d, p, parity):
    """`lateral_first` with the intrusive points first, in rows and columns alike."""
    m = lateral_first(a, b, c, d, p, parity)
    return [row[a:] + row[:a] for row in m[a:] + m[:a]]


def scanned_ends(m):
    """One past the last nonzero of each row, by a scan of its trailing zeros."""
    ends = []
    for row in m:
        e = len(row)
        while e and not row[e - 1]:
            e -= 1
        ends.append(e)
    return ends


def transposed(m, d):
    """The transpose of m with its first d rows and columns in reverse order."""
    order = list(range(d))[::-1] + list(range(d, len(m)))
    return [[m[j][i] for j in order] for i in order]


def assert_path_rows(spec):
    d = spec[3]
    want = intrusive_first(*spec)
    # the same builder gives the transpose, with the intrusive points in
    # reverse order: the orientation `_line` eliminates an even line in when
    # c > b and a > b + 2d; it is checked here for every spec
    for transpose, want in ((False, want), (True, transposed(want, d))):
        rows, ends = lgv._path_rows(*spec, transpose)
        assert rows == want, (spec, transpose)
        assert ends == scanned_ends(want), (spec, transpose)
        assert len({id(row) for row in rows}) == len(rows), spec  # each row a list of its own


def test_path_rows_match_the_entrywise_matrix_and_its_scanned_ends():
    # 54,432 specs: formal b, c < 0, p on both sides of 0..a, and rows whose
    # lateral part is zero, where the builder reads the intrusive head's last
    # entry; every spec in both orientations
    for a, b, c, d in product(range(7), range(-3, 6), range(-3, 6), range(4)):
        for p in range(-4, a + 5):
            for parity in (EVEN, ODD):
                assert_path_rows((a, b, c, d, p, parity))


def test_path_rows_on_long_narrow_bands():
    # dims 60-80 with b + c = 11 or 12, and their mirrors: each row ends
    # well inside the matrix, and the intrusion sits mid-side (p = a/2) or at
    # p = 1 - d
    for n in range(60, 81):
        d = n % 4
        a = n - d
        for s in (11, 12):
            b = 2 + (n + s) % 8
            for p in (a // 2, 1 - d):
                for parity in (EVEN, ODD):
                    assert_path_rows((a, b, s - b, d, p, parity))
                    assert_path_rows((a, s - b, b, d, p, parity))


def test_shape_memo_never_hands_out_a_row(monkeypatch):
    # each row is a fresh list: lines eliminated in place leave their shape's
    # memo entry as it was, so the next lines of that shape, with other sides
    # and in either orientation, are still the entrywise matrices; so are
    # shorter ones, which read a prefix of the entry
    monkeypatch.setattr(lgv, "_SHAPES", {})
    for parity, d, p in product((EVEN, ODD), (1, 2, 3), (-1, 0, 2, 5)):
        for b, c, transpose in product((3, 5), (3, 5), (False, True)):
            lgv.leading_minors_in_place(*lgv._path_rows(6, b, c, d, p, parity, transpose))
        for a, b, c in ((6, 2, 7), (6, 6, 1), (4, 4, 4), (0, 3, 3)):
            want = intrusive_first(a, b, c, d, p, parity)
            for transpose, want in ((False, want), (True, transposed(want, d))):
                got = lgv._path_rows(a, b, c, d, p, parity, transpose)
                assert got == (want, scanned_ends(want)), (a, b, c, d, p, parity, transpose)
    assert len(lgv._SHAPES) == 24


def test_shape_memo_stays_within_its_bound(monkeypatch):
    # a memo that holds its bound is cleared before a miss or a longer line
    # is stored: it never holds more than its bound, a full memo holds only
    # the new shape after a miss, and every read is a fresh build's rows
    monkeypatch.setattr(lgv, "_SHAPES", {})
    monkeypatch.setattr(lgv, "_SHAPES_MAX", 2)
    for a, p, held in [(3, 0, {0: 3}), (3, 1, {0: 3, 1: 3}),
                       (3, 2, {2: 3}),  # a miss in a full memo
                       (5, 2, {2: 5}),  # a longer line, in place
                       (3, 1, {2: 5, 1: 3}), (2, 1, {2: 5, 1: 3}),  # a shorter line reads it
                       (5, 1, {1: 5}),  # a longer line in a full memo
                       (4, 1, {1: 5})]:
        for transpose in (False, True):
            want = intrusive_first(a, 2, 2, 1, p, EVEN)
            want = transposed(want, 1) if transpose else want
            assert lgv._path_rows(a, 2, 2, 1, p, EVEN, transpose) == (want, scanned_ends(want))
        assert {key[1]: len(shape[2]) for key, shape in lgv._SHAPES.items()} == held, (a, p)


def test_one_verify_pass_fits_the_shape_memo(monkeypatch, capsys):
    # `hexatile verify all` plus the identity registry at the CLI default
    # ranges, with no line memoized yet, builds its lines on 48 shapes, and
    # the memo keeps every one
    monkeypatch.setattr(lgv, "_LINES", {})
    monkeypatch.setattr(lgv, "_SHAPES", {})
    asked = set()
    shape = lgv._shape
    monkeypatch.setattr(lgv, "_shape", lambda a, d, p, parity: asked.add((d, p, parity))
                        or shape(a, d, p, parity))
    assert main(["verify", "all"]) == 0
    capsys.readouterr()
    verify_identities("all", 4, 5, 5, 3)
    assert set(lgv._SHAPES) == asked
    assert len(asked) == 48 < lgv._SHAPES_MAX


def test_a_verify_pass_reports_the_same_with_every_memo_full(monkeypatch, capsys):
    # with the line, shape and block memos bounded at 2, nearly every miss
    # finds its memo full and clears it; `verify all` and the identity
    # registry at the CLI default ranges report the same cases and failures
    def reports(bound):
        for memo, name in ((lgv, "_LINES"), (lgv, "_SHAPES"), (schur, "_BLOCKS")):
            monkeypatch.setattr(memo, name, {})
            if bound:
                monkeypatch.setattr(memo, name + "_MAX", bound)
        assert main(["verify", "all"]) == 0
        return capsys.readouterr().out, verify_identities("all", 4, 5, 5, 3)

    want = reports(None)
    assert reports(2) == want
    assert max(len(lgv._LINES), len(lgv._SHAPES), len(schur._BLOCKS)) <= 2


def test_even_misses_with_c_above_b_eliminate_the_transpose(monkeypatch):
    # an even line with c > b and a > b + 2d is eliminated along its narrower
    # band, as the transpose; an odd line, b >= c or a <= b + 2d from
    # path_matrix's rows.  A d = 0 line is kept under EVEN, so an odd
    # request there is transposed too
    monkeypatch.setattr(lgv, "_LINES", {})
    handed = []
    real = lgv.leading_minors_in_place
    monkeypatch.setattr(lgv, "leading_minors_in_place", lambda rows, ends: handed.append(
        ([list(row) for row in rows], list(ends))) or real(rows, ends))
    p = 2
    for a, b, c, d, parity, reflect in [
            (7, 2, 5, 2, EVEN, True), (6, 2, 5, 2, EVEN, False), (3, 2, 5, 0, ODD, True),
            (7, 2, 5, 2, ODD, False), (7, 5, 2, 2, EVEN, False), (7, 4, 4, 2, EVEN, False),
            (2, -1, 3, 1, EVEN, True)]:
        spec = (a, b, c, d, p, parity)
        lgv._LINES.clear()  # (7, 2, 5, 2) and (6, 2, 5, 2) share a line
        value = lgv._det(*spec)  # b = -1: a formal line, as condensation asks for
        assert value == det_bareiss(path_matrix(*spec)), spec
        rows, ends = handed.pop()
        want = intrusive_first(*spec)
        if reflect:
            assert rows != want, spec  # the two orientations differ here
            want = transposed(want, d)
        assert (rows, ends) == (want, scanned_ends(want)), spec
    assert not handed


def test_path_matrix_macmahon_form():
    # d=0 rows are binom(b+c, b-i+j); its determinant is the box count
    m = path_matrix(3, 2, 4, 0, 0, EVEN)
    assert m == [[binom(6, 2 + i - j) for j in range(3)] for i in range(3)]
    assert det_bareiss(m) == macmahon(3, 2, 4)


def test_path_matrix_dimension():
    assert len(path_matrix(4, 5, 3, 2, 4, EVEN)) == 6
    assert len(path_matrix(4, 5, 3, 3, 3, ODD)) == 7


@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=-1, max_value=6),
    st.integers(min_value=-1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.data(),
    st.sampled_from([EVEN, ODD]),
)
@settings(max_examples=150, deadline=None)
def test_count_matrix_bareiss_matches_modular(a, b, c, d, data, parity):
    # formal b or c = -1 is what the condensation recursion builds
    p = data.draw(st.integers(min_value=-3, max_value=a + 3))
    m = path_matrix(a, b, c, d, p, parity)
    det = det_bareiss(m)
    assert det == det_modular(m)
    # path_matrix puts the intrusive points before the lateral ones, in rows
    # and columns alike, which leaves the determinant as it is; the
    # endpoints' own order, built without path_matrix, checks that
    assert det == det_modular(lateral_first(a, b, c, d, p, parity))


def test_dim_80_thin_hexagon_matches_macmahon():
    assert even_count(80, 5, 6, 0, 0).value == macmahon(80, 5, 6)
    assert odd_count(80, 6, 5, 0, 40).value == macmahon(80, 6, 5)


def test_large_halved_hexagon_matches_byun_even():
    # dim 63: a = 60 = 2p with a three-unit intrusion at the centre, by the
    # path matrix's elimination and by lgv.count, which takes schur's d x d
    # complement here
    want = byun_even(30, 5, 7, 3)
    assert lgv.count_line(60, 5, 7, 3, 30, EVEN)[-1] == want
    assert even_count(60, 5, 7, 3, 30).value == want


def _complement_calls(monkeypatch, fail=False):
    """Record lgv's calls to schur.count_via_inverse; with `fail`, raise."""
    calls = []
    real = schur.count_via_inverse

    def recorded(*spec):
        calls.append(spec)
        if fail:
            raise AssertionError(f"count_via_inverse{spec}")
        return real(*spec)

    monkeypatch.setattr(schur, "count_via_inverse", recorded)
    return calls


@pytest.mark.parametrize("spec", [
    (16, 32, 5, 2, 8), (16, 0, 3, 1, 0), (20, 3, 6, 4, -2), (40, 6, 9, 3, 41),
    (60, 5, 7, 3, 30), (24, 7, 30, 6, 11),
])
@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_a_large_miss_with_an_intrusion_is_counted_through_the_complement(monkeypatch, spec,
                                                                          parity):
    # d >= 1, a >= 16, b <= 2a and b + c > 2d: one call to schur's
    # complement, which is the elimination's count, and the line memo is left
    # as it was
    planted = {(1, 4, 1, 2, EVEN): [1, 2, 3]}
    monkeypatch.setattr(lgv, "_LINES", dict(planted))
    calls = _complement_calls(monkeypatch)
    assert lgv.count(*spec, parity) == lgv.count_line(*spec, parity)[-1]
    assert calls == [(*spec, parity)]
    assert lgv._LINES == planted


@pytest.mark.parametrize("spec", [
    (16, 20, 20, 0, 0),  # d = 0 with no side shorter than a: the complement would be
    # MacMahon's product itself, and the turned hexagon would be no smaller
    (16, 2000, 3, 2, 8),  # b >> a: the b running sums dominate
    (16, 33, 5, 2, 8),  # b = 2a + 1
    (15, 30, 5, 2, 8),  # a = 15
    (20, 3, 5, 4, 10),  # b + c = 2d: the d x d part dominates
])
def test_misses_outside_the_complement_bounds_are_eliminated(monkeypatch, spec):
    monkeypatch.setattr(lgv, "_LINES", {})
    _complement_calls(monkeypatch, fail=True)
    for parity in (EVEN, ODD):
        assert lgv.count(*spec, parity) == det_bareiss(path_matrix(*spec, parity))
        assert lgv.count(spec[0] - 1, *spec[1:], parity) == det_bareiss(
            path_matrix(spec[0] - 1, *spec[1:], parity))  # a line memo hit
    # nor the formal b or c < 0 of the condensation recursion
    for spec in ((20, -1, 8, 2, 3), (20, 8, -1, 2, 3)):
        assert lgv._det(*spec, EVEN) == det_bareiss(path_matrix(*spec, EVEN))


def _line_calls(monkeypatch):
    """Record the calls to lgv._line, the one elimination of a count."""
    calls = []
    real = lgv._line
    monkeypatch.setattr(lgv, "_line", lambda *spec: calls.append(spec) or real(*spec))
    return calls


@pytest.mark.parametrize("sides", [
    (16, 3, 9), (17, 9, 3), (20, 7, 7), (24, 0, 11), (16, 11, 0), (16, 0, 0),
    (18, 17, 30), (19, 25, 18), (23, 22, 22), (24, 23, 23), (21, 20, 40), (600, 3, 4),
])
def test_a_large_intact_miss_with_a_shorter_side_is_counted_along_it(monkeypatch, sides):
    # d = 0, a >= 16 and min(b, c) < a != max(b, c): one elimination of the
    # hexagon turned cyclically, its shortest side first, whose count is the
    # unturned a x a determinant's, in either parity and at any p; the memo
    # is left as it was
    a, b, c = sides
    planted = {(1, 4, 1, 2, EVEN): [1, 2, 3]}
    monkeypatch.setattr(lgv, "_LINES", dict(planted))
    _complement_calls(monkeypatch, fail=True)
    calls = _line_calls(monkeypatch)
    want = det_bareiss(path_matrix(a, b, c, 0, 0, EVEN))
    assert lgv.count(a, b, c, 0, 0, EVEN) == want
    turned = (b, c, a, 0, 0, EVEN) if b <= c else (c, a, b, 0, 0, EVEN)
    assert calls == [turned] and turned[0] == min(sides)
    assert lgv.count(a, b, c, 0, a // 2, ODD) == want
    assert calls == [turned] * 2
    assert lgv._LINES == planted


@pytest.mark.parametrize("sides", [(16, 3, 9), (20, 2, 7), (24, 23, 30), (40, 39, 45)])
def test_mirror_images_of_a_large_intact_hexagon_are_turned_to_distinct_matrices(
        monkeypatch, sides):
    # the turn is cyclic, not a swap: (a, b, c) and (a, c, b) with b != c
    # eliminate two matrices, transposes of each other, so a mirror check
    # still compares two eliminations
    a, b, c = sides
    monkeypatch.setattr(lgv, "_LINES", {})
    calls = _line_calls(monkeypatch)
    assert lgv.count(a, b, c, 0, 0, EVEN) == lgv.count(a, c, b, 0, 0, EVEN)
    assert len(calls) == 2 and calls[0] != calls[1]
    first, second = (path_matrix(*spec) for spec in calls)
    assert first != second and first == [list(row) for row in zip(*second)]
    assert lgv._LINES == {}


@pytest.mark.parametrize("sides", [(16, 16, 20), (16, 20, 20), (20, 40, 21), (15, 3, 4),
                                   (20, -1, 8), (20, 8, -1), (20, 5, 20), (20, 20, 5)])
def test_intact_misses_outside_the_turned_bounds_are_eliminated_and_stored(monkeypatch, sides):
    # min(b, c) >= a, a = 15, the formal b or c < 0 of the condensation
    # recursion, and a = max(b, c), where the mirror images (a, b, a) and
    # (a, a, b) are one turn apart: the a x a matrix's line, stored under its
    # own key
    a, b, c = sides
    monkeypatch.setattr(lgv, "_LINES", {})
    calls = _line_calls(monkeypatch)
    want = [det_bareiss(path_matrix(k, b, c, 0, 0, EVEN)) for k in range(a + 1)]
    assert lgv._det(a, b, c, 0, 0, EVEN) == want[a]
    assert calls == [(a, b, c, 0, 0, EVEN)]
    assert lgv._LINES == {(b, c, 0, 0, EVEN): want}


def test_a_memo_hit_at_a_large_point_is_read_from_the_memo(monkeypatch):
    # a hit is served from the memo, also where a miss would take the complement
    line = lgv.count_line(20, 6, 9, 3, 8, ODD)
    monkeypatch.setattr(lgv, "_LINES", {(6, 9, 3, 8, ODD): line})
    _complement_calls(monkeypatch, fail=True)
    assert [lgv.count(a, 6, 9, 3, 8, ODD) for a in range(21)] == line
    assert lgv._LINES == {(6, 9, 3, 8, ODD): line}


def test_no_verify_check_at_the_cli_defaults_takes_the_complement(monkeypatch, capsys):
    # `verify all` and the identity registry at the CLI default ranges ask
    # a <= 5, so each reads the path matrix's elimination: the same report
    # with schur's complement patched to raise, and every elimination is of
    # a matrix `_det` was asked for (a d = 0 one kept as (b, c, 0, 0, EVEN)),
    # never of a turned hexagon
    def reports():
        monkeypatch.setattr(lgv, "_LINES", {})
        assert main(["verify", "all"]) == 0
        return capsys.readouterr().out, verify_identities("all", 4, 5, 5, 3)

    want = reports()
    calls = _complement_calls(monkeypatch, fail=True)
    asked = set()
    real_det = lgv._det

    def det(a, b, c, d, p, parity):
        asked.add((a, b, c, d, p, parity) if d else (a, b, c, 0, 0, EVEN))
        return real_det(a, b, c, d, p, parity)

    monkeypatch.setattr(lgv, "_det", det)
    eliminated = _line_calls(monkeypatch)
    assert reports() == want
    assert calls == []
    assert eliminated and set(eliminated) <= asked


def test_even_count_base_cases():
    for b, c, d, p in [(2, 3, 1, 0), (4, 4, 2, -1), (1, 1, 0, 5)]:
        assert even_count(0, b, c, d, p).value == 1
    assert even_count(2, 2, 2, 1, 0).value == 6  # equals macmahon(2,2,1)


def test_signed_count_fields():
    sc = odd_count(4, 5, 3, 3, 3)
    assert sc.value == -8008
    assert sc.tilings == 8008
    assert sc.sign == -1
    assert sc.sign * sc.tilings == sc.value
    zero = odd_count(2, 3, 3, 1, 2)
    assert zero.sign == 0 and zero.tilings == 0


def test_damage_free_even_specs_give_macmahon():
    for a, b, c, d, p in [(2, 4, 2, 1, -1), (2, 4, 2, 3, -2), (3, 3, 3, 2, 5)]:
        spec = HexSpec(a, b, c, d, p, EVEN)
        assert even_count(a, b, c, d, p).value == macmahon(a, b, c)
        assert region_count(spec) == macmahon(a, b, c)  # without the determinant


def test_odd_zero_outside_position_window():
    # positions are counted from 0, so d > 0 admits paths only for p in [0, a-1]
    for a, b, c, d in [(2, 3, 3, 1), (3, 2, 4, 2), (1, 4, 4, 1), (4, 5, 3, 3)]:
        for p in (-2, -1, a, a + 1, a + 2):
            assert odd_count(a, b, c, d, p).value == 0
        for p in range(0, a):
            assert odd_count(a, b, c, d, p).value != 0


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-2, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_d0_counts_agree_with_macmahon(a, b, c, p):
    expected = macmahon(a, b, c)
    assert even_count(a, b, c, 0, p).value == expected
    assert odd_count(a, b, c, 0, p).value == expected


def test_condensation_engine_matches_direct():
    for a in range(0, 6):
        for b in range(1, 5):
            for c in range(1, 5):
                for d in range(0, 3):
                    for p in range(0, a + 1):
                        assert (
                            even_count_by_condensation(a, b, c, d, p)
                            == even_count(a, b, c, d, p).value
                        )


def test_condensation_base_case():
    assert even_count_by_condensation(0, 5, 7, 3, 2) == 1
    assert even_count_by_condensation(2, 3, 3, 1, 1) == even_count(2, 3, 3, 1, 1).value


def test_condensation_falls_back_where_a_division_leaves_a_remainder(monkeypatch):
    a, b, c, d, p = 4, 3, 3, 1, 2
    assert abs(lgv.count(a - 2, b, c, d, p - 1, EVEN)) > 1  # the top node's divisor
    real = lgv._dodgson
    nodes = []

    def off_by_one_at_the_top(x, a_, b_, c_, p_):
        # one less, so that the floor quotient is one less too
        nodes.append((a_, b_, c_, p_))
        return real(x, a_, b_, c_, p_) - ((a_, b_, c_, p_) == (a, b, c, p))

    monkeypatch.setattr(lgv, "_dodgson", off_by_one_at_the_top)
    assert even_count_by_condensation(a, b, c, d, p) == lgv.count(a, b, c, d, p, EVEN)
    assert (a, b, c, p) in nodes


def test_symmetry_fails_when_only_the_even_pair_disagrees(monkeypatch):
    a, b, c, d, p = 3, 4, 5, 2, 1
    monkeypatch.setattr(lgv, "_LINES", {})
    assert verify_symmetry(a, b, c, d, p)
    lgv._LINES[b, c, d, p, EVEN][a] += 1  # one wrong even count
    assert lgv.count(a, b, c, d, p, ODD) == lgv.count(a, c, b, d, a - 1 - p, ODD)
    assert not verify_symmetry(a, b, c, d, p)


def test_symmetry_examples():
    assert verify_symmetry(3, 4, 5, 2, 1)
    assert verify_symmetry(4, 3, 3, 2, 2)  # self-symmetric: b=c, p=a/2


def test_symmetry_sweep():
    for a in range(0, 5):
        for b in range(1, 6):
            for c in range(1, 6):
                for d in range(0, 3):
                    for p in range(0, a + 1):
                        assert verify_symmetry(a, b, c, d, p), (a, b, c, d, p)


def test_dodgson_requires_a_at_least_2():
    with pytest.raises(ValueError):
        verify_dodgson_even(1, 2, 2, 1, 0)
    with pytest.raises(ValueError):
        verify_dodgson_odd(1, 2, 2, 1, 0)


def test_dodgson_even_sweep():
    for a in range(2, 6):
        for b in range(1, 5):
            for c in range(1, 5):
                for d in range(0, 3):
                    for p in range(0, a + 1):
                        assert verify_dodgson_even(a, b, c, d, p), (a, b, c, d, p)


def test_dodgson_odd_sweep():
    # includes p = 0 and p = a+1, where odd counts degenerate to zero
    for a in range(2, 6):
        for b in range(1, 5):
            for c in range(1, 5):
                for d in range(0, 3):
                    for p in range(0, a + 2):
                        assert verify_dodgson_odd(a, b, c, d, p), (a, b, c, d, p)


def test_dodgson_odd_negative_instance_neighborhood():
    assert verify_dodgson_odd(4, 5, 3, 3, 3)
    for da in (-1, 0, 1):
        for dp in (-1, 0, 1):
            assert verify_dodgson_odd(4 + da, 5, 3, 3, 3 + dp)


def test_dodgson_at_formal_minus_one():
    # b or c = -1 puts the shifted points at -2: the matrices stay formal
    for a in range(2, 5):
        for other in range(0, 4):
            for d in range(0, 3):
                for p in range(-1, a + 2):
                    for b, c in ((-1, other), (other, -1)):
                        assert verify_dodgson_even(a, b, c, d, p), (a, b, c, d, p)
                        assert verify_dodgson_odd(a, b, c, d, p), (a, b, c, d, p)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.data(),
    st.sampled_from([EVEN, ODD]),
)
@settings(max_examples=150, deadline=None)
def test_memoized_counts_match_modular(a, b, c, d, data, parity):
    p = data.draw(st.integers(min_value=-3, max_value=a + 3))
    count = even_count if parity == EVEN else odd_count
    first = count(a, b, c, d, p)
    warm = count(a, b, c, d, p)  # served from the memo
    assert warm == first
    assert warm.value == det_modular(lateral_first(a, b, c, d, p, parity))


def _memoized(a, b, c, d, p, parity):
    """True iff lgv's memo already holds the count at this point."""
    line = lgv._LINES.get((b, c, d, p, parity), [])
    return a < len(line) and line[a] is not None


def test_warm_memo_still_rejects_negative_sides():
    # condensation stores formal points with b or c = -1 in the memo
    assert verify_dodgson_even(2, 0, 2, 1, 1)
    assert _memoized(1, -1, 3, 1, 1, EVEN)
    with pytest.raises(ValueError):
        even_count(1, -1, 3, 1, 1)
    assert verify_dodgson_odd(2, 2, 0, 1, 1)
    assert _memoized(1, 3, -1, 1, 0, ODD)
    with pytest.raises(ValueError):
        odd_count(1, 3, -1, 1, 0)
    for bad in ((-1, 2, 2, 1, 0), (2, 2, 2, -1, 0)):
        with pytest.raises(ValueError):
            even_count(*bad)
        with pytest.raises(ValueError):
            odd_count(*bad)


def test_count_reads_the_signed_count_as_an_int():
    # even_count and odd_count wrap count; the grid takes in b or c = 0 and
    # p on both sides of 0..a
    for a, b, c, d in product(range(4), range(3), range(3), range(3)):
        for p in range(-1, a + 2):
            for parity, signed in ((EVEN, even_count), (ODD, odd_count)):
                value = lgv.count(a, b, c, d, p, parity)
                assert value == signed(a, b, c, d, p).value, (a, b, c, d, p, parity)
                assert value == det_bareiss(path_matrix(a, b, c, d, p, parity))
    for bad in ((-1, 2, 2, 1), (2, -1, 2, 1), (2, 2, -1, 1), (2, 2, 2, -1)):
        for parity in (EVEN, ODD):
            with pytest.raises(ValueError, match="nonnegative"):
                lgv.count(*bad, 0, parity)
    # a d = 0 line is kept under EVEN, and a bad parity is still rejected there
    assert lgv.count(2, 2, 2, 0, 0, EVEN) == macmahon(2, 2, 2)
    with pytest.raises(ValueError, match="parity"):
        lgv.count(2, 2, 2, 0, 0, "bogus")


def test_count_line_is_the_counts_along_its_line_and_leaves_the_memo_alone(monkeypatch):
    # both parities, p on both sides of 0..a, and both orientations: the even
    # lines with c > b and a > b + 2d are eliminated as the transpose
    planted = {(1, 4, 1, 2, EVEN): [None] * 9}  # a line count_line must not read
    monkeypatch.setattr(lgv, "_LINES", dict(planted))
    reflected = []
    path_rows = lgv._path_rows
    monkeypatch.setattr(lgv, "_path_rows", lambda *args: (
        args[-1] and reflected.append(args[:5])) or path_rows(*args))
    a = 8
    for parity in (EVEN, ODD):
        for b, c, d, p in product(range(4), range(6), range(3), range(-1, 4)):
            want = [det_bareiss(path_matrix(x, b, c, d, p, parity)) for x in range(a + 1)]
            assert lgv.count_line(a, b, c, d, p, parity) == want, (b, c, d, p, parity)
    assert (a, 1, 4, 1, 2) in reflected
    assert lgv._LINES == planted
    # count reads the same line through the memo
    monkeypatch.setattr(lgv, "_LINES", {})
    assert [lgv.count(x, 1, 4, 1, 2, EVEN) for x in range(a, -1, -1)][::-1] == lgv.count_line(
        a, 1, 4, 1, 2, EVEN)
    # and count_line rejects what count rejects
    for bad in ((-1, 2, 2, 1, 0, EVEN), (2, -1, 2, 1, 0, EVEN), (2, 2, -1, 1, 0, ODD),
                (2, 2, 2, -1, 0, ODD), (2, 2, 2, 0, 0, "bogus"), (2, 2, 2, 1, 0, "bogus")):
        for route in (lgv.count, lgv.count_line):
            with pytest.raises(ValueError):
                route(*bad)


def test_d0_requests_eliminate_once_per_b_c(monkeypatch):
    # at d = 0 neither p nor the parity leaves a mark on path_matrix, also at
    # the formal b, c < 0 that condensation reaches ...
    for a, b, c in product(range(6), range(-3, 5), range(-3, 5)):
        want = path_matrix(a, b, c, 0, 0, EVEN)
        for p in range(-3, a + 4):
            assert path_matrix(a, b, c, 0, p, ODD) == want
            assert path_matrix(a, b, c, 0, p, EVEN) == want
    # ... so the memo keeps one line per (b, c): one elimination each
    monkeypatch.setattr(lgv, "_LINES", {})
    eliminated = []
    real = lgv.leading_minors_in_place
    monkeypatch.setattr(lgv, "leading_minors_in_place",
                        lambda rows, ends: eliminated.append(len(rows)) or real(rows, ends))
    a = 5
    for b, c in product(range(4), repeat=2):
        for parity in (EVEN, ODD):
            for p in range(-3, a + 4):
                assert lgv.count(a, b, c, 0, p, parity) == macmahon(a, b, c)
                assert lgv.count(a - 2, b, c, 0, p, parity) == macmahon(a - 2, b, c)
    assert eliminated == [a] * 16
    assert set(lgv._LINES) == {(b, c, 0, 0, EVEN) for b, c in product(range(4), repeat=2)}


def test_memo_stays_within_its_bound(monkeypatch):
    # the bound counts lines, not points
    monkeypatch.setattr(lgv, "_LINES", {})
    monkeypatch.setattr(lgv, "_LINES_MAX", 4)
    for b in range(4, 12):
        odd_count(1, b, 4, 1, 0)
        assert len(lgv._LINES) <= 4
    # b = 4..7 filled the memo, so b = 8 found it full and cleared it
    assert list(lgv._LINES) == [(b, 4, 1, 0, ODD) for b in range(8, 12)]
    assert even_count(3, 2, 4, 0, 0).value == macmahon(3, 2, 4)
    assert even_count(3, 2, 4, 0, 0).value == macmahon(3, 2, 4)
    assert len(lgv._LINES) <= 4


def test_line_memo_keeps_the_longest_line_within_its_bound(monkeypatch):
    # a line keeps every value it has, and a shorter request does not cut it
    monkeypatch.setattr(lgv, "_LINES", {})
    monkeypatch.setattr(lgv, "_LINES_MAX", 4)
    assert even_count(5, 3, 4, 1, 2).value
    want = [det_bareiss(path_matrix(a, 3, 4, 1, 2, EVEN)) for a in range(6)]
    assert lgv._LINES == {(3, 4, 1, 2, EVEN): want}  # a count at a = 5 records its line
    assert even_count(2, 3, 4, 1, 2).value == want[2]
    assert len(lgv._LINES[3, 4, 1, 2, EVEN]) == 6  # the longer line stays
    for b in range(4, 12):
        even_count(1, b, 4, 1, 0)
        assert len(lgv._LINES) <= 4
    with pytest.raises(ValueError):
        even_count(2, -1, 4, 1, 0)


def test_memo_values_match_uncached_determinants(monkeypatch):
    # a count at a = 8 records the leading minors of one elimination; each
    # value recorded is checked against its own elimination, which reads no
    # memo.  The grid takes in p = 0, p = a, the formal edges b or c = 0,
    # lines with a zero count (where the elimination swaps rows) and odd
    # lines, whose elimination swaps at step 0 once d > 0: every line is
    # known in full all the same.  Every d = 0 line is kept under one key,
    # (b, c, 0, 0, EVEN), whatever the p and parity asked
    monkeypatch.setattr(lgv, "_LINES", {})
    for parity, count in ((EVEN, even_count), (ODD, odd_count)):
        for b in range(7):
            for c in range(7):
                for d in range(5):
                    for p in range(-2, 11):
                        top = count(8, b, c, d, p).value
                        line = lgv._LINES[(b, c, d, p, parity) if d else (b, c, 0, 0, EVEN)]
                        assert len(line) == 9 and line[8] == top
                        for a, v in enumerate(line):
                            m = path_matrix(a, b, c, d, p, parity)
                            assert v == det_bareiss(m), (a, b, c, d, p, parity)


def test_zero_count_line_is_known_past_its_zero(monkeypatch):
    # E(2, 0, 1, 1, 2) = 0: the elimination swaps rows there, and the counts
    # past that zero come from the same elimination
    monkeypatch.setattr(lgv, "_LINES", {})
    assert even_count(8, 0, 1, 1, 2).value == 0
    assert lgv._LINES[0, 1, 1, 2, EVEN] == [1, 1] + [0] * 7
    assert all(det_bareiss(path_matrix(a, 0, 1, 1, 2, EVEN)) == 0 for a in range(2, 9))
    # a nonzero count past a zero one: leading minors 0, -1 and det 7, where
    # the 1 x 1 pivot vanishes and the elimination swaps at step 0
    m = [[0, 1, 2], [1, 0, 3], [2, 1, 1]]
    assert leading_minors(m) == [0, -1, 7]
    eliminated = []

    def rows_of_m(a, b, c, d, p, parity, transpose):
        eliminated.append(a)
        return [row[:d + a] for row in m[:d + a]], [d + a] * (d + a)

    monkeypatch.setattr(lgv, "_path_rows", rows_of_m)
    assert even_count(3, 5, 5, 0, 0).value == 7
    assert lgv._LINES[5, 5, 0, 0, EVEN] == [1, 0, -1, 7]
    assert even_count(2, 5, 5, 0, 0).value == -1  # from the memo
    assert eliminated == [3]
