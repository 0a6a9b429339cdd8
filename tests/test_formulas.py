"""Closed-form evaluators checked against the determinant engine."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from hexatile import lgv
from hexatile.exactmath import PoleError, binom, rising
from hexatile.formulas import (
    CLOSED_FORMS,
    OutOfValidityError,
    UnknownQError,
    byun_even,
    byun_odd,
    byun_odd_corrected,
    count_a1_reflection,
    d1_corollary,
    detF_factorized,
    f_sum,
    macmahon,
    p_one_minus_d_alt,
    p_one_minus_d_simple,
    prefactor_P,
    prefactor_P_line,
    prefactor_P_pair,
    q_known,
    special_prefactor,
    verify_identities,
)
from hexatile.hexmodel import EVEN, ODD
from hexatile.lgv import even_count, odd_count
from hexatile.qfit import simplex_grid


def test_macmahon_values():
    assert macmahon(2, 2, 2) == 20
    assert macmahon(1, 3, 4) == binom(7, 4)
    assert macmahon(5, 4, 0) == 1
    assert macmahon(0, 6, 6) == 1


def test_macmahon_is_the_box_product_in_every_argument_order():
    # MacMahon's box product prod_{i<=a, j<=b, k<=c} (i+j+k-1)/(i+j+k-2), as an integer pair
    for a, b, c in product(range(7), repeat=3):
        sums = [i + j + k for i, j, k in product(range(1, a + 1), range(1, b + 1), range(1, c + 1))]
        num, den = math.prod(s - 1 for s in sums), math.prod(s - 2 for s in sums)
        assert num % den == 0
        for order in permutations((a, b, c)):
            assert macmahon(*order) == num // den


def test_macmahon_memo_is_keyed_by_the_sides_as_given():
    # a hit costs one lookup: each of the six orders is its own memo entry,
    # all with the one value, and a negative side raises in every order
    from hexatile import formulas

    formulas._macmahon.cache_clear()
    orders = list(permutations((7, 2, 5)))
    assert {macmahon(*order) for order in orders} == {macmahon(2, 5, 7)}
    assert formulas._macmahon.cache_info().currsize == 6
    assert [macmahon(*order) for order in orders] == [macmahon(2, 5, 7)] * 6
    assert formulas._macmahon.cache_info().currsize == 6
    for order in permutations((-1, 2, 3)):
        with pytest.raises(ValueError, match="nonnegative"):
            macmahon(*order)


@pytest.mark.parametrize("closed_form, spec", [
    (lambda: macmahon(600, 3, 4), (600, 3, 4, 0, 0, EVEN)),
    (lambda: d1_corollary(600, 3, 4), (600, 3, 4, 1, 0, EVEN)),
    (lambda: byun_even(300, 3, 4, 2), (600, 3, 4, 2, 300, EVEN)),
    (lambda: -byun_odd_corrected(300, 3, 4, 1), (601, 3, 4, 1, 300, ODD)),
], ids=["macmahon", "d1_corollary", "byun_even", "byun_odd_corrected"])
def test_closed_forms_on_a_long_side_match_the_determinant(closed_form, spec):
    # both routes: the path matrix's elimination, and lgv.count, which takes
    # schur's d x d complement at these points once d >= 1
    want = closed_form()
    assert lgv.count_line(*spec)[-1] == want
    assert lgv.count(*spec) == want


def _count_steps(monkeypatch):
    """Record the box products' steps (`perm` calls) and the `factorial` calls
    in `formulas`; a loop over a long side stops at the 101st call."""
    from hexatile import formulas

    calls = {"perm": [], "factorial": []}

    def counted(name, real):
        def step(*args):
            calls[name].append(args)
            if len(calls["perm"]) + len(calls["factorial"]) > 100:
                raise AssertionError("more than 100 perm and factorial calls")
            return real(*args)
        return step

    formulas._macmahon.cache_clear()
    monkeypatch.setattr(formulas, "perm", counted("perm", math.perm))
    monkeypatch.setattr(formulas, "factorial", counted("factorial", math.factorial))
    return calls


def test_macmahon_loops_over_the_shortest_side(monkeypatch):
    calls = _count_steps(monkeypatch)
    macmahon(10**4, 2, 3)
    # two steps of the side of length 2 in each of the two box products
    assert len(calls["perm"]) == 4 and not calls["factorial"]


def test_prefactor_P_loops_over_the_shorter_sides(monkeypatch):
    calls = _count_steps(monkeypatch)
    assert prefactor_P(10**4, 3, 4, 1, 0) == macmahon(10**4, 3, 3)
    # at p = 0, P = M(10^4, 3, 3): two box products of 3 steps each, and one
    # (p+i)! for d = 1; the check's macmahon(10^4, 3, 3) is then a memo hit
    assert len(calls["perm"]) == 6 and len(calls["factorial"]) == 1


def test_d1_corollary_loops_over_the_shorter_of_a_and_b(monkeypatch):
    from hexatile import formulas

    indices = []

    def counted(x, n):
        indices.append(n)
        return rising(x, n)

    monkeypatch.setattr(formulas, "rising", counted)
    assert d1_corollary(10**4, 3, 4) == macmahon(10**4, 3, 3)
    # (4)_3 / (10^4 + 4)_3 in place of (4)_{10^4} / (7)_{10^4}
    assert indices and max(indices) <= 3


def test_byun_even_examples():
    assert byun_even(2, 3, 3, 0) == macmahon(4, 3, 3)
    assert byun_even(1, 2, 2, 1) == 8


def test_byun_even_matches_determinant():
    for p in range(0, 3):
        for b in range(1, 7):
            for c in range(1, 7):
                for d in range(1, min(b, c) + 1):
                    try:
                        val = byun_even(p, b, c, d)
                    except PoleError:
                        continue
                    assert val == even_count(2 * p, b, c, d, p).value, (p, b, c, d)


def test_byun_odd_printed_form_is_systematically_wrong():
    # The transcribed odd product disagrees with the determinant for every
    # d >= 1 we checked; sometimes it is not even an integer.  These frozen
    # instances document the discrepancy (|O| from the determinant engine).
    assert abs(odd_count(1, 1, 1, 1, 0).value) == 1
    assert byun_odd(0, 1, 1, 1) == 2
    assert abs(odd_count(1, 3, 5, 1, 0).value) == 15
    assert byun_odd(0, 3, 5, 1) == 24
    with pytest.raises(ValueError, match="not an integer"):
        byun_odd(0, 4, 4, 2)  # evaluates to 100/7
    with pytest.raises(ValueError, match="not an integer"):
        byun_odd(3, 5, 3, 3)
    assert byun_odd(1, 4, 4, 0) == macmahon(3, 4, 4)  # d=0 stays MacMahon


def test_byun_odd_corrected_matches_determinant():
    for p in range(0, 3):
        a = 2 * p + 1
        for b in range(1, 7):
            for c in range(1, 7):
                for d in range(1, min(b, c) + 1):
                    expect = odd_count(a, b, c, d, p)
                    assert byun_odd_corrected(p, b, c, d) == expect.tilings, (p, b, c, d)
                    assert (-1) ** d * byun_odd_corrected(p, b, c, d) == expect.value


def test_byun_odd_corrected_spot_value():
    assert byun_odd_corrected(3, 5, 3, 3) == 2642640
    assert odd_count(7, 5, 3, 3, 3).value == -2642640


@pytest.mark.parametrize("product", [byun_even, byun_odd, byun_odd_corrected, detF_factorized])
def test_halved_products_reject_a_negative_depth(product):
    with pytest.raises(ValueError, match="d must be nonnegative"):
        product(1, 3, 3, -1)


def test_every_closed_form_is_the_determinant_inside_its_window():
    # a <= 5, b, c <= 5, d <= 3, p from -d-2 to a+d+2, both parities: inside
    # its window no display refuses, and each is the signed count, or meets a
    # pole (only the halved products have one); the printed byun_odd is
    # informational, so it is only run
    inside, poles = {name: 0 for name in CLOSED_FORMS}, {name: 0 for name in CLOSED_FORMS}
    for a, b, c, d in product(range(6), range(6), range(6), range(4)):
        for p, parity in product(range(-d - 2, a + d + 3), (EVEN, ODD)):
            for name, (form, window) in CLOSED_FORMS.items():
                if window(a, b, c, d, p, parity) is not None:
                    continue
                inside[name] += 1
                spec = (a, b, c, d, p, parity)
                try:
                    value = form(a, b, c, d, p)
                except OutOfValidityError:
                    pytest.fail(f"{name} refuses {spec} inside its window")
                except (ValueError, ArithmeticError) as exc:
                    if name == "byun_odd":
                        continue
                    assert isinstance(exc, PoleError), (name, spec, exc)
                    poles[name] += 1
                    continue
                if name != "byun_odd":
                    assert value == lgv.count(*spec), (name, spec)
    del inside["byun_odd"]
    assert (sum(inside.values()), sum(poles.values())) == (5411, 146), (inside, poles)
    assert {name for name, n in poles.items() if n} == {"byun_even", "byun_odd_corrected"}


def test_every_window_names_the_condition_a_spec_fails():
    lacks = {
        "macmahon": ((2, 2, 2, 1, 0, EVEN), "d = 0"),
        "byun_even": ((3, 2, 2, 1, 1, EVEN), "even parity and a = 2p"),
        "byun_odd_corrected": ((2, 2, 2, 1, 1, ODD), "odd parity and a = 2p+1"),
        "p1md": ((2, 2, 2, 0, 1, EVEN), "d >= 1"),
        "d1": ((2, 2, 0, 1, 0, EVEN), "c >= 1"),
        "reflection": ((1, 2, 2, 1, 1, EVEN), "p <= 0 and 2d <= b+c+1"),
    }
    for name, (spec, lack) in lacks.items():
        assert CLOSED_FORMS[name][1](*spec) == lack
    assert CLOSED_FORMS["p1md"][1](2, 3, 0, 1, 0, EVEN) == "c >= 1 or 2d >= b+2 or a = 0"
    assert CLOSED_FORMS["p1md"][1](0, 3, 0, 1, 0, EVEN) is None  # a = 0: the count is 1
    with pytest.raises(OutOfValidityError, match="^p1md needs d >= 1$"):
        p_one_minus_d_simple(2, 2, 2, 0)


def test_count_a1_reflection_examples():
    assert count_a1_reflection(2, 2, 1, 0) == 3
    assert count_a1_reflection(6, 4, 3, -2) == binom(10, 4) - binom(5, 4) == 205
    assert count_a1_reflection(5, 3, 2, -2) == binom(8, 5)  # d+p <= 0: empty sum
    with pytest.raises(OutOfValidityError):
        count_a1_reflection(2, 2, 1, 1)


def test_count_a1_reflection_matches_determinant():
    for b in range(1, 8):
        for c in range(1, 8):
            for d in range(1, (b + c + 1) // 2 + 1):
                for p in range(-d - 1, 1):
                    assert count_a1_reflection(b, c, d, p) == even_count(1, b, c, d, p).value


def test_p_one_minus_d_simple():
    assert p_one_minus_d_simple(3, 2, 5, 2) == macmahon(3, 2, 5)  # d >= b/2+1 branch
    for a in range(0, 6):
        for b in range(1, 8):
            for c in range(1, 8):
                for d in range(1, 5):
                    assert p_one_minus_d_simple(a, b, c, d) == even_count(a, b, c, d, 1 - d).value
    with pytest.raises(OutOfValidityError):
        p_one_minus_d_simple(2, 2, 2, 0)


def test_p_one_minus_d_simple_agrees_with_a1_reflection():
    for b in range(2, 7):
        for c in range(2, 7):
            for d in range(1, (b + c + 1) // 2):
                assert p_one_minus_d_simple(1, b, c, d) == count_a1_reflection(b, c, d, 1 - d)


def test_p_one_minus_d_alt_variants():
    for a in range(0, 5):
        for b in range(1, 7):
            for c in range(1, 7):
                for d in range(1, 4):
                    expect = even_count(a, b, c, d, 1 - d).value
                    if 2 * d <= b + 1:
                        assert p_one_minus_d_alt(a, b, c, d, "sum") == expect
                    if b > d:
                        assert p_one_minus_d_alt(a, b, c, d, "polynomial") == expect
    with pytest.raises(OutOfValidityError):
        p_one_minus_d_alt(2, 2, 4, 3, "polynomial")
    with pytest.raises(ValueError):
        p_one_minus_d_alt(2, 4, 4, 1, "horner")
    # an unknown variant is named before the depth is checked
    with pytest.raises(ValueError, match="^unknown variant 'bogus'$"):
        p_one_minus_d_alt(2, 3, 3, 0, variant="bogus")


def test_f_sum_small_cases():
    assert f_sum(0, 3, 4, 2) == 0
    for b in range(1, 5):
        for c in range(1, 5):
            for d in range(1, 5):
                assert f_sum(1, b, c, d) == math.factorial(2 * d - 2)


def test_f_sum_keeps_the_pole_at_d_below_one():
    # (1)_{2d-2} = 1/(2d-1)_{2-2d} has the factor 0, not the empty product 1
    assert f_sum(0, 3, 4, 0) == 0
    for a in range(1, 4):
        for d in (0, -1):
            with pytest.raises(PoleError):
                f_sum(a, 3, 4, d)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (PoleError, OutOfValidityError) as exc:
        return type(exc)


def test_the_closed_form_memos_change_no_result():
    from hexatile import formulas

    grid = {
        formulas._f_sum: product(range(7), range(7), range(7), range(5)),
        formulas._special: ((a, b, c, d, p) for a, b, c, d in product(
            range(7), range(7), range(7), range(5)) for p in range(-d - 1, 2)),
        formulas._s_coef: product(range(7), range(7), range(7)),
    }
    for memo, points in grid.items():
        memo.cache_clear()
        for point in points:
            want = _outcome(memo.__wrapped__, *point)
            assert _outcome(memo, *point) == _outcome(memo, *point) == want, (memo, point)
    # an exception is raised on every call, never stored
    for _ in range(2):
        with pytest.raises(PoleError):
            f_sum(1, 2, 2, 0)
        with pytest.raises(OutOfValidityError):
            formulas._special(3, 2, 2, 1, 1)
    # one registry pass at the CLI defaults fits every memo: nothing is evicted
    for memo in grid:
        memo.cache_clear()
    verify_identities("all", 4, 5, 5, 3)
    for memo in grid:
        info = memo.cache_info()
        assert 0 < info.currsize < info.maxsize, (memo, info)


def test_d1_corollary():
    assert d1_corollary(2, 2, 2) == 6
    assert d1_corollary(4, 3, 1) == 1
    for a in range(0, 8):
        for b in range(0, 8):
            for c in range(1, 8):
                assert d1_corollary(a, b, c) == even_count(a, b, c, 1, 0).value
    with pytest.raises(OutOfValidityError):
        d1_corollary(2, 2, 0)


def _factorial_P(a, b, c, d, p):
    """The paper's B_p B_a B_d as factorial loops: (x)_k = (x+k-1)!/(x-1)! for x > 0."""
    f = math.factorial
    num = den = 1
    for i in range(p):  # B_p
        num *= f(i) * f(b + c - d + i)
        den *= f(b - d + i) * f(a + c - p + i)
    for i in range(p, a):  # B_a
        num *= f(i) * f(b + c - d + i)
        den *= f(b + i) * f(c - d - p + i)
    for i in range(d):  # B_d: (a-p+1+i)_p / ((p+i)! (b+c-2d+1+i)_i)
        num *= f(a + i) * f(b + c - 2 * d + i)
        den *= f(a - p + i) * f(p + i) * f(b + c - 2 * d + 2 * i)
    return Fraction(num, den)


def test_prefactor_P():
    # d=1, p=0 collapses to the intact hexagon with c shortened by one
    for a in range(1, 6):
        for b in range(2, 7):
            for c in range(2, 7):
                assert prefactor_P(a, b, c, 1, 0) == macmahon(a, b, c - 1)
    # the factorial loops on the fit simplices d = 1..5 through layer 8
    for d in range(1, 6):
        for a, b, c, p in simplex_grid(d, 8):
            assert prefactor_P(a, b, c, d, p) == _factorial_P(a, b, c, d, p)
    # M against its factorial loop on the 0..8 cube
    f = math.factorial
    for a, b, c in product(range(9), repeat=3):
        num = math.prod(f(i) * f(b + c + i) for i in range(a))
        den = math.prod(f(b + i) * f(c + i) for i in range(a))
        assert macmahon(a, b, c) == Fraction(num, den)
    # positive on a box past the simplices, so Q = E/P is defined there
    for a, b, c, d, p in product(range(1, 5), range(3, 6), range(4, 7), (1, 2), (0, 1)):
        if p <= a and b > d and c > d + p:
            assert prefactor_P(a, b, c, d, p) > 0, (a, b, c, d, p)
    with pytest.raises(OutOfValidityError):
        prefactor_P(2, 2, 2, 2, 0)  # needs b > d
    with pytest.raises(OutOfValidityError):
        prefactor_P(2, 4, 4, 1, 3)  # needs p <= a


def test_prefactor_P_line_is_prefactor_P_along_each_line():
    # a = p..top on lines of the d = 1..5 grid, top = p among them
    for d in range(1, 6):
        for b, c, p in product(range(d + 1, d + 4), range(d + 1, d + 7), range(4)):
            if c <= d + p:
                continue
            for top in (p, p + 9):
                pairs = prefactor_P_line(top, b, c, d, p)
                assert all(num > 0 and den > 0 for num, den in pairs)
                assert [Fraction(num, den) for num, den in pairs] == [
                    prefactor_P(a, b, c, d, p) for a in range(p, top + 1)], (top, b, c, d, p)
    # outside the window (top in place of a) both raise alike
    for args in ((2, 2, 2, 2, 0), (2, 4, 4, 1, 3), (3, 4, 4, 0, 0), (3, 4, 3, 1, 2),
                 (3, 4, 5, 1, -1)):
        for route in (prefactor_P, prefactor_P_line):
            with pytest.raises(OutOfValidityError):
                route(*args)


def test_prefactor_P_pair_is_prefactor_P_on_the_holdout_box():
    # criterion 14's holdout box at d = 3 and 4 (fit bounds 6 and 12, so
    # width D + 1), every third point on each axis: the unreduced pair is
    # positive and its ratio is P and the factorial loops' B_p B_a B_d
    cases = 0
    for d, width in ((3, 7), (4, 13)):
        for p in range(0, width + 5, 3):
            for a, b, c in product(range(p, p + width + 7, 3), range(d + 1, d + width + 8, 3),
                                   range(d + p + 1, d + p + width + 8, 3)):
                num, den = prefactor_P_pair(a, b, c, d, p)
                assert num > 0 and den > 0
                assert Fraction(num, den) == prefactor_P(a, b, c, d, p) == _factorial_P(a, b, c, d, p)
                cases += 1
    assert cases == 2558
    with pytest.raises(OutOfValidityError):
        prefactor_P_pair(2, 4, 4, 1, 3)  # needs p <= a


def test_q_known():
    assert q_known(5, 7, 9, 1, 3) == 1
    assert q_known(2, 3, 4, 2, 1) == Fraction(2 * 3 + 2 * 4)
    with pytest.raises(UnknownQError):
        q_known(3, 4, 4, 3, 1)


def test_q_known_d2_matches_determinant():
    for a in range(1, 7):
        for p in range(0, a + 1):
            for b in range(3, 8):
                for c in range(p + 3, p + 8):
                    lhs = prefactor_P(a, b, c, 2, p) * q_known(a, b, c, 2, p)
                    assert lhs == even_count(a, b, c, 2, p).value


def test_special_prefactor():
    # p <= -d: empty product, intrusion does no damage
    assert special_prefactor(3, 4, 4, 2, -2) == 1
    assert special_prefactor(3, 4, 4, 2, -5) == 1
    with pytest.raises(OutOfValidityError):
        special_prefactor(3, 4, 4, 2, 1)
    # no pole and no zero on a box with p <= 0, so R = G/special is defined there
    for a, b, c, d in product(range(1, 5), range(3, 6), range(4, 7), (1, 2)):
        for p in range(-d - 1, 1):
            assert special_prefactor(a, b, c, d, p) != 0, (a, b, c, d, p)


def test_detF_factorized():
    assert detF_factorized(1, 2, 2, 1) == Fraction(2, 5)
    assert detF_factorized(2, 5, 5, 0) == 1
    for p in range(1, 3):
        for b in range(2, 6):
            for c in range(2, 6):
                for d in range(1, min(b, c) + 1):
                    expect = Fraction(even_count(2 * p, b, c, d, p).value, macmahon(2 * p, b, c))
                    assert detF_factorized(p, b, c, d) == expect


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def test_byun_even_is_macmahon_times_detF():
    # one halved product behind both, poles included: same value or same error
    poles = 0
    for p, b, c, d in product(range(5), range(8), range(8), range(6)):
        want = _outcome(lambda: macmahon(2 * p, b, c) * detF_factorized(p, b, c, d))
        assert _outcome(byun_even, p, b, c, d) == want, (p, b, c, d)
        poles += want is PoleError
    assert poles > 0


@pytest.mark.parametrize("name, point, count", [
    ("special_recursion", (3, 2, 2, 1, 0), (3, 2, 2, 1, 0)),
    ("special_x1", (3, 2, 2, 1), (3, 2, 2, 1, 0)),
    ("x1", (3, 3, 2, 2), (3, 3, 2, 2, -1)),
    ("r1_reflection", (2, 3, 1, 1), (1, 3, 2, 1, 0)),
])
def test_special_ansatz_checks_fail_on_one_wrong_count(monkeypatch, name, point, count):
    from hexatile import formulas, lgv

    check = formulas._REGISTRY[name].predicate
    assert check(*point) is True

    def off_by_one(*q):
        value = lgv.count(*q)
        return value + 1 if q == count + (EVEN,) else value

    monkeypatch.setattr(formulas, "count", off_by_one)
    assert check(*point) is False
    [result] = formulas.run_checks([name], 4, 5, 5, 3)
    assert point in result.failures


@pytest.mark.parametrize("name, target, wrong, point", [
    ("p1md_simple", "even_count", (3, 3, 2, 2, -1), (3, 3, 2, 2)),
    ("p1md_sum", "even_count", (3, 3, 2, 2, -1), (3, 3, 2, 2)),
    ("p1md_polynomial", "even_count", (3, 3, 2, 2, -1), (3, 3, 2, 2)),
    ("p1d_aux", "even_count", (3, 3, 2, 2, -1), (3, 3, 2, 2)),
    ("cancel1", "macmahon", (4, 2, 3), (4, 2, 3)),
    ("cancel2", "macmahon", (2, 3, 0), (2, 3, 0)),
    ("cancel3", "macmahon", (2, 3, 0), (3, 3, 0)),
    # a = 5 is past amax = 4: only the recursion clause at a = 4 reads it
    ("sa", "_s_sum", (5, 2, 3), (4, 2, 3)),
    ("f_alternative", "f_sum", (3, 3, 2, 2), (3, 3, 2, 2)),
])
def test_integer_checks_report_exactly_one_wrong_value(monkeypatch, name, target, wrong, point):
    from hexatile import formulas

    assert formulas._REGISTRY[name].predicate(*point) is True
    if target == "even_count":  # E is read as an int through lgv.count
        target, wrong = "count", wrong + (EVEN,)
    real = getattr(formulas, target)

    def off_by_one(*q):
        value = real(*q)
        if q != wrong:
            return value
        if isinstance(value, tuple):  # an (N, D) pair
            return value[0] + value[1], value[1]
        return value + 1

    monkeypatch.setattr(formulas, target, off_by_one)
    [result] = formulas.run_checks([name], 4, 5, 5, 3)
    assert result.failures == [point]


def test_f_alternative_checks_its_first_term(monkeypatch):
    from hexatile import formulas

    # at (2, 3, 2, 2) only the k = 1 clause reads (b+c-2d+2)_{2d-2} = (3)_2
    assert formulas._f_alternative(2, 3, 2, 2)
    real = formulas.rising
    monkeypatch.setattr(formulas, "rising", lambda x, n: real(x, n) + ((x, n) == (3, 2)))
    assert not formulas._f_alternative(2, 3, 2, 2)


def test_special_recursion_skips_a_vanishing_special_prefactor():
    from hexatile import formulas

    # (c)_{a-d-p+1} = (0)_2 = 0: R = G/special_prefactor has no value here
    assert special_prefactor(2, 2, 0, 1, 0) == 0
    assert formulas._special_recursion(2, 2, 0, 1, 0) is None


def test_verify_identities_all_pass():
    report = verify_identities("all", amax=5, bmax=5, cmax=5, dmax=3)
    assert report
    for item in report:
        assert item.cases > 0, item.name
        assert not item.failures, item.name


def test_verify_identities_unknown_suite():
    with pytest.raises(ValueError):
        verify_identities("nonsense")


# verify_identities at the CLI default ranges: cases per identity, in order.
IDENTITY_CASES = {
    "elementary": 180, "cancel1": 120, "cancel2": 120, "cancel3": 120,
    "general_recursion": 2100, "g_is_one_d0": 180, "special_recursion": 402,
    "r_is_one_far": 500, "x1": 155, "special_x1": 150, "r1_reflection": 212,
    "p1d_aux": 237, "sa": 120, "factorial_sum": 24, "f_recursion": 360, "p1d_zb": 360,
    "f_d_recursion": 240, "f_alternative": 162, "sum_formula": 340,
}


def test_verify_identities_default_ranges_pinned():
    report = verify_identities("all", 4, 5, 5, 3)
    assert [r.name for r in report] == list(IDENTITY_CASES)
    assert {r.name: r.cases for r in report} == IDENTITY_CASES
    assert sum(IDENTITY_CASES.values()) == 6082
    assert all(r.passed and not r.informational for r in report)


def test_an_informational_result_passes_with_failures():
    from hexatile import formulas

    assert formulas.IdentityResult("x", 2, [(1,)], informational=True).passed
    assert not formulas.IdentityResult("x", 2, [(1,)]).passed
    [result] = formulas.run_checks(["halved_odd_product_printed"], 4, 5, 5, 3)
    assert result.informational and result.failures and result.passed


def test_run_checks_refuses_negative_ranges_and_unknown_names():
    from hexatile import formulas

    with pytest.raises(ValueError, match="ranges must be nonnegative: amax -1, dmax -2$"):
        formulas.run_checks(["elementary"], -1, 3, 3, -2)
    with pytest.raises(ValueError, match="ranges must be nonnegative: amax -1$"):
        verify_identities("sa", -1, 3, 3, 1)
    with pytest.raises(ValueError, match="unknown check 'nonsense'"):
        formulas.run_checks(["sa", "nonsense"], 3, 3, 3, 1)


@pytest.mark.parametrize("ranges, cases", [((4, 5, 5, 3), 340), ((5, 5, 5, 3), 485)])
def test_sum_formula_skips_the_points_outside_its_window(ranges, cases):
    from hexatile import formulas

    [result] = formulas.run_checks(["sum_formula"], *ranges)
    assert (result.cases, result.failures) == (cases, [])
    assert formulas._REGISTRY["sum_formula"].predicate(1, 0, 1, 0) is None  # b + p = 0


def test_verify_identities_comma_list_keeps_order():
    report = verify_identities(" sa, factorial_sum ", 3, 3, 3, 1)
    assert [r.name for r in report] == ["sa", "factorial_sum"]
    with pytest.raises(ValueError, match="unknown identity 'macmahon_product'"):
        verify_identities("sa,macmahon_product")


def test_checks_run_from_the_largest_first_coordinate_down(monkeypatch):
    from hexatile import formulas

    points = [(0, "a"), (2, "b"), (1, "c"), (2, "d"), (0, "e"), (1, "f"), (2, "g")]
    outcome = {"a": False, "b": True, "c": None, "d": False, "e": None, "f": True, "g": False}
    seen = []

    def predicate(first, tag):
        seen.append(tag)
        return outcome[tag]

    check = formulas._Check(lambda A, B, C, D: iter(points), predicate)
    monkeypatch.setattr(formulas, "_REGISTRY", {"synthetic": check})
    [result] = formulas.run_checks(["synthetic"], 4, 5, 5, 3)
    assert seen == ["b", "d", "g", "c", "f", "a", "e"]  # ties keep the generator's order
    assert result.failures == [(0, "a"), (2, "d"), (2, "g")]  # in the generator's order
    assert result.cases == 5  # c and e are skips


def test_a_verify_pass_eliminates_each_line_from_its_top(monkeypatch, capsys):
    # `verify all` and the identity registry at the CLI defaults read 2,026
    # lines, every d = 0 line kept by (b, c) alone; run with a upward, each
    # line was eliminated again for every larger a asked of it, 6,486
    # eliminations in all (for 2,463 lines, d = 0 kept by p and parity too)
    from hexatile import cli, formulas, lgv

    eliminations = []
    real = lgv.leading_minors_in_place
    monkeypatch.setattr(lgv, "_LINES", {})
    monkeypatch.setattr(lgv, "leading_minors_in_place",
                        lambda rows, ends: eliminations.append(len(rows)) or real(rows, ends))
    assert cli.main(["verify", "all"]) == 0
    formulas.verify_identities("all", 4, 5, 5, 3)
    assert len(eliminations) <= 2685
    assert len(lgv._LINES) == 2026


def test_f_d_recursion_honours_dmax():
    assert [r.cases for r in verify_identities("f_d_recursion", 4, 5, 5, 1)] == [0]
    assert [r.cases for r in verify_identities("f_d_recursion", 4, 5, 5, 2)] == [120]


def test_general_recursion_fails_on_one_wrong_count(monkeypatch):
    from hexatile import formulas, lgv

    point = (3, 2, 2, 1, 1)
    assert formulas._general_recursion(*point)

    def off_by_one(*q):
        value = lgv.count(*q)
        return value + 1 if q == point + (EVEN,) else value

    monkeypatch.setattr(formulas, "count", off_by_one)
    assert not formulas._general_recursion(*point)


def test_registry_names_unique_and_resolved():
    from hexatile import cli, formulas

    suite_checks = [name for names in cli._SUITES.values() for name in names]
    assert len(suite_checks) == len(set(suite_checks)) == 22
    identities = formulas._IDENTITIES
    assert len(identities) == len(set(identities)) == 19
    # 15 suite-only checks plus the 19 identities, each registered once
    assert set(suite_checks) | set(identities) == set(formulas._REGISTRY)
    assert len(formulas._REGISTRY) == 34
    assert [n for n, chk in formulas._REGISTRY.items() if chk.informational] == [
        "halved_odd_product_printed"]
