"""Exact interpolation of the residual factor Q = E / P."""

import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexatile import lgv, qfit
from hexatile.detkernel import det_bareiss
from hexatile.formulas import byun_even, prefactor_P, q_known
from hexatile.hexmodel import EVEN
from hexatile.qfit import (
    FitInconsistentError,
    MultiPoly,
    cross_validate,
    fit,
    fit_auto,
    poly_from_json,
    poly_to_json,
    probe_degree,
    sample_line,
    sample_ratio,
    simplex_grid,
)

D2_EXPECTED = {
    (1, 1, 0, 0): Fraction(1),  # a*b
    (0, 1, 0, 1): Fraction(-1),  # -b*p
    (0, 1, 0, 0): Fraction(1),  # b
    (0, 0, 1, 1): Fraction(1),  # c*p
    (0, 0, 1, 0): Fraction(1),  # c
    (1, 0, 0, 1): Fraction(2),  # 2*a*p
    (0, 0, 0, 2): Fraction(-2),  # -2*p^2
    (0, 0, 0, 0): Fraction(-2),  # -2
}


def test_sample_ratio_d1_is_one():
    for a, b, c, p in [(1, 2, 3, 0), (4, 5, 7, 2), (6, 3, 9, 6)]:
        assert sample_ratio(a, b, c, 1, p) == 1


def test_sample_ratio_d2_value():
    assert sample_ratio(2, 5, 6, 2, 1) == 22
    for a, b, c, p in [(2, 4, 5, 0), (3, 3, 7, 2), (5, 6, 9, 3)]:
        assert sample_ratio(a, b, c, 2, p) == q_known(a, b, c, 2, p)


def test_sample_ratio_rejects_invalid():
    with pytest.raises(ValueError):
        sample_ratio(2, 1, 5, 2, 0)  # needs b > d


def test_sample_line_is_sample_ratio_along_each_line():
    # every line of fit_auto(3)'s simplex, to its last layer 7, from its first point
    grid = simplex_grid(3, 7)
    tops = {}
    for a, b, c, p in grid:
        tops[b, c, p] = max(a, tops.get((b, c, p), a))
    assert sum(top - p + 1 for (b, c, p), top in tops.items()) == len(grid)
    for (b, c, p), top in tops.items():
        assert sample_line(top, b, c, 3, p) == [sample_ratio(a, b, c, 3, p)
                                                for a in range(p, top + 1)], (top, b, c, p)
    with pytest.raises(ValueError):
        sample_line(2, 1, 5, 2, 0)  # needs b > d, as sample_ratio does


def test_fit_d1_constant_one():
    poly = fit(1)
    assert poly.coeffs == {(0, 0, 0, 0): Fraction(1)}
    assert poly.total_degree() == 0


def test_fit_d2_exact_polynomial():
    poly = fit(2)
    assert poly.coeffs == D2_EXPECTED


def test_simplex_points_admissible_with_nonzero_prefactor():
    for d in (1, 2, 3, 4):
        for n in (0, 1, 4, 7):
            grid = simplex_grid(d, n)
            assert len(grid) == len(set(grid)) == comb(n + 4, 4)
            for a, b, c, p in grid:
                assert 0 <= p <= a and b > d and c > d + p
                assert prefactor_P(a, b, c, d, p) != 0
    # the samples for a lower bound are a prefix of those for a higher one
    assert simplex_grid(3, 6)[: comb(9, 4)] == simplex_grid(3, 5)


def test_fit_d3_bound_8_matches_fit_auto():
    degree, poly = fit_auto(3)
    assert degree == 6
    assert poly.total_degree() == 6
    assert fit(3, 8).coeffs == poly.coeffs
    # with no bound, fit is fit_auto: degree 6, not 2(d-1) = 4, which fails
    assert fit(3).coeffs == poly.coeffs


def test_fit_d3_rejects_bound_5():
    with pytest.raises(FitInconsistentError,
                       match="^degree 5 cannot interpolate the samples: Newton layer 6 does not vanish$"):
        fit(3, 5)


def fractional_q(a, b, c, d, p):
    """A degree-3 stand-in for Q whose samples' common denominator grows
    from layer to layer of the d = 2 simplex: 2, then 14, then 70."""
    return Fraction(b, 2) + Fraction(a * c * p, 7) + Fraction(a * p * (p - 1), 10)


FRACTIONAL_Q = {
    (0, 1, 0, 0): Fraction(1, 2),
    (1, 0, 1, 1): Fraction(1, 7),
    (1, 0, 0, 2): Fraction(1, 10),
    (1, 0, 0, 1): Fraction(-1, 10),
}


def test_fit_is_exact_when_the_common_denominator_grows(q_stand_in):
    dens = [lcm(*(fractional_q(a, b, c, 2, p).denominator for a, b, c, p in simplex_grid(2, n)))
            for n in range(4)]
    assert dens == [2, 14, 70, 70]
    q_stand_in(fractional_q)
    assert fit(2, 5).coeffs == FRACTIONAL_Q
    assert fit(2, 3).coeffs == FRACTIONAL_Q


def test_fit_auto_cap_error_names_the_cap(q_stand_in):
    # the stand-in has degree 3, past the law d(d-1) = 2 that bounds fit_auto(2)
    q_stand_in(fractional_q)
    with pytest.raises(FitInconsistentError, match=r"d\(d-1\) = 2 .*hexatile fit --degree"):
        fit_auto(2)


@pytest.mark.parametrize("d", range(1, 9))
def test_fit_auto_searches_from_twice_d_minus_one_to_the_degree_law(monkeypatch, d):
    calls = []
    monkeypatch.setattr(qfit, "_fit", lambda *args: calls.append(args) or (0, None))
    fit_auto(d)
    assert calls == [(d, 2 * (d - 1), d * (d - 1))]


def test_each_simplex_point_is_sampled_once(monkeypatch):
    # each fit reads each line once, at its first point, up to its last
    # layer: every point of the simplex to that layer once, and no other
    calls, points = [], []
    sample_line = qfit.sample_line

    def counted(top, b, c, d, p):
        calls.append((b, c, d, p))
        points.extend((a, b, c, p) for a in range(p, top + 1))
        return sample_line(top, b, c, d, p)

    monkeypatch.setattr(qfit, "sample_line", counted)
    for run, layer in ((lambda: fit_auto(3), 7), (lambda: fit(3, 8), 9)):
        calls.clear()
        points.clear()
        run()
        assert len(calls) == len(set(calls)) == comb(layer + 3, 3)
        assert sorted(points) == sorted(simplex_grid(3, layer))


@pytest.mark.parametrize("d", [3, 4])
def test_each_fit_eliminates_each_line_once_and_leaves_the_memo_alone(monkeypatch, d):
    eliminated = []
    leading_minors_in_place = lgv.leading_minors_in_place

    def counted(rows, ends):
        eliminated.append(len(rows))
        return leading_minors_in_place(rows, ends)

    monkeypatch.setattr(lgv, "leading_minors_in_place", counted)
    planted = {(5, 6, 2, 1, EVEN): [None] * 4 + [0]}  # a wrong line the fit must not read
    monkeypatch.setattr(lgv, "_LINES", dict(planted))
    law = d * (d - 1)
    lines = [comb(n + 3, 3) for n in range(law + 4)]  # lines with beta + gamma + t <= n
    # fit_auto(d) eliminates each line once, to layer d(d-1) + 1: 120 lines
    # at d = 3, 560 at d = 4
    want = fit_auto(d)
    assert len(eliminated) == lines[law + 1] == {3: 120, 4: 560}[d]
    # fit(d, d(d-1) + 2) needs layer d(d-1) + 3, and no fit shares a line
    # with another: each eliminates all of its own
    fit(d, law + 2)
    assert len(eliminated) == lines[law + 1] + lines[law + 3]
    assert fit_auto(d) == want
    assert len(eliminated) == 2 * lines[law + 1] + lines[law + 3]
    assert lgv._LINES == planted


def test_fit_auto_starts_at_twice_d_minus_one(q_stand_in):
    # linear data at d = 3: layers 2, 3 and 4 vanish, but the least bound
    # fit_auto may accept is 2(d - 1) = 4
    q_stand_in(lambda a, b, c, d, p: Fraction(a + 2 * b - c + 3 * p + 1))
    degree, poly = fit_auto(3)
    assert degree == 4
    assert poly.coeffs == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): -1,
                           (0, 0, 0, 1): 3, (0, 0, 0, 0): 1}


def binomial_q(a, b, c, d, p):
    """A stand-in for Q with zeros on lattice hyperplanes: C(a - p, 6) is
    zero on the layers below 6 and its Newton table is one coefficient, on
    layer 6."""
    return Fraction(comb(a - p, 6))


def test_fit_auto_takes_its_bound_from_every_layer_it_holds(q_stand_in):
    # layer 5 vanishes, but layer 6 does not: a bound of 4 would return the
    # zero polynomial against the samples on layers 6 and 7
    q_stand_in(binomial_q)
    degree, poly = fit_auto(3)
    assert degree == poly.total_degree() == 6
    grid = simplex_grid(3, 7)
    assert poly.values(grid) == [binomial_q(a, b, c, 3, p) for a, b, c, p in grid]


def test_a_low_degree_fit_samples_every_line_to_the_last_layer(q_stand_in, monkeypatch):
    # a degree-4 stand-in at d = 3 is accepted at the first bound fit_auto
    # tries, but every alpha-line up to layer d(d-1) + 1 = 7 is read first
    q_stand_in(lambda a, b, c, d, p: Fraction(a * b * c * p - 3 * b * b + 5))
    stand_in, calls = qfit.sample_line, []
    monkeypatch.setattr(qfit, "sample_line",
                        lambda *args: calls.append(args) or stand_in(*args))
    degree, poly = fit_auto(3)
    assert degree == 4
    assert poly.coeffs == {(1, 1, 1, 1): 1, (0, 2, 0, 0): -3, (0, 0, 0, 0): 5}
    lines = [(7 - beta - gamma, 4 + beta, 4 + t + gamma, 3, t)
             for beta, gamma, t in product(range(8), repeat=3) if beta + gamma + t <= 7]
    assert len(calls) == len(lines) == comb(10, 3)
    assert sorted(calls) == sorted(lines)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fit_auto_degree_law_and_mirror_identity(d):
    degree, poly = fit_auto(d)
    assert degree == poly.total_degree() == d * (d - 1)
    degrees = [max(k[axis] for k in poly.coeffs) for axis in range(4)]
    assert degrees == [comb(d, 2)] * 3 + [d * (d - 1)]  # in a, b and c, and in p
    # Q(a, c, b, a - p) expanded by (a - p)^e = sum_k C(e, k) a^(e-k) (-p)^k is Q itself
    mirrored = {}
    for (ea, eb, ec, ep), coef in poly.coeffs.items():
        for k in range(ep + 1):
            key = (ea + ep - k, ec, eb, k)
            mirrored[key] = mirrored.get(key, 0) + (-1) ** k * comb(ep, k) * coef
    assert {key: v for key, v in mirrored.items() if v} == dict(poly.coeffs)


def test_fit_degree_stability():
    assert fit(2, 3).coeffs == fit(2, 2).coeffs


def test_fit_inconsistent_when_degree_too_small():
    with pytest.raises(FitInconsistentError, match="^degree 1 cannot interpolate the samples"):
        fit(2, 1)


def test_probe_degree():
    assert probe_degree(1) == 0
    assert probe_degree(2) == 2


def test_probe_degree_doubles_its_sample_until_the_degree_settles(monkeypatch):
    # 8 points cannot settle degree 9, 16 can; 2^p settles at no sample size
    monkeypatch.setattr(qfit, "sample_ratio", lambda a, b, c, d, p: Fraction(p) ** 9)
    assert probe_degree(3) == 9
    monkeypatch.setattr(qfit, "sample_ratio", lambda a, b, c, d, p: Fraction(2) ** p)
    with pytest.raises(ValueError, match="no polynomial behaviour up to degree 24"):
        probe_degree(3)


def test_probe_degree_settles_every_degree_up_to_its_limit(monkeypatch):
    # 16 points settle degree 13 at most; the last try takes limit + 3 = 27 points
    monkeypatch.setattr(qfit, "sample_ratio", lambda a, b, c, d, p: Fraction(p) ** 22)
    assert probe_degree(3) == 22
    monkeypatch.setattr(qfit, "sample_ratio", lambda a, b, c, d, p: Fraction(p) ** 24)
    assert probe_degree(3) == 24
    monkeypatch.setattr(qfit, "sample_ratio", lambda a, b, c, d, p: Fraction(p) ** 25)
    with pytest.raises(ValueError, match="no polynomial behaviour up to degree 24"):
        probe_degree(3)


def test_fit_auto_d2():
    degree, poly = fit_auto(2)
    assert degree == 2
    assert poly.coeffs == D2_EXPECTED


def test_poly_evaluate():
    poly = MultiPoly({(1, 0, 0, 0): Fraction(3), (0, 0, 0, 2): Fraction(1, 2)})
    assert poly.evaluate(4, 9, 9, 2) == 12 + 2
    # evaluate works from a form derived from coeffs, so coeffs cannot change
    with pytest.raises(TypeError):
        poly.coeffs[(0, 0, 0, 0)] = Fraction(1)
    assert poly.coeffs == {(1, 0, 0, 0): Fraction(3), (0, 0, 0, 2): Fraction(1, 2)}


def naive_value(coeffs: dict, a: int, b: int, c: int, p: int) -> Fraction:
    """Reference evaluator: the term-by-term Fraction sum."""
    return sum((coef * a**ea * b**eb * c**ec * p**ep
                for (ea, eb, ec, ep), coef in coeffs.items()), Fraction(0))


EXPONENTS = [k for k in product(range(7), repeat=4) if sum(k) <= 6]
polys = st.dictionaries(
    st.sampled_from(EXPONENTS),
    st.builds(Fraction, st.integers(-3000, 3000), st.integers(1, 60)),
    max_size=15,
)
coords = st.integers(min_value=-4, max_value=6)


@given(polys, polys, st.lists(st.tuples(coords, coords), min_size=1, max_size=4),
       st.lists(st.tuples(coords, coords), min_size=2, max_size=3, unique=True),
       st.lists(coords, min_size=2, max_size=3, unique=True),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_term_by_term_sum(first, second, cps, abs_, others, rng):
    # points that share (c, p) but differ in (a, b), points that share p but
    # not c and (c, p) but not b, each stage a p-first evaluator could reuse
    # wrongly, and two polynomials asked in turn at the same (c, p)
    one, two = MultiPoly(first), MultiPoly(second)
    points = [(a, b, c, p) for c, p in cps for a, b in abs_]
    a, b, c, p = points[0]
    points += [(a, b, x, p) for x in others] + [(a, x, c, p) for x in others]
    for a, b, c, p in points:
        assert one.evaluate(a, b, c, p) == naive_value(first, a, b, c, p)
        assert two.evaluate(a, b, c, p) == naive_value(second, a, b, c, p)
    # the same points in one call, shuffled and with one of them twice:
    # values answers each in input order
    points.append(rng.choice(points))
    rng.shuffle(points)
    for poly, coeffs in ((one, first), (two, second)):
        assert poly.values(points) == [naive_value(coeffs, *pt) for pt in points]
        assert poly.values([]) == []


def test_recheck_rejects_a_fit_with_one_coefficient_changed(monkeypatch, q_stand_in):
    newton_to_poly, bounds = qfit._newton_to_poly, []

    def perturbed(*args):
        bounds.append(args[1])
        poly = newton_to_poly(*args)
        return MultiPoly({**poly.coeffs, (1, 0, 0, 1): poly.coeffs.get((1, 0, 0, 1), 0) + Fraction(1, 3)})

    monkeypatch.setattr(qfit, "_newton_to_poly", perturbed)
    # the change adds a*p/3, so the first sample it misses has a*p != 0
    first_miss = next(pt for pt in simplex_grid(2, 3) if pt[0] * pt[3])
    with pytest.raises(FitInconsistentError,
                       match=re.escape(f"cannot interpolate sample at {first_miss}")):
        fit(2, 2)
    # fit_auto raises at its first miss too, after one expansion at its one
    # bound: no other bound is tried, and the text is the miss's own, with
    # no advice to raise the bound, which cannot cure a miss
    bounds.clear()
    q_stand_in(binomial_q)
    first_miss = next(pt for pt in simplex_grid(3, 7) if pt[0] * pt[3])
    miss = f"degree 6 cannot interpolate sample at {first_miss}"
    with pytest.raises(FitInconsistentError, match=f"^{re.escape(miss)}$"):
        fit_auto(3)
    assert bounds == [6]


def test_falling_rows_are_scaled_stirling_numbers():
    # s(k, e), the signed Stirling numbers of the first kind: C(x, k) k! =
    # x (x - 1) ... (x - k + 1) = sum_e s(k, e) x^e
    top = 7
    stirling = [[1]]
    for k in range(top):
        row = stirling[-1] + [0]
        stirling.append([(row[e - 1] if e else 0) - k * row[e] for e in range(k + 2)])
    want = [[(e, factorial(top) // factorial(k) * s_ke) for e, s_ke in enumerate(row) if s_ke]
            for k, row in enumerate(stirling)]
    assert qfit._falling_rows(top, 0) == want


def test_newton_table_is_the_forward_differences_at_zero():
    # Delta^k f(0) = sum_{j <= k} prod_i (-1)^(k_i - j_i) C(k_i, j_i) f(j) on the
    # simplex |x| <= 5 in one, two and three axes, nested first axis outermost
    rng = random.Random(3)
    for axes in (1, 2, 3):
        points = [x for x in product(range(6), repeat=axes) if sum(x) <= 5]
        f = {x: rng.randint(-99, 99) for x in points}

        def nested(prefix):
            if len(prefix) == axes:
                return f[prefix]
            return [nested(prefix + (i,)) for i in range(6 - sum(prefix))]

        table = qfit._newton_table(nested(()), axes)
        for k in points:
            got = table
            for i in k:
                got = got[i]
            assert got == sum(f[j] * prod((-1) ** (ki - ji) * comb(ki, ji) for ki, ji in zip(k, j))
                              for j in points if all(ji <= ki for ji, ki in zip(j, k)))


def test_newton_to_poly_expands_a_random_table():
    # sum_k c_k prod_i C(x_i, k_i) / scale at x = (alpha, beta, gamma, t) =
    # (a - p, b - d - 1, c - p - d - 1, p), against the expansion in (a, b, c, p)
    rng, d, degree, scale = random.Random(7), 2, 4, 36
    table = {k: rng.randint(-50, 50) for k in product(range(degree + 1), repeat=4)
             if sum(k) <= degree}
    poly = qfit._newton_to_poly(table, degree, d, scale)
    points = []
    while len(points) < 50:
        a, p = rng.randint(0, 12), rng.randint(0, 12)
        if p <= a:
            points.append((a, rng.randint(d + 1, 12), rng.randint(d + p + 1, d + p + 12), p))
    for (a, b, c, p), got in zip(points, poly.values(points)):
        x = (a - p, b - d - 1, c - p - d - 1, p)
        want = sum(v * prod(comb(xi, ki) for xi, ki in zip(x, k)) for k, v in table.items())
        assert got == Fraction(want, scale)


def test_poly_json_round_trip():
    poly = fit(2)
    d, back = poly_from_json(poly_to_json(poly, 2))
    assert d == 2
    assert back.coeffs == poly.coeffs
    for copied in (copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert copied == poly and copied.evaluate(5, 6, 7, 2) == poly.evaluate(5, 6, 7, 2)


def test_cross_validate_passes_for_true_poly():
    poly = fit(2)
    holdout = [(a, b, c, p) for a in (7, 8) for b in (9, 11) for c in (10, 13) for p in (0, 3)]
    report = cross_validate(poly, 2, holdout)
    assert report["passed"] and report["failures"] == []
    assert report["points"] == len(holdout)


def test_cross_validate_flags_perturbed_poly():
    poly = fit(2)
    bad = MultiPoly({**poly.coeffs, (0, 0, 0, 0): Fraction(5)})
    holdout = [(4, 5, 6, 1), (5, 7, 9, 2)]
    report = cross_validate(bad, 2, holdout)
    assert not report["passed"]
    assert [f["point"] for f in report["failures"]] == holdout
    # the check compares integers; each entry holds the int count and P*poly
    for failure, (a, b, c, p) in zip(report["failures"], holdout):
        assert type(failure["expected"]) is int
        assert failure["expected"] == lgv.count(a, b, c, 2, p, EVEN)
        assert failure["got"] == prefactor_P(a, b, c, 2, p) * bad.evaluate(a, b, c, p)


def test_cross_validate_reads_no_memo(monkeypatch):
    # a wrong value planted in the memo, on the line of a holdout point,
    # is what the counts read; the holdout still checks the true count
    poly = fit(2)
    true = prefactor_P(4, 5, 6, 2, 1) * poly.evaluate(4, 5, 6, 1)
    monkeypatch.setattr(lgv, "_LINES", {(5, 6, 2, 1, EVEN): [None] * 4 + [true + 1]})
    assert lgv.even_count(4, 5, 6, 2, 1).value == true + 1
    assert cross_validate(poly, 2, [(4, 5, 6, 1)])["passed"]
    bad = MultiPoly({**poly.coeffs, (0, 0, 0, 0): Fraction(5)})
    assert cross_validate(bad, 2, [(4, 5, 6, 1)])["failures"][0]["expected"] == true


def test_cross_validate_builds_no_path_matrix(monkeypatch):
    # every holdout count comes from MacMahon's product and the explicit
    # inverse, so a builder that raises is never reached
    poly = fit(2)
    holdout = [(4, 5, 6, 1), (5, 7, 9, 2), (0, 4, 5, 0), (9, 3, 12, 4)]
    true = [det_bareiss(lgv.path_matrix(a, b, c, 2, p, EVEN)) for a, b, c, p in holdout]

    def refuse(*args):
        raise AssertionError("cross_validate built a path matrix")

    monkeypatch.setattr(lgv, "_path_rows", refuse)  # the builder of either orientation
    monkeypatch.setattr(lgv, "path_matrix", refuse)
    assert cross_validate(poly, 2, holdout)["passed"]
    bad = MultiPoly({**poly.coeffs, (0, 0, 0, 0): Fraction(5)})
    failures = cross_validate(bad, 2, holdout)["failures"]
    assert failures[0]["expected"] == true[0]
    assert [f["expected"] for f in failures] == true


def test_substitution_pattern_does_not_reproduce_samples():
    # one printed form of the conjecture evaluates Q with its arguments
    # ordered (p, c, b, p); the fitted Q in that order misses every sampled
    # ratio, while in its own order it reproduces each one
    for d, points in [
        (2, [(3, 4, 6, 1), (4, 5, 7, 2), (5, 6, 9, 1), (6, 7, 10, 3)]),
        (3, [(4, 5, 8, 1), (5, 6, 10, 2), (6, 7, 11, 1), (7, 8, 13, 3)]),
    ]:
        poly = fit(d)
        want = [sample_ratio(a, b, c, d, p) for a, b, c, p in points]
        assert poly.values(points) == want
        permuted = poly.values([(p, c, b, p) for a, b, c, p in points])
        assert all(v != w for v, w in zip(permuted, want)), d


def test_fitted_q_reproduces_halved_even_product():
    poly = fit(2)
    for p in range(1, 4):
        for b in (3, 4, 6):
            for c in (3, 5, 7):
                if min(b, c) < 2 or c <= 2 + p:
                    continue
                lhs = prefactor_P(2 * p, b, c, 2, p) * poly.evaluate(2 * p, b, c, p)
                assert lhs == byun_even(p, b, c, 2)
