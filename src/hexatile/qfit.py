"""Exact multivariate interpolation of the residual factor Q = E/P.

A fit up to the bound hi (D for fit(d, D), Q's degree law d(d-1) for
fit_auto) samples Q on the lattice simplex {x in N^4 : |x| <= hi+1} in
shifted coordinates a = t+alpha, b = d+1+beta, c = d+t+1+gamma, p = t.
Every such point is admissible (0 <= p <= a, b > d, c > d+p), and the set is
unisolvent for total degree <= hi+1.  The interpolant's Newton coefficients
are the iterated forward differences along each axis, taken over whole
lines, one axis after another, into one Newton table.  Its layer hi+1 must
vanish, and the bound is its highest nonzero layer (or the fit's least
bound, if higher), so every layer above the bound that the fit holds
vanishes.  The nonzero coefficients are expanded exactly into monomials in
(a, b, c, p), one falling-factorial map per axis, and the candidate is
re-checked exactly against every sample the fit read: anything returned is
the unique interpolant, and anything else raises.

Fixing (beta, gamma, t) fixes (b, c, p) and leaves a = t + alpha free, and
path_matrix at a smaller a is a leading block of the one at a larger a.  So
the samples come a line at a time, each line read once by sample_line: one
elimination up to the fit's last layer gives every E on the line
(lgv.count_line, which leaves lgv's memo as it was), and P steps along it
by its ratio (formulas.prefactor_P_line).  sample_ratio is the per-point
reference.  The holdout check (cross_validate) takes each E from
schur.count_via_inverse: MacMahon's product times the determinant of the
d x d complement F, built from the explicit inverse of MacMahon's matrix.
With the samples it shares exactmath, formulas.macmahon and det_bareiss, on
the d x d complement only; it uses no endpoints, no lgv._band_rows, no line
memo and no elimination of the path matrix.

MultiPoly.numerators, the one exact evaluator, serves the recheck and the
holdout check, each with one call over all its points, and keeps nothing
from one call to the next.  It holds integer numerators over one
denominator as flat arrays in exponent order.  Over a call's points it
substitutes p once per distinct p, c once per distinct (c, p) and b once
per distinct (b, c, p), each one C-level pass over the arrays, and takes
each point by Horner's rule in a: a nested Horner scheme (Pena & Sauer,
SIAM J. Numer. Anal. 37 (2000)), one variable at a time.  Both checks
compare integers: the recheck each numerator against the integer sample the
fit holds, the holdout check P's numerator times it against the count times
both denominators.

Newton interpolation on principal lattices: Chung & Yao, SIAM J. Numer.
Anal. 14 (1977); Sauer & Xu, Math. Comp. 64 (1995).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import itemgetter, mul, sub
from types import MappingProxyType
from typing import Mapping, Optional

from .formulas import prefactor_P, prefactor_P_line, prefactor_P_pair
from .hexmodel import EVEN
from .lgv import count, count_line
from .schur import count_via_inverse


class FitInconsistentError(ValueError):
    """No polynomial of the requested degree interpolates the samples."""


class _LayerError(FitInconsistentError):
    """The Newton layer past the bound does not vanish: a higher bound may fit."""


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in (a, b, c, p) as exponent-vector -> coefficient; coeffs is
    read-only, so the integer form the evaluator reads can never go stale.

    numerators() is the one evaluator, and it keeps nothing between calls:
    over the points of one call it substitutes p once per distinct p, then c
    once per distinct (c, p), then b once per distinct (b, c, p), and takes
    each point by Horner's rule in a.  Each substitution is one pass over
    flat arrays in exponent order (see _substitute).  values() divides by
    the one denominator, and evaluate() is values() at one point."""

    coeffs: Mapping = field(default_factory=dict)

    def __post_init__(self):
        clean = {tuple(k): Fraction(v) for k, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", MappingProxyType(clean))
        # integer numerators over one common denominator, in exponent order;
        # the zero polynomial is one zero term, so every array has an entry
        denominator = math.lcm(*(coef.denominator for coef in clean.values()))
        keys = sorted(clean) or [(0, 0, 0, 0)]
        nums = [int(clean[k] * denominator) if k in clean else 0 for k in keys]
        stages = []  # p, then c, then b: (exponent per entry, group bounds, top exponent)
        for axis in (3, 2, 1):
            prefixes = [k[:axis] for k in keys]
            if axis > 1:  # one group per exponent prefix present
                starts = [i for i, k in enumerate(prefixes) if not i or k != prefixes[i - 1]]
            else:  # one group per exponent of a, empty ones too, for Horner's rule
                starts = [bisect_left(prefixes, (ea,)) for ea in range(keys[-1][0] + 1)]
            # the spare index 0 keeps a lone term's itemgetter from returning
            # a bare power; the map that reads the tuple stops at the terms
            stages.append((itemgetter(*(k[axis] for k in keys), 0),
                           itemgetter(*starts, len(keys)), max(k[axis] for k in keys)))
            keys = [keys[i] for i in starts]
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_stages", tuple(stages))

    def numerators(self, points: list) -> list[int]:
        """The value at each (a, b, c, p) of points, in their order, times
        the polynomial's one denominator."""
        (p_exps, p_groups, top_p), (c_exps, c_groups, top_c), (b_exps, b_groups, top_b) \
            = self._stages
        at_p: dict = {}  # p -> c -> b -> indices of the points there
        for i, (_, b, c, p) in enumerate(points):
            at_p.setdefault(p, {}).setdefault(c, {}).setdefault(b, []).append(i)
        out: list = [0] * len(points)
        for p, at_c in at_p.items():
            in_abc = _substitute(self._nums, p_exps, p_groups, p, top_p)
            for c, at_b in at_c.items():
                in_ab = _substitute(in_abc, c_exps, c_groups, c, top_c)
                for b, at in at_b.items():
                    in_a = _substitute(in_ab, b_exps, b_groups, b, top_b)
                    in_a.reverse()
                    for i in at:
                        a, value = points[i][0], 0
                        for v in in_a:
                            value = value * a + v
                        out[i] = value
        return out

    def values(self, points: list) -> list[Fraction]:
        """Exact value at each (a, b, c, p) of points, in their order."""
        return [Fraction(n, self.denominator) for n in self.numerators(points)]

    def evaluate(self, a: int, b: int, c: int, p: int) -> Fraction:
        """Exact value at (a, b, c, p)."""
        return self.values([(a, b, c, p)])[0]

    def __reduce__(self):  # copy and pickle rebuild the form from coeffs
        return MultiPoly, (dict(self.coeffs),)

    def total_degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)


def _substitute(values: list, exps, groups, x: int, top: int) -> list:
    """Substitute x for one variable: the group sums of values[i] * x**exps[i],
    one C-level pass each.  Powers by repeated multiplication, each entry's
    power picked by its exponent, and each group's sum as the difference of
    one running sum read at the group's bounds."""
    powers = list(accumulate(repeat(x, top), mul, initial=1))
    at = groups(list(accumulate(map(mul, values, exps(powers)), initial=0)))
    return list(map(sub, at[1:], at))


def poly_to_json(poly: MultiPoly, d: int) -> str:
    terms = [
        {"exponents": list(k), "num": str(v.numerator), "den": str(v.denominator)}
        for k, v in sorted(poly.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]
    return json.dumps({"d": d, "terms": terms})


def poly_from_json(text: str):
    doc = json.loads(text)
    coeffs = {
        tuple(t["exponents"]): Fraction(int(t["num"]), int(t["den"])) for t in doc["terms"]
    }
    return doc["d"], MultiPoly(coeffs)


def sample_ratio(a: int, b: int, c: int, d: int, p: int) -> Fraction:
    """E(a,b,c,d,p)/P(a,b,c,d,p); the conjectured polynomial factor at a point,
    E read through lgv.count and its memo.  The per-point reference for
    sample_line, which the fit reads."""
    pf = prefactor_P(a, b, c, d, p)  # raises outside its window, is positive inside
    return Fraction(count(a, b, c, d, p, EVEN)) / pf


def sample_line(top: int, b: int, c: int, d: int, p: int) -> list[Fraction]:
    """[sample_ratio(a, b, c, d, p) for a = p..top], from one elimination
    (lgv.count_line, which leaves lgv's memo alone) and P's pairs along the
    line (formulas.prefactor_P_line): each sample is E den / num, one gcd."""
    pairs = prefactor_P_line(top, b, c, d, p)  # raises outside its window
    return [Fraction(e * den, num)
            for e, (num, den) in zip(count_line(top, b, c, d, p, EVEN)[p:], pairs)]


def _layer(n: int) -> list:
    """Lattice points x = (alpha, beta, gamma, t) with |x| = n.  Layers 0..n
    in turn are the n-simplex, in the order fit() rechecks it."""
    return [
        (n - beta - gamma - t, beta, gamma, t)
        for t in range(n + 1)
        for gamma in range(n - t + 1)
        for beta in range(n - t - gamma + 1)
    ]


def simplex_grid(d: int, n: int) -> list:
    """The (a, b, c, p) points fit() samples for degree bound n - 1: each
    lattice point x = (alpha, beta, gamma, t) of the n-simplex, shifted."""
    return [(t + alpha, d + 1 + beta, d + t + 1 + gamma, t)
            for m in range(n + 1) for alpha, beta, gamma, t in _layer(m)]


def _along(terms: dict, axis: int, rows: list, into: Optional[int] = None) -> dict:
    """Apply a linear map to one exponent axis of an integer polynomial.

    An exponent k on `axis` becomes e with weight w for each (e, w) in
    rows[k]; with `into`, the k - e given up move to that axis, which
    substitutes x -> x + s*y when rows holds the binomial expansion in s.
    """
    out: dict = {}
    for key, v in terms.items():
        k = key[axis]
        for e, w in rows[k]:
            new = list(key)
            new[axis] = e
            if into is not None:
                new[into] += k - e
            new = tuple(new)
            out[new] = out.get(new, 0) + v * w
    return {key: v for key, v in out.items() if v}


def _shift_rows(degree: int, s: int) -> list:
    """rows for _along: x^k = sum_e C(k, e) s^(k-e) x^e, i.e. x -> x + s."""
    return [[(e, math.comb(k, e) * s ** (k - e)) for e in range(k + 1)]
            for k in range(degree + 1)]


def _falling_rows(degree: int, s: int) -> list:
    """rows for _along: degree! C(x - s, k) = sum_e w x^e, for k = 0..degree."""
    fact, rows, poly = math.factorial(degree), [], [1]  # poly: k! C(x - s, k)
    for k in range(degree + 1):
        rows.append([(e, w * (fact // math.factorial(k))) for e, w in enumerate(poly) if w])
        poly = [hi - (s + k) * lo for hi, lo in zip([0] + poly, poly + [0])]
    return rows


def _newton_to_poly(coeffs: dict, degree: int, d: int, scale: int) -> MultiPoly:
    """Monomial form in (a, b, c, p) of sum_k coeffs[k] prod_i C(x_i, k_i) / scale."""
    # alpha = a - p, beta = b - (d+1), gamma = c - p - (d+1), t = p: one
    # falling-factorial map per axis gives alpha, b, c - p and p, and two
    # shifts move the -p of a - p and c - p onto p
    terms = dict(coeffs)
    for axis, s in enumerate((0, d + 1, d + 1, 0)):
        terms = _along(terms, axis, _falling_rows(degree, s))
    terms = _along(terms, 2, _shift_rows(degree, -1), into=3)
    terms = _along(terms, 0, _shift_rows(degree, -1), into=3)
    den = scale * math.factorial(degree) ** 4
    return MultiPoly({key: Fraction(v, den) for key, v in terms.items()})


def _newton_table(table: list, axes: int) -> list:
    """Delta^k f(0) at every k, for f on a simplex held as nested lists, one
    level per axis: the lines along the outer axis are differenced whole,
    all at once, and each Delta^k f at 0 on that axis then along the rest."""
    out = []
    while table:
        out.append(_newton_table(table[0], axes - 1) if axes > 1 else table[0])
        table = _minus(table[1:], table, axes)
    return out


def _minus(b: list, a: list, axes: int) -> list:
    """b - a for nested lists `axes` levels deep, in the shape of b."""
    if axes == 1:
        return [y - x for x, y in zip(a, b)]
    return [_minus(y, x, axes - 1) for x, y in zip(a, b)]


def _fit(d: int, lo: int, hi: int) -> tuple:
    """(bound, poly) with bound = max(lo, the highest nonzero Newton layer),
    so that every layer above it that the fit holds vanishes, and poly the
    expansion that reproduces every sample the fit read.

    Every alpha-line (b, c and p fixed, a free) of the simplex up to layer
    hi + 1 is sampled first, one sample_line call each.  The table
    differences whole lines over the samples' one common denominator; a
    nonzero coefficient on layer hi + 1 raises, the nonzero ones below are
    expanded once, at the bound, and the recheck reads every sample in
    simplex_grid order, as integers over the two denominators.  A miss
    raises; no other bound is tried.
    """
    top = hi + 1
    # Q along the alpha-line from x = (0, beta, gamma, t), nested [t][gamma][beta]
    lines = [[[sample_line(top - beta - gamma, d + 1 + beta, d + t + 1 + gamma, d, t)
               for beta in range(top + 1 - t - gamma)]
              for gamma in range(top + 1 - t)] for t in range(top + 1)]
    scale = math.lcm(*(y.denominator for by_t in lines for by_gamma in by_t
                       for line in by_gamma for y in line))
    # the integer samples, and the table, nested likewise [t][gamma][beta][alpha]
    samples = [[[[y.numerator * (scale // y.denominator) for y in line]
                 for line in by_gamma] for by_gamma in by_t] for by_t in lines]
    del lines  # the recheck reads the integer samples
    table = _newton_table(samples, 4)
    newton = {(alpha, beta, gamma, t): v
              for t, by_t in enumerate(table) for gamma, by_gamma in enumerate(by_t)
              for beta, diffs in enumerate(by_gamma) for alpha, v in enumerate(diffs) if v}
    layer = max(map(sum, newton), default=0)  # the highest nonzero one
    if layer > hi:
        raise _LayerError(f"degree {hi} cannot interpolate the samples: "
                          f"Newton layer {top} does not vanish")
    bound = max(lo, layer)
    poly = _newton_to_poly(newton, bound, d, scale)
    points = simplex_grid(d, top)
    for (a, b, c, p), v in zip(points, poly.numerators(points)):
        if v * scale != samples[p][c - p - d - 1][b - d - 1][a - p] * poly.denominator:
            raise FitInconsistentError(f"degree {bound} cannot interpolate sample at {(a, b, c, p)}")
    return bound, poly


def _check_fit_args(d: int, degree: Optional[int]) -> None:
    """ValueError, before any sampling, for a depth or degree bound with no fit."""
    if d < 1:
        raise ValueError(f"Q is fitted for intrusion depths d >= 1, not d = {d}")
    if degree is not None and degree < 0:
        raise ValueError(f"degree bound must be nonnegative, not {degree}")


def fit(d: int, degree_bound: Optional[int] = None) -> MultiPoly:
    """The unique total-degree <= bound polynomial through the simplex samples;
    with no bound, the one of least degree that fit_auto finds."""
    if degree_bound is None:
        return fit_auto(d)[1]
    _check_fit_args(d, degree_bound)
    return _fit(d, degree_bound, degree_bound)[1]


def probe_degree(d: int, limit: int = 24) -> int:
    """Total degree of Q along a generic admissible line (a lower bound): the
    last nonzero forward difference at 0 (0 for the zero sequence), accepted
    once two above it vanish.  The sample doubles from 8 points to limit + 3,
    enough to settle every degree <= limit."""
    npts = min(8, limit + 3)
    while True:
        diffs = _newton_table([sample_ratio(2 * t + 1, t + d + 2, 2 * t + d + 3, d, t)
                               for t in range(npts)], 1)
        top = max((k for k, v in enumerate(diffs) if v), default=-1)
        if npts - top >= 3:  # two vanishing differences: a lone zero cannot settle it
            return max(top, 0)
        if npts >= limit + 3:
            raise ValueError(f"no polynomial behaviour up to degree {limit}")
        npts = min(2 * npts, limit + 3)


def fit_auto(d: int):
    """(degree, poly) for the least degree bound from 2(d-1) up to Q's degree
    law d(d-1) above which every Newton layer the fit holds vanishes, and
    whose fit passes the recheck.  Every fit so far, d = 1..7, has found
    degree d(d-1); if Q at d has more, this raises FitInconsistentError, and
    an explicit bound (fit(d, D), hexatile fit --degree) can go higher.  A
    recheck miss raises as it is: no higher bound cures it."""
    _check_fit_args(d, None)
    law = d * (d - 1)
    try:
        return _fit(d, 2 * (d - 1), law)
    except _LayerError as exc:
        raise FitInconsistentError(
            f"no interpolant up to Q's degree law d(d-1) = {law} ({exc}); "
            f"an explicit bound (hexatile fit --degree) can go higher") from exc


def cross_validate(poly: MultiPoly, d: int, holdout: list) -> dict:
    """Exact holdout check: P*poly must reproduce the determinant count.

    Each count is schur.count_via_inverse's M(a, b, c) det(S F) / S^d, from
    MacMahon's product and the explicit inverse of his matrix, not from the
    path matrix the samples eliminate: a defect in lgv's builder, its line
    memo or the elimination of a whole path matrix cannot agree with itself
    here.  Both routes share exactmath, formulas.macmahon and det_bareiss,
    which here sees only the d x d complement.  The check compares integers,
    P's unreduced numerator (formulas.prefactor_P_pair, no gcd) times poly's
    numerator against the count times both denominators; a failure entry
    holds the count and the Fraction P*poly."""
    failures = []
    for (a, b, c, p), q in zip(holdout, poly.numerators(holdout)):
        num, den = prefactor_P_pair(a, b, c, d, p)  # checks the point
        want = count_via_inverse(a, b, c, d, p)
        if num * q != want * den * poly.denominator:
            failures.append({"point": (a, b, c, p), "expected": want,
                             "got": Fraction(num, den) * Fraction(q, poly.denominator)})
    return {"points": len(holdout), "failures": failures, "passed": not failures}
