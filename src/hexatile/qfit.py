"""Exact multivariate interpolation of the residual factor Q = E/P.

The default fit samples Q on the lattice simplex {x in N^4 : |x| <= D+1} in
shifted coordinates a = t+alpha, b = d+1+beta, c = d+t+1+gamma, p = t.
Every such point is admissible (0 <= p <= a, b > d, c > d+p), and the set
is unisolvent for total degree <= D+1.  The Newton coefficients of the
interpolant are the iterated forward differences along each axis; layer
D+1 of that table must vanish for Q to have degree <= D, and the rest is
expanded exactly into monomials in (a, b, c, p).  The candidate is
re-checked exactly against every sample point: anything returned is the
unique interpolant, and anything else raises.

MultiPoly.evaluate, the one exact evaluator, serves the recheck and both
holdout checks: integer numerators over one denominator, grouped by (a, b)
exponents, with each group's (c, p) part computed once per distinct (c, p).

Newton interpolation on principal lattices: Chung & Yao, SIAM J. Numer.
Anal. 14 (1977); Sauer & Xu, Math. Comp. 64 (1995).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .formulas import prefactor_P
from .lgv import even_count


class FitInconsistentError(ValueError):
    """No polynomial of the requested degree interpolates the samples."""


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial in (a, b, c, p) as exponent-vector -> coefficient; coeffs is
    read-only, so the integer form evaluate() uses can never go stale."""

    coeffs: Mapping = field(default_factory=dict)

    def __post_init__(self):
        clean = {tuple(k): Fraction(v) for k, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", MappingProxyType(clean))
        # integer numerators over one common denominator, grouped by (a, b)
        scale = math.lcm(*(coef.denominator for coef in clean.values()))
        groups: dict = {}
        for (ea, eb, ec, ep), coef in clean.items():
            groups.setdefault((ea, eb), []).append((ec, ep, int(coef * scale)))

        @functools.lru_cache(maxsize=1 << 12)  # one part per (c, p), bounded
        def inner(c: int, p: int) -> tuple:
            return tuple((ea, eb, sum(k * c**ec * p**ep for ec, ep, k in terms))
                         for (ea, eb), terms in groups.items())

        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_inner", inner)

    def evaluate(self, a: int, b: int, c: int, p: int) -> Fraction:
        """Exact value at (a, b, c, p)."""
        return Fraction(sum(v * a**ea * b**eb for ea, eb, v in self._inner(c, p)),
                        self._scale)

    def __reduce__(self):  # copy and pickle rebuild the form from coeffs
        return MultiPoly, (dict(self.coeffs),)

    def total_degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        names = "abcp"
        parts = []
        for key in sorted(self.coeffs, key=lambda k: (sum(k), k)):
            coef = self.coeffs[key]
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(key) if e
            )
            parts.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


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
    """E(a,b,c,d,p)/P(a,b,c,d,p); the conjectured polynomial factor at a point."""
    pf = prefactor_P(a, b, c, d, p)
    if pf == 0:
        raise ValueError("prefactor vanishes; point cannot be sampled")
    return Fraction(even_count(a, b, c, d, p).value) / pf


def _simplex(n: int) -> list:
    """Lattice points x = (alpha, beta, gamma, t) with |x| <= n, layer by layer.

    The list for n is a prefix of the list for n + 1.
    """
    return [
        (total - beta - gamma - t, beta, gamma, t)
        for total in range(n + 1)
        for t in range(total + 1)
        for gamma in range(total - t + 1)
        for beta in range(total - t - gamma + 1)
    ]


def _point(d: int, x: tuple) -> tuple:
    """(a, b, c, p) of the shifted lattice point x = (alpha, beta, gamma, t)."""
    alpha, beta, gamma, t = x
    return (t + alpha, d + 1 + beta, d + t + 1 + gamma, t)


def simplex_grid(d: int, n: int) -> list:
    """The (a, b, c, p) points fit() samples for degree bound n - 1."""
    return [_point(d, x) for x in _simplex(n)]


def _newton_table(values: dict, n: int) -> dict:
    """Forward differences Delta^k f(0), |k| <= n, of f given on the n-simplex.

    Differencing one axis at a time keeps every line inside the simplex:
    the line through (0, x') along an axis has n - |x'| + 1 points.
    """
    table = dict(values)
    for axis in range(4):
        for start in [x for x in table if x[axis] == 0]:
            keys = [start[:axis] + (j,) + start[axis + 1:]
                    for j in range(n - sum(start) + 1)]
            line = [table[k] for k in keys]
            for j in range(1, len(line)):
                for i in range(len(line) - 1, j - 1, -1):
                    line[i] -= line[i - 1]
            table.update(zip(keys, line))
    return table


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


def _newton_to_poly(coeffs: dict, degree: int, d: int, scale: int) -> MultiPoly:
    """Monomial form in (a, b, c, p) of sum_k coeffs[k] prod_i C(x_i, k_i) / scale."""
    # C(x, k) = sum_e s(k, e) x^e / k!, s the signed Stirling numbers of the
    # first kind; multiplying by degree! per axis keeps every weight integral
    fact = math.factorial(degree)
    stirling = [[1]]
    for k in range(degree):
        prev = stirling[-1] + [0]
        stirling.append([(prev[e - 1] if e else 0) - k * prev[e] for e in range(k + 2)])
    rows = [[(e, s_ke * (fact // math.factorial(k))) for e, s_ke in enumerate(row)]
            for k, row in enumerate(stirling)]
    terms = dict(coeffs)
    for axis in range(4):
        terms = _along(terms, axis, rows)
    # alpha = a - p, beta = b - (d+1), gamma = c - p - (d+1), t = p
    terms = _along(terms, 1, _shift_rows(degree, -(d + 1)))
    terms = _along(terms, 2, _shift_rows(degree, -(d + 1)))
    terms = _along(terms, 2, _shift_rows(degree, -1), into=3)
    terms = _along(terms, 0, _shift_rows(degree, -1), into=3)
    den = scale * fact**4
    return MultiPoly({key: Fraction(v, den) for key, v in terms.items()})


def _fit_simplex(d: int, degree_bound: int, samples: dict) -> MultiPoly:
    """Newton fit on the (degree_bound + 1)-simplex.

    samples maps shifted lattice points to sampled ratios; missing points
    are sampled and added, so a caller raising the bound reuses them.
    """
    n = degree_bound + 1
    xs = _simplex(n)
    for x in xs:
        if x not in samples:
            a, b, c, p = _point(d, x)
            samples[x] = sample_ratio(a, b, c, d, p)
    ys = [samples[x] for x in xs]
    scale = math.lcm(*(y.denominator for y in ys))
    table = _newton_table(
        {x: y.numerator * (scale // y.denominator) for x, y in zip(xs, ys)}, n
    )
    if any(table[k] for k in xs if sum(k) == n):
        raise FitInconsistentError(
            f"degree {degree_bound} cannot interpolate the samples: "
            f"Newton layer {n} does not vanish"
        )
    newton = {k: v for k, v in table.items() if v and sum(k) < n}
    poly = _newton_to_poly(newton, degree_bound, d, scale)
    for point, y in zip(simplex_grid(d, n), ys):
        if poly.evaluate(*point) != y:
            raise FitInconsistentError(
                f"degree {degree_bound} cannot interpolate sample at {point}"
            )
    return poly


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
    return _fit_simplex(d, degree_bound, {})


def _diff_degree(vals: list) -> Optional[int]:
    """Degree of the sequence under finite differencing; None if not settled."""
    seq = list(vals)
    deg = 0
    while any(v != 0 for v in seq):
        if len(seq) < 2:
            return None
        seq = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        deg += 1
    # demand at least two vanishing differences so a lone zero cannot settle it
    return max(deg - 1, 0) if len(seq) >= 2 else None


def probe_degree(d: int, max_degree: int = 24) -> int:
    """Total degree of Q along a generic admissible line (a lower bound)."""
    npts = 8
    while npts <= max_degree + 2:
        vals = [
            sample_ratio(2 * t + 1, t + d + 2, 2 * t + d + 3, d, t) for t in range(npts)
        ]
        deg = _diff_degree(vals)
        if deg is not None:
            return deg
        npts *= 2
    raise ValueError(f"no polynomial behaviour up to degree {max_degree}")


def fit_auto(d: int, max_degree: int = 24):
    """(degree, poly) for the smallest degree bound from 2(d-1) up whose
    Newton layer above it vanishes; each bound reuses the samples of the last.
    """
    _check_fit_args(d, max_degree)
    samples: dict = {}
    for degree in range(max(2 * (d - 1), 0), max_degree + 1):
        try:
            return degree, _fit_simplex(d, degree, samples)
        except FitInconsistentError:
            continue
    raise FitInconsistentError(f"no interpolant up to total degree {max_degree}")


def substitution_check(poly: MultiPoly, d: int, points: list) -> dict:
    """Does evaluating the factor with arguments permuted to (p, c, b, p) still
    reproduce the samples?  One printed form of the conjecture orders the
    arguments that way; callers record the outcome, nothing assumes it."""
    mismatches = []
    for (a, b, c, p) in points:
        if poly.evaluate(p, c, b, p) != sample_ratio(a, b, c, d, p):
            mismatches.append((a, b, c, p))
    return {"points": len(points), "mismatches": mismatches, "matches": not mismatches}


def cross_validate(poly: MultiPoly, d: int, holdout: list) -> dict:
    """Exact holdout check: P*poly must reproduce the determinant count."""
    failures = []
    for (a, b, c, p) in holdout:
        want = even_count(a, b, c, d, p).value
        got = prefactor_P(a, b, c, d, p) * poly.evaluate(a, b, c, p)
        if got != want:
            failures.append({"point": (a, b, c, p), "expected": want, "got": got})
    return {"points": len(holdout), "failures": failures, "passed": not failures}
