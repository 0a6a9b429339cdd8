"""Closed-form evaluators for damaged-hexagon tiling counts, and the check
registry behind every exact sweep.

Every evaluator is exact and contracted to agree with the determinant
engine on its validity window; integrality of rational products is
asserted, never assumed.  CLOSED_FORMS pairs each closed form of `hexatile
count` with its window, the one predicate its display raises from.
MacMahon's M and the ansatz prefactor P are quotients of one box product
(_plane) that steps over its shorter side.
The registry is one ordered table of named checks
(points, predicate, informational flag) and one public runner, run_checks,
whose IdentityResult.passed is the one verdict (no failures, or an
informational check): verify_identities sweeps the supporting recursions and
summation identities on small grids, and the `hexatile verify` suites run
the closed forms, the block and condensation structure, and seven of those
identities from the same table.
The closed-form products are lists of Pochhammer factors for one routine
that multiplies their integer parts and raises PoleError where the
denominator vanishes; the halved products at a = 2p and 2p+1 and det F
share one list.  Every other display and check compares integers: one
cross-multiplied sum of integer-pair terms (_sum), with G = E/M and
R = G/special_prefactor held as pairs, and as_int for integrality.  Fractions
remain only in byun_odd's half-integer arguments and the rational returns of
prefactor_P, special_prefactor, detF_factorized and q_known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, perm
from typing import Callable

from . import lgv, schur
from .exactmath import OutOfValidityError, PoleError, as_int, binom, pochhammer_parts, rising
from .hexmodel import EVEN, ODD
from .lgv import count


class UnknownQError(ValueError):
    """No closed form is known for this intrusion depth; use qfit."""


def macmahon(a: int, b: int, c: int) -> int:
    """Number of lozenge tilings of the intact (a,b,c)-hexagon."""
    return _macmahon(a, b, c)


# The memo, keyed by the sides as given, so a hit costs one lookup; each of
# the six orders of a triple is one entry.  The bound: the identity registry
# at (8, 8, 8, 4) asks for 876 ordered triples (229 sorted) in 177k calls, a
# `verify` pass at the CLI defaults for 248 (75 sorted) in 20k.
@lru_cache(maxsize=1 << 12)
def _macmahon(a: int, b: int, c: int) -> int:
    """M(a, b, c) = prod_{i<a, j<b} (c+i+j+1)/(i+j+1) for a <= b <= c: M is
    symmetric in its sides, so a miss sorts them and the box products run
    over the shortest one."""
    a, b, c = sorted((a, b, c))
    if a < 0:
        raise ValueError("a, b, c must be nonnegative")
    return as_int("macmahon product", _plane(c, a, b), _plane(0, a, b))


def _plane(x: int, m: int, n: int) -> int:
    """The box product prod_{i<m, j<n} (x+i+j+1) for x >= 0, one falling
    factorial (x+i+n)!/(x+i)! per step of the shorter of m and n."""
    m, n = sorted((m, n))
    return math.prod(perm(x + i + n, n) for i in range(m))


def _product(what: str, num: list, den: list) -> tuple[int, int]:
    """(N, D) with N/D = the product of (x)_n over num divided by the product
    over den, both lists of (x, n); PoleError where a den factor vanishes."""
    parts = [pochhammer_parts(x, n) for x, n in num]
    parts += [pochhammer_parts(x, n)[::-1] for x, n in den]
    bottom = math.prod(v for _, v in parts)
    if bottom == 0:
        raise PoleError(f"{what} denominator vanishes")
    return math.prod(u for u, _ in parts), bottom


def _halved(what: str, p: int, b: int, c: int, d: int, e: int) -> tuple[int, int]:
    """(N, D) of prod_{k=1}^d 4^p (k-1/2+e)_p (b-k+1)_{p+e} (c-k+1)_{p+e} /
    ((k)_p (b+c-2k+2-e)_{2p+2e}), e = 0 at a = 2p and 1 at a = 2p+1.  By
    duplication 4^p (k-1/2+e)_p = (2k-1+e)_{2p} / (k)_p, with the same poles."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    ks = range(1, d + 1)
    return _product(
        what,
        [f for k in ks for f in ((2 * k - 1 + e, 2 * p), (b - k + 1, p + e), (c - k + 1, p + e))],
        [f for k in ks for f in ((k, p), (k, p), (b + c - 2 * k + 2 - e, 2 * p + 2 * e))],
    )


def byun_even(p: int, b: int, c: int, d: int) -> int:
    """E(2p, b, c, d, p) = M(2p, b, c) times the halved product (det F)."""
    m = macmahon(2 * p, b, c)
    num, den = _halved("byun_even", p, b, c, d, 0)
    return as_int("byun_even", m * num, den)


def byun_odd(p: int, b: int, c: int, d: int) -> int:
    """|O(2p+1, b, c, d, p)| by the product formula with a = 2p+1."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    a = 2 * p + 1
    fl = (c - b) // 2
    m = macmahon(a, b, c)
    ks = range(d)
    num, den = _product(
        "byun_odd",
        [f for k in ks for f in (
            (a + k + 1, c - 2 * k), (Fraction(2 * k + 3, 2), c - 2 * k - 2),
            (b - k, fl), (Fraction(2 * (c - k) - 1, 2), -fl))],
        [f for k in ks for f in (
            (k + 1, c - 2 * k - 1), (Fraction(2 * (a + k) + 3, 2), c - 2 * k - 1),
            (a + b - k + 1, fl), (Fraction(2 * (a + c - k) + 1, 2), -fl))],
    )
    return as_int("byun_odd", m * num, 4**d * den)


def byun_odd_corrected(p: int, b: int, c: int, d: int) -> int:
    """|O(2p+1, b, c, d, p)| as a product in the same shape as byun_even.

    byun_odd evaluates the transcribed display, which disagrees with the
    determinant for every d >= 1; this variant was re-derived by exact
    rational fitting of the depth ratios |O(d)/O(d-1)| and matches the
    determinant on all tested grids.  The signed count is (-1)^d times
    this value.
    """
    m = macmahon(2 * p + 1, b, c)
    num, den = _halved("byun_odd_corrected", p, b, c, d, 1)
    return as_int("byun_odd_corrected", m * num, den)


def count_a1_reflection(b: int, c: int, d: int, p: int) -> int:
    """E(1,b,c,d,p) for p <= 0 and d <= (b+c+1)/2, by the reflection principle."""
    _refuse("reflection", 1, b, c, d, p)
    out = binom(b + c, b)
    for i in range(d + p):
        out -= binom(b + c - 2 * (-p + i) - 1, b + 2 * p - i - 1) * (
            binom(2 * (-p + i), -2 * p + i) - binom(2 * (-p + i), i - 1)
        )
    return out


def p_one_minus_d_simple(a: int, b: int, c: int, d: int) -> int:
    """E(a,b,c,d,1-d): MacMahon count when d >= b/2+1, else the alternating sum."""
    _refuse("p1md", a, b, c, d, 1 - d)
    if 2 * d >= b + 2:
        return macmahon(a, b, c)
    if a == 0:
        return 1
    s, s_den = _sum(
        ((-1) ** (a + k - 1) * binom(a - 1, k) * rising(-a + b - 2 * d + k + 3, a + 2 * d - 2),
         ((1, a + c - k - 1),))
        for k in range(a)
    )
    # d >= 1, b >= 2d - 1 and c >= 1 here, so every factor of den is positive
    den = factorial(a - 1) * rising(b + c - 2 * d + 2, a + 2 * d - 2) * s_den
    return as_int("p_one_minus_d_simple", macmahon(a, b, c) * (den - rising(c, a) * s), den)


def f_sum(a: int, b: int, c: int, d: int) -> int:
    """f(a,b,c,d) = sum_{k=1}^a (b+c+k)_{a-k} (k)_{2d-2} (c)_{k-1}, summed in integers."""
    if a >= 1 and d < 1:
        # the k = 1 term's (1)_{2d-2} = 1/(2d-1)_{2-2d}: its denominator has the factor 0
        raise PoleError(f"f_sum: (1)_{2 * d - 2} has a zero factor in its denominator")
    return sum(
        rising(b + c + k, a - k) * rising(k, 2 * d - 2) * rising(c, k - 1) for k in range(1, a + 1)
    )


def _alt_linear(a: int, b: int, c: int, k: int) -> int:
    """The linear factor of f's d-recursion at depth k, and of its k-th
    iterated summand."""
    return -a * (b - 2 * k + 3) + b * (5 - 4 * k) - 2 * c * k + 2 * c + 8 * k * k - 20 * k + 13


def _alt_term(a: int, b: int, c: int, d: int, k: int) -> tuple[int, tuple]:
    """k-th summand of the iterated d-recursion for f (and the polynomial display),
    as a (coef, pairs) term of _sum; at k = 1 two Pochhammer indices are -1."""
    return _alt_linear(a, b, c, k), (
        pochhammer_parts(b + c - 2 * d + 2, 2 * d - 2 * k),
        pochhammer_parts(b - 2 * k + 4, 2 * k - 3),
        pochhammer_parts(a, 2 * k - 3),
        (1, factorial(2 * k - 2)),
    )


def p_one_minus_d_alt(a: int, b: int, c: int, d: int, variant: str = "sum") -> int:
    """E(a,b,c,d,1-d) via the f-ansatz: 'sum' display or 'polynomial' display.

    The polynomial display is implemented with denominator
    (b+c-2d+2)_{a+2d-2}; the printed exponent base b+c-2d-2 is
    irreconcilable with the d-recursion it is derived from (and with the
    determinant) and is corrected here.
    """
    if variant not in ("sum", "polynomial"):
        raise ValueError(f"unknown variant {variant!r}")
    if d <= 0:
        raise OutOfValidityError("needs an intrusion of length d > 0")
    if variant == "sum":
        if 2 * d > b + 1:
            raise OutOfValidityError("sum display needs d <= ceil(b/2)")
        corr, den = _product(
            "p_one_minus_d_alt sum", [(b - 2 * d + 2, c)], [(1, 2 * d - 2), (b + 1, a + c - 1)]
        )
        return as_int("p_one_minus_d_alt sum",
                      macmahon(a, b, c) * (den - corr * f_sum(a, b, c, d)), den)
    if b <= d:
        raise OutOfValidityError("polynomial display needs b > d")
    top, den = _product(
        "p_one_minus_d_alt polynomial display", [(c, a)], [(b + c - 2 * d + 2, a + 2 * d - 2)]
    )
    s, s_den = _sum(_alt_term(a, b, c, d, k) for k in range(2, d + 1))
    poly = rising(b + c - 2 * d + 2, 2 * d - 2) * s_den - s
    return as_int("p_one_minus_d_alt polynomial", top * macmahon(a, b, c) * poly, den * s_den)


def d1_corollary(a: int, b: int, c: int) -> int:
    """E(a,b,c,1,0) = M(a,b,c) (c)_a / (b+c)_a = M(a,b,c-1).  The quotient is
    (c)_m / (n+c)_m with m, n the shorter and longer of a and b, so the
    products step over the shorter side."""
    _refuse("d1", a, b, c, 1, 0)
    top = macmahon(a, b, c)
    m, n = sorted((a, b))
    return as_int("d1_corollary", top * rising(c, m), rising(n + c, m))


def _odd_halved_window(a, b, c, d, p, parity):
    return None if parity == ODD and a == 2 * p + 1 else "odd parity and a = 2p+1"


# `hexatile count`'s closed forms, by name after `formula:`: each one's signed
# count at (a, b, c, d, p), which looks its display up when called, and its
# window at (a, b, c, d, p, parity): None inside, else the first unmet
# condition.  A window holds the display's parity, shape and own bounds.
CLOSED_FORMS = {
    "macmahon": (lambda a, b, c, d, p: macmahon(a, b, c),
                 lambda a, b, c, d, p, parity: None if d == 0 else "d = 0"),
    "byun_even": (lambda a, b, c, d, p: byun_even(p, b, c, d),
                  lambda a, b, c, d, p, parity: (
                      None if parity == EVEN and a == 2 * p else "even parity and a = 2p")),
    "byun_odd": (lambda a, b, c, d, p: byun_odd(p, b, c, d), _odd_halved_window),
    "byun_odd_corrected": (lambda a, b, c, d, p: (-1) ** d * byun_odd_corrected(p, b, c, d),
                           _odd_halved_window),
    "p1md": (lambda a, b, c, d, p: p_one_minus_d_simple(a, b, c, d),
             lambda a, b, c, d, p, parity: (
                 "even parity and p = 1-d" if not (parity == EVEN and p == 1 - d)
                 else "d >= 1" if d < 1
                 # the alternating sum's k = a-1 term divides by a+c-k-1 = c
                 else "c >= 1 or 2d >= b+2 or a = 0" if not (c >= 1 or 2 * d >= b + 2 or a == 0)
                 else None)),
    "d1": (lambda a, b, c, d, p: d1_corollary(a, b, c),
           lambda a, b, c, d, p, parity: (
               "even parity, d = 1, p = 0" if not (parity == EVEN and d == 1 and p == 0)
               else "c >= 1" if c < 1 else None)),
    "reflection": (lambda a, b, c, d, p: count_a1_reflection(b, c, d, p),
                   lambda a, b, c, d, p, parity: (
                       "even parity and a = 1" if not (parity == EVEN and a == 1)
                       else "p <= 0 and 2d <= b+c+1" if not (p <= 0 and 2 * d <= b + c + 1)
                       else None)),
}


def _refuse(name: str, a: int, b: int, c: int, d: int, p: int) -> None:
    """Raise OutOfValidityError where the even (a, b, c, d, p) is outside name's window."""
    lack = CLOSED_FORMS[name][1](a, b, c, d, p, EVEN)
    if lack:
        raise OutOfValidityError(f"{name} needs {lack}")


def _refuse_P(a: int, b: int, c: int, d: int, p: int) -> None:
    """Raise OutOfValidityError outside P's window."""
    if not (0 <= p <= a and b > d > 0 and c > d + p):
        raise OutOfValidityError("prefactor_P needs 0 <= p <= a, b > d > 0, c > d+p")


def prefactor_P(a: int, b: int, c: int, d: int, p: int) -> Fraction:
    """Product P = B_p B_a B_d of the modified ansatz (0 <= p <= a, b > d > 0, c > d+p)."""
    return Fraction(*prefactor_P_pair(a, b, c, d, p))


def prefactor_P_pair(a: int, b: int, c: int, d: int, p: int) -> tuple[int, int]:
    """(num, den) with num/den = prefactor_P(a, b, c, d, p), unreduced positive
    integers, for callers that compare P against integers and need no gcd."""
    _refuse_P(a, b, c, d, p)
    # B_p = M(p, b-d, c) / plane(c, p, a-p), B_a = M(a-p, b+p, c-d) plane(0, a-p, p)
    # and B_d = plane(a-p, d, p) / prod_{i<d} (p+i)! (b+c-2d+i+1)_i.
    num = macmahon(p, b - d, c) * macmahon(a - p, b + p, c - d) * _plane(0, a - p, p)
    den = _plane(c, p, a - p) * math.prod(
        factorial(p + i) * rising(b + c - 2 * d + i + 1, i) for i in range(d))
    return num * _plane(a - p, d, p), den


def prefactor_P_line(top: int, b: int, c: int, d: int, p: int) -> list[tuple[int, int]]:
    """[(num, den) with num/den = prefactor_P(a, b, c, d, p) for a = p..top],
    unreduced positive integers, each a short product from the one before.

    At a = p, B_a and plane(c, p, 0) are 1, so P is M(p, b-d, c) plane(0, d, p)
    over prod_{i<d} (p+i)! (b+c-2d+i+1)_i.  A step from m = a - p to m + 1
    adds row m to M(m, b+p, c-d) and to plane(0, m, p), column m to
    plane(c, p, m), and shifts plane(m, d, p) by one: num gains
    (c-d+m+1)_{b+p} (m+1)_p (m+p+1)_d and den gains (m+1)_{b+p} (m+1)_d
    (c+m+1)_p.  Outside prefactor_P's window (with top for a) it raises as
    prefactor_P does."""
    _refuse_P(top, b, c, d, p)
    num = macmahon(p, b - d, c) * _plane(0, d, p)
    den = math.prod(factorial(p + i) * rising(b + c - 2 * d + i + 1, i) for i in range(d))
    out = [(num, den)]
    for m in range(top - p):
        num *= rising(c - d + m + 1, b + p) * rising(m + 1, p) * rising(m + p + 1, d)
        den *= rising(m + 1, b + p) * rising(m + 1, d) * rising(c + m + 1, p)
        out.append((num, den))
    return out


def special_prefactor(a: int, b: int, c: int, d: int, p: int) -> Fraction:
    """Product of the specialized ansatz for p <= 0, d > 0."""
    return Fraction(*_special(a, b, c, d, p))


def _special(a: int, b: int, c: int, d: int, p: int) -> tuple[int, int]:
    """(N, D) of special_prefactor."""
    if p > 0 or d <= 0:
        raise OutOfValidityError("special_prefactor needs p <= 0 and d > 0")
    ks = range(d + p)
    return _product(
        "special_prefactor",
        [(c - k, a - d - p + 1 + 2 * k) for k in ks],
        [(b + c - 2 * d + 2 * k + 2, a + 2 * d - 2 - 3 * k) for k in ks],
    )


def q_known(a: int, b: int, c: int, d: int, p: int) -> Fraction:
    """Known/conjectured Q factors: constant 1 for d=1, the quadratic for d=2."""
    if d == 1:
        return Fraction(1)
    if d == 2:
        return Fraction(b * (a - p + 1) + c * (p + 1) + 2 * (a * p - p * p - 1))
    raise UnknownQError(f"no closed form for Q at d={d}; fit one with qfit")


def detF_factorized(p: int, b: int, c: int, d: int) -> Fraction:
    """det F at a = 2p: the nicely factored (halved) product."""
    return Fraction(*_halved("detF_factorized", p, b, c, d, 0))


def _G(a: int, b: int, c: int, d: int, p: int) -> tuple[int, int]:
    """G = E/M as the pair (E, M)."""
    return count(a, b, c, d, p, EVEN), macmahon(a, b, c)


def _R(a: int, b: int, c: int, d: int, p: int) -> tuple[int, int]:
    """R = G/special_prefactor as the pair (E den, M num)."""
    e, m = _G(a, b, c, d, p)
    num, den = _special(a, b, c, d, p)
    if num == 0:
        raise ZeroDivisionError("special_prefactor vanishes")
    return e * den, m * num


def _sum(terms) -> tuple[int, int]:
    """(N, D) with N/D = sum(coef * prod(n/d for n, d in pairs)) over (coef, pairs),
    cross-multiplied over a running common denominator D that is never reduced."""
    total, common = 0, 1
    for coef, pairs in terms:
        num, den = coef, 1
        for n, d in pairs:
            num, den = num * n, den * d
        total, common = total * den + num * common, common * den
    return total, common


def _vanishes(terms) -> bool:
    """Does the _sum of terms vanish?"""
    return _sum(terms)[0] == 0


# --- check registry ----------------------------------------------------------
#
# One ordered table of exact sweeps and one runner, run_checks, shared by
# verify_identities and the `hexatile verify` suites; run_checks refuses a
# negative range or an unknown name before any check runs, and a result
# passes when it has no failures or is informational (IdentityResult.passed,
# the verdict `hexatile verify` reports).  A check is a
# points(amax, bmax, cmax, dmax) generator and a predicate on one point: True
# passes, False fails (the point is the failure entry), None skips (not
# counted).  Predicates look up
# the functions they check when called, never when the table is built.
# The runner evaluates a check's points in descending order of their first
# coordinate (a, or p for the halved products at a = 2p and 2p + 1), equal
# ones in the generator's order, and lists failures in the generator's order.
# So a count line (b, c, d, p, parity) is eliminated at its largest a and the
# smaller ones are read from lgv's line memo: `verify all` and the identity
# registry at the CLI defaults make 2,685 eliminations for 2,026 lines (lgv
# keeps every d = 0 line by (b, c) alone), where counting a upward made
# 6,486.  schur's block memo keeps (a, b, c, p) with the depth free, so the
# two checks that read it count their depth down: complement_block_count's d
# and inverse_entry_sums' i and j (the depth is max(i, j)).  Each
# (a, b, c, p) is then built once, at its largest depth, 350 builds in a
# `verify all` pass where each depth's own build made 1,752.


@dataclass(frozen=True)
class _Check:
    points: Callable
    predicate: Callable
    informational: bool = False


_REGISTRY: dict[str, _Check] = {}


def _check(name: str, points: Callable, informational: bool = False):
    """Register the decorated predicate as check `name`, after those before it."""

    def register(predicate):
        assert name not in _REGISTRY, f"check {name!r} registered twice"
        _REGISTRY[name] = _Check(points, predicate, informational)
        return predicate

    return register


@dataclass
class IdentityResult:
    name: str
    cases: int
    failures: list
    informational: bool = False

    @property
    def passed(self) -> bool:
        """The one pass rule: no failures, or an informational check."""
        return self.informational or not self.failures


def run_checks(names, amax: int, bmax: int, cmax: int, dmax: int) -> list[IdentityResult]:
    """Run the registered checks in the order named, each one's points from
    the largest first coordinate down, and report failures in the order the
    points generator gives them.  A negative range or an unknown name is a
    ValueError, raised before any check runs."""
    ranges = {"amax": amax, "bmax": bmax, "cmax": cmax, "dmax": dmax}
    negative = [f"{name} {value}" for name, value in ranges.items() if value < 0]
    if negative:
        raise ValueError(f"ranges must be nonnegative: {', '.join(negative)}")
    unknown = [name for name in names if name not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; known: {', '.join(_REGISTRY)}")
    out = []
    for name in names:
        chk = _REGISTRY[name]
        points = list(chk.points(amax, bmax, cmax, dmax))
        cases, failed = 0, []
        for i in sorted(range(len(points)), key=lambda i: -points[i][0]):  # stable
            ok = chk.predicate(*points[i])
            if ok is not None:
                cases += 1
                if not ok:
                    failed.append(i)
        failed.sort()
        out.append(IdentityResult(name, cases, [points[i] for i in failed], chk.informational))
    return out


# Points generators take (A, B, C, D) = (amax, bmax, cmax, dmax).


def _box(a0, b0, c0):
    return lambda A, B, C, D: product(range(a0, A + 1), range(b0, B + 1), range(c0, C + 1))


def _abcdp(a0):
    return lambda A, B, C, D: (
        (a, b, c, d, p)
        for a, b, c in _box(a0, 1, 1)(A, B, C, D)
        for d in range(D + 1)
        for p in range(a + 1)
    )


def _abcp(b0):
    return lambda A, B, C, D: (
        (a, b, c, p) for a, b, c in _box(1, b0, 1)(A, B, C, D) for p in range(a + 1)
    )


def _dabc(a0, b0, c0, d0=1):
    """(a, b, c, d) with d outermost; b0, c0 map (a, d) to the lowest b, c."""
    return lambda A, B, C, D: (
        (a, b, c, d)
        for d in range(d0, D + 1)
        for a in range(a0, A + 1)
        for b in range(b0(a, d), B + 1)
        for c in range(c0(a, d), C + 1)
    )


# Supporting identities: everything registered up to _IDENTITIES.


@_check("elementary", _box(0, 0, 0))
def _elementary(a, b, c):
    return (a + b - 1) * (a + c - 1) - b * c == (a - 1) * (a + b + c - 1)


@_check("cancel1", _box(1, 1, 0))
def _cancel1(a, b, c):
    # M(a,b,c)/M(a-1,b,c) = (a-1)! (a+b+c-1)! / ((a+b-1)! (a+c-1)!), cross-multiplied
    lhs = macmahon(a, b, c) * factorial(a + b - 1) * factorial(a + c - 1)
    return lhs == macmahon(a - 1, b, c) * factorial(a - 1) * factorial(a + b + c - 1)


@_check("cancel2", _box(1, 1, 0))
def _cancel2(a, b, c):
    # M(a,b-1,c+1)/M(a,b,c) = c! (a+b-1)! / ((a+c)! (b-1)!)
    lhs = macmahon(a, b - 1, c + 1) * factorial(a + c) * factorial(b - 1)
    return lhs == macmahon(a, b, c) * factorial(c) * factorial(a + b - 1)


@_check("cancel3", _box(1, 1, 0))
def _cancel3(a, b, c):
    # M(a,b-1,c+1)/M(a-1,b,c) = (a-1)! c! (a+b+c-1)! / ((a+c)! (a+c-1)! (b-1)!)
    lhs = macmahon(a, b - 1, c + 1) * factorial(a + c) * factorial(a + c - 1) * factorial(b - 1)
    return lhs == macmahon(a - 1, b, c) * factorial(a - 1) * factorial(c) * factorial(a + b + c - 1)


@_check("general_recursion", lambda A, B, C, D: (
    (a, b, c, d, p)
    for d in range(D + 1)
    for a in range(2, A + 1)
    for b in range(1, B + 1)
    for c in range(1, C + 1)
    for p in range(-d, a + d + 1)
))
def _general_recursion(a, b, c, d, p):
    return _vanishes([
        ((a - 1) * (a + b + c - 1), (_G(a - 2, b, c, d, p - 1), _G(a, b, c, d, p))),
        (-(a + b - 1) * (a + c - 1), (_G(a - 1, b, c, d, p - 1), _G(a - 1, b, c, d, p))),
        (b * c, (_G(a - 1, b - 1, c + 1, d, p), _G(a - 1, b + 1, c - 1, d, p - 1))),
    ])


@_check("g_is_one_d0", _box(0, 0, 0))
def _g_is_one_d0(a, b, c):
    e, m = _G(a, b, c, 0, 0)
    return e == m


@_check("special_recursion", lambda A, B, C, D: (
    (a, b, c, d, p)
    for a, b, c, d in _dabc(2, lambda a, d: max(1, d), lambda a, d: d)(A, B, C, D)
    for p in range(-d, 1)
))
def _special_recursion(a, b, c, d, p):
    try:
        terms = [
            (a - 1, (_R(a, b, c, d, p), _R(a - 2, b, c, d, p - 1))),
            (-(a + b - 1), (_R(a - 1, b, c, d, p - 1), _R(a - 1, b, c, d, p))),
            (b, (_R(a - 1, b - 1, c + 1, d, p), _R(a - 1, b + 1, c - 1, d, p - 1))),
        ]
    except (PoleError, ZeroDivisionError):
        return None  # isolated prefactor degeneracies; the identity is rational
    return _vanishes(terms)


@_check("r_is_one_far", lambda A, B, C, D: (
    (a, b, c, d, p)
    for a, b, c, d in _dabc(0, lambda a, d: d, lambda a, d: d)(A, B, C, D)
    for p in (-d, -d - 1)
))
def _r_is_one_far(a, b, c, d, p):
    # R = G = 1 for p <= -d
    e, m = _G(a, b, c, d, p)
    num, den = _R(a, b, c, d, p)
    return e == m and num == den


def _s_coef(a, b, k):
    """The S_a summand's coefficient (-1)^(a+k-1) binom(a-1, k) (-a+b+k+2)_{a-1}."""
    return (-1) ** (a + k - 1) * binom(a - 1, k) * rising(-a + b + k + 2, a - 1)


@_check("x1", _dabc(1, max, lambda a, d: d))
def _x1(a, b, c, d):
    rhs = [(_s_coef(a, b, k), (_R(1, b - a + k + 1, c + a - k - 1, d, 1 - d),))
           for k in range(a)]
    return _vanishes([(-factorial(a - 1), (_R(a, b, c, d, 1 - d),))] + rhs)


@_check("special_x1", _dabc(2, lambda a, d: max(1, d), lambda a, d: d))
def _special_x1(a, b, c, d):
    return _vanishes([
        (a - 1, (_R(a, b, c, d, 1 - d),)),
        (-(a + b - 1), (_R(a - 1, b, c, d, 1 - d),)),
        (b, (_R(a - 1, b - 1, c + 1, d, 1 - d),)),
    ])


@_check("r1_reflection", lambda A, B, C, D: (
    (b, c, d, i)
    for d in range(1, D + 1)
    for b in range(d, B + 1)
    for c in range(d, C + 1)
    for i in range(-min(2, b - 1), min(2, c - 1) + 1)
))
def _r1_reflection(b, c, d, i):
    # R(1, b+i, c-i, d, 1-d) in closed form; the printed display only matches
    # at i = 0 (its binomials drop the i-shift), so the shifted version is
    # checked here.
    top = binom(b + c, b + i)
    closed = (top - binom(b + c - 2 * d + 1, c - i)) * rising(b + c - 2 * d + 2, 2 * d - 1)
    return _vanishes([(1, (_R(1, b + i, c - i, d, 1 - d),)), (-closed, ((1, top * (c - i)),))])


@_check("p1d_aux", lambda A, B, C, D: (
    (a, b, c, d)
    for a, b, c, d in _dabc(1, lambda a, d: max(1, a - 1), lambda a, d: 1)(A, B, C, D)
    if b + c >= 2 * d - 1
))
def _p1d_aux(a, b, c, d):
    # eq p=1-d_aux with prefactor denominator (b+c+1)_{a-1}; the printed
    # (b+c-1)_{a-1} fails already at (a,b,c,d) = (2,1,1,1).
    terms = []
    for k in range(a):
        top = binom(b + c, a + c - k - 1)
        terms.append((_s_coef(a, b, k),
                      ((top - binom(b + c - 2 * d + 1, a + c - k - 1), top * (a + c - k - 1)),)))
    s, s_den = _sum(terms)
    rhs = count(a, b, c, d, 1 - d, EVEN) * factorial(a - 1) * rising(b + c + 1, a - 1)
    return macmahon(a, b, c) * rising(c, a) * s == rhs * s_den


def _s_sum(a, b, c):
    """(N, D) of S_a = sum_k (-1)^(a+k-1) binom(a-1, k) (-a+b+k+2)_{a-1} / (a+c-k-1)."""
    return _sum((_s_coef(a, b, k), ((1, a + c - k - 1),)) for k in range(a))


@_check("sa", _box(1, 0, 1))
def _sa(a, b, c):
    # S_a = (a-1)! (c-1)! (a+b+c-1)! / ((a+c-1)! (b+c)!) and
    # S_{a+1} = a (a+b+c) / (a+c) S_a, cross-multiplied
    s, s_den = _s_sum(a, b, c)
    s1, s1_den = _s_sum(a + 1, b, c)
    return (
        s * factorial(a + c - 1) * factorial(b + c)
        == s_den * factorial(a - 1) * factorial(c - 1) * factorial(a + b + c - 1)
        and s1 * (a + c) * s_den == a * (a + b + c) * s * s1_den
    )


@_check("factorial_sum", lambda A, B, C, D: product(range(1, A + 1), range(B + 1)))
def _factorial_sum(a, b):
    return factorial(a - 1) == sum(_s_coef(a, b, k) for k in range(a))


@_check("f_recursion", _dabc(1, lambda a, d: 1, lambda a, d: 0))
def _f_recursion(a, b, c, d):
    lhs = (a - 1) * f_sum(a, b, c, d)
    f1 = f_sum(a - 1, b, c, d)
    f2 = f_sum(a - 1, b - 1, c + 1, d)
    return (
        lhs == (a + b - 1) * (a + c - 1) * f1 - c * (b - 2 * d + 1) * f2
        and lhs == (a - 1) * (a + b + c - 1) * f1 + b * c * (f1 - f2) + c * (2 * d - 1) * f2
    )


@_check("p1d_zb", _dabc(1, lambda a, d: 0, lambda a, d: 1))
def _p1d_zb(a, b, c, d):
    # the display's b c (1 - (c+k-1)/c) + (2d-1)(c+k-1), times c on both sides
    s = sum(
        rising(b + c + k, a - k - 1) * rising(c, k - 1) * rising(k, 2 * d - 2)
        * (b * c * (c - (c + k - 1)) + c * (2 * d - 1) * (c + k - 1))
        for k in range(1, a)
    )
    return s == c * (a - 1) * rising(c, a - 1) * rising(a, 2 * d - 2)


@_check("f_d_recursion", _dabc(1, lambda a, d: 0, lambda a, d: 1, d0=2))
def _f_d_recursion(a, b, c, d):
    lin = _alt_linear(a, b, c, d)
    lhs = (b - 2 * d + 2) * (b - 2 * d + 3) * f_sum(a, b, c, d)
    rhs = 2 * (d - 1) * (2 * d - 3) * (b + c - 2 * d + 2) * (b + c - 2 * d + 3) * f_sum(
        a, b, c, d - 1
    ) + (a + c - 1) * (a + 2 * d - 4) * rising(c, a - 1) * rising(a, 2 * d - 4) * lin
    return lhs == rhs


@_check("f_alternative", _dabc(2, lambda a, d: 2 * d - 1, lambda a, d: 0))
def _f_alternative(a, b, c, d):
    # the k = 1 term is -(b+c-2d+2)_{2d-2}, and
    # f = (2d-2)! / (b-2d+2)_{2d-1} ((b+c-2d+2)_{a+2d-2} + (c)_a sum_k term_k)
    if not _vanishes([_alt_term(a, b, c, d, 1), (rising(b + c - 2 * d + 2, 2 * d - 2), ())]):
        return False
    s, s_den = _sum(_alt_term(a, b, c, d, k) for k in range(1, d + 1))
    total = rising(b + c - 2 * d + 2, a + 2 * d - 2) * s_den + rising(c, a) * s
    want = f_sum(a, b, c, d) * rising(b - 2 * d + 2, 2 * d - 1)
    return factorial(2 * d - 2) * total == want * s_den


@_check("sum_formula", _abcp(0))
def _sum_formula(a, b, c, p):
    try:
        return schur.verify_sum_formula(a, b, c, p)
    except OutOfValidityError:
        return None  # outside the display's pole-free window: skipped


_IDENTITIES = tuple(_REGISTRY)

# Closed forms and structure against the determinant: the `hexatile verify`
# suites, which also run seven of the identities above.


def _byun_points(A, B, C, D):
    return (
        (p, b, c, d)
        for p in range(A // 2 + 1)
        for b in range(1, B + 1)
        for c in range(1, C + 1)
        for d in range(1, min(b, c, D) + 1)
    )


def _p1md_points(A, B, C, D):
    return ((a, b, c, d) for a, b, c in _box(0, 1, 1)(A, B, C, D) for d in range(1, D + 1))


@_check("macmahon_product", _box(0, 1, 1))
def _macmahon_product(a, b, c):
    return count(a, b, c, 0, 0, EVEN) == macmahon(a, b, c)


@_check("halved_even_product", _byun_points)
def _halved_even_product(p, b, c, d):
    return byun_even(p, b, c, d) == count(2 * p, b, c, d, p, EVEN)


@_check("halved_odd_product_corrected", _byun_points)
def _halved_odd_product_corrected(p, b, c, d):
    return (-1) ** d * byun_odd_corrected(p, b, c, d) == count(2 * p + 1, b, c, d, p, ODD)


@_check("halved_odd_product_printed", _byun_points, informational=True)
def _halved_odd_product_printed(p, b, c, d):
    try:
        return byun_odd(p, b, c, d) == abs(count(2 * p + 1, b, c, d, p, ODD))
    except (ValueError, ArithmeticError):
        return False


@_check("p1md_simple", _p1md_points)
def _p1md_simple(a, b, c, d):
    return p_one_minus_d_simple(a, b, c, d) == count(a, b, c, d, 1 - d, EVEN)


def _p1md_alt(variant):
    def check(a, b, c, d):
        try:
            want = count(a, b, c, d, 1 - d, EVEN)
            return p_one_minus_d_alt(a, b, c, d, variant=variant) == want
        except OutOfValidityError:
            return True  # outside the display's window: counted as a pass
        except PoleError:
            return None  # the display's denominator vanishes: skipped

    return check


_check("p1md_sum", _p1md_points)(_p1md_alt("sum"))
_check("p1md_polynomial", _p1md_points)(_p1md_alt("polynomial"))


@_check("unit_intrusion_corollary", _box(0, 1, 1))
def _unit_intrusion_corollary(a, b, c):
    return d1_corollary(a, b, c) == count(a, b, c, 1, 0, EVEN)


@_check("binomial_lu_inverse", _box(1, 1, 1))
def _binomial_lu_inverse(a, b, c):
    return schur.verify_inverse(schur.build_bundle(a, b, c))


@_check("complement_block_count", lambda A, B, C, D: (
    (a, b, c, d, p)
    for a, b, c in _box(1, 1, 1)(A, B, C, D)
    for d in range(D, -1, -1)
    for p in range(a + 1)
))
def _complement_block_count(a, b, c, d, p):
    return schur.count_via_F(a, b, c, d, p) == count(a, b, c, d, p, EVEN)


@_check("inverse_entry_sums", lambda A, B, C, D: (
    (a, b, c, p, i, j)
    for a, b, c in _box(1, 1, 1)(min(A, 4), min(B, 4), min(C, 4), D)
    for p in range(min(a, 2) + 1)
    for i in range(min(D, 2), 0, -1)
    for j in range(min(D, 2), 0, -1)
))
def _inverse_entry_sums(a, b, c, p, i, j):
    return schur.verify_triple_sum(a, b, c, p, i, j)


@_check("telescoped_double_sum", _abcp(1))
def _telescoped_double_sum(a, b, c, p):
    try:
        return schur.verify_sum_formula(a, b, c, p)
    except OutOfValidityError:
        return True  # outside the formula's window: counted as a pass


@_check("condensation_even", _abcdp(2))
def _condensation_even(a, b, c, d, p):
    return lgv.verify_dodgson_even(a, b, c, d, p)


@_check("condensation_odd", _abcdp(2))
def _condensation_odd(a, b, c, d, p):
    return lgv.verify_dodgson_odd(a, b, c, d, p)


@_check("mirror_symmetry", _abcdp(0))
def _mirror_symmetry(a, b, c, d, p):
    return lgv.verify_symmetry(a, b, c, d, p)


def verify_identities(
    suite: str = "all", amax: int = 5, bmax: int = 5, cmax: int = 5, dmax: int = 3
) -> list[IdentityResult]:
    """Sweep the supporting identities on small grids; failures are report entries."""
    names = list(_IDENTITIES) if suite == "all" else [s.strip() for s in suite.split(",")]
    for name in names:
        if name not in _IDENTITIES:
            raise ValueError(f"unknown identity {name!r}; known: {', '.join(_IDENTITIES)}")
    return run_checks(names, amax, bmax, cmax, dmax)
