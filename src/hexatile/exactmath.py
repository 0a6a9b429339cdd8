"""Exact combinatorial primitives: binomials, rising factorials, Pochhammer symbols.

All arithmetic is exact. Python's built-in int serves as the
arbitrary-precision integer type and fractions.Fraction as the rational
type; no floating point is used anywhere in the library core.  A rational
that must be an integer reaches as_int as an unreduced integer pair and is
settled by one divmod; a Fraction is built only for its error message.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class PoleError(ArithmeticError):
    """Negative-index Pochhammer convention hit a zero factor in the denominator."""


class NotIntegerError(ValueError):
    """An exact rational that must be an integer (a count, say) is not."""


class OutOfValidityError(ValueError):
    """Parameters violate a formula's stated validity window."""


def binom(n: int, k: int) -> int:
    """Binomial coefficient under the lattice-path convention.

    Returns 0 whenever k < 0 or k > n; in particular binom(n, k) = 0 for
    every n < 0 (so binom(-1, 3) is 0, not -1).
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rising(x: int, n: int) -> int:
    """Rising factorial (x)_n = x(x+1)...(x+n-1) of an integer, as an int.

    Only for n >= 0 (empty product = 1).  A negative n raises ValueError
    rather than returning the empty product: (x)_n is then 1/(x+n)_{-n},
    which pochhammer_parts evaluates.
    """
    if n < 0:
        raise ValueError(f"rising({x}, {n}) needs a nonnegative index; use pochhammer")
    return math.prod(range(x, x + n))


def pochhammer_parts(x: Rat, n: int) -> tuple[int, int]:
    """Rising factorial (x)_n of a rational x = u/v as an unreduced pair (num, den).

    For n >= 0: (u (u+v) ... (u+(n-1)v), v^n), empty product = 1.  For n < 0:
    (x)_{-m} = 1/(x-m)_m, the unique extension satisfying (x)_{m+n} =
    (x)_m (x+m)_n; raises PoleError when a factor of (x-m)_m vanishes.
    """
    u, v = (x, 1) if isinstance(x, int) else Fraction(x).as_integer_ratio()
    if n >= 0:
        return math.prod(range(u, u + n * v, v)), v**n
    den = math.prod(range(u + n * v, u, v))
    if den == 0:
        raise PoleError(f"({x})_{n} has a zero factor in its denominator")
    return v**-n, den


def pochhammer(x: Rat, n: int) -> Fraction:
    """(x)_n as a Fraction, for every integer n: see pochhammer_parts."""
    num, den = pochhammer_parts(x, n)
    return Fraction(num) if den == 1 else Fraction(num, den)  # Fraction(num) skips a gcd


def as_int(what: str, num: int, den: int) -> int:
    """num/den as an int, by one divmod; NotIntegerError names `what` and the
    reduced fraction when it is not one."""
    q, r = divmod(num, den)
    if r:
        raise NotIntegerError(f"{what} is not an integer: {Fraction(num, den)}")
    return q
