"""Combinatorial primitives: binomials, rising factorials, Pochhammer symbols."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexatile.exactmath import (NotIntegerError, PoleError, as_int, binom, pochhammer,
                                pochhammer_parts, rising)


def test_binom_vanishes_outside_range():
    assert binom(-1, 3) == 0
    assert binom(4, -1) == 0
    assert binom(4, 5) == 0
    assert binom(-3, 0) == 0


def test_binom_small_values():
    assert binom(5, 2) == 10
    assert binom(0, 0) == 1
    assert binom(10, 6) == 210


@given(st.integers(min_value=1, max_value=200), st.data())
def test_binom_pascal_recurrence(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_pochhammer_rising():
    assert pochhammer(3, 2) == 12
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(Fraction(-7, 3), 0) == 1
    assert pochhammer(0, 0) == 1


def test_pochhammer_negative_index_convention():
    # (x)_{-m} = 1/(x-m)_m, so (5)_{-2} = 1/(3*4)
    assert pochhammer(5, -2) == Fraction(1, 12)
    with pytest.raises(PoleError):
        pochhammer(1, -1)  # denominator (0)_1 = 0
    with pytest.raises(PoleError):
        pochhammer(2, -3)


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_pochhammer_splicing(x, m, n):
    # (x)_{m+n} = (x)_m (x+m)_n wherever all three are pole-free
    try:
        lhs = pochhammer(x, m + n)
        rhs = pochhammer(x, m) * pochhammer(x + m, n)
    except PoleError:
        return
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=40))
def test_pochhammer_of_one_is_factorial(n):
    assert pochhammer(1, n) == math.factorial(n)


def test_as_int_accepts_exact_integers():
    assert as_int("x", 14, 2) == 7
    assert as_int("x", 5, 1) == 5
    assert as_int("x", 0, -3) == 0
    # an exact quotient with a negative denominator keeps its sign
    assert as_int("x", 21, -7) == -3
    assert as_int("x", -21, -7) == 3


def test_as_int_rejects_proper_fractions():
    with pytest.raises(NotIntegerError, match=r"^test quantity is not an integer: 1/3$"):
        as_int("test quantity", 1, 3)
    # the message names the fraction in lowest terms, sign on the numerator
    with pytest.raises(NotIntegerError, match=r"^x is not an integer: 250/3$"):
        as_int("x", 500, 6)
    with pytest.raises(NotIntegerError, match=r"^x is not an integer: -250/3$"):
        as_int("x", 500, -6)


def test_pochhammer_integer_path_matches_fraction_loop():
    # a Fraction argument goes through its numerator and denominator, an int
    # through the integer fast path
    for x in range(-8, 9):
        for n in range(-8, 9):
            try:
                want = pochhammer(Fraction(x), n)
            except PoleError:
                with pytest.raises(PoleError):
                    pochhammer(x, n)
                continue
            got = pochhammer(x, n)
            assert type(got) is Fraction, (x, n)
            assert got == want, (x, n)
            if n >= 0:
                assert type(rising(x, n)) is int and rising(x, n) == want, (x, n)
            else:
                # never the empty product: a negative index is refused
                with pytest.raises(ValueError):
                    rising(x, n)


@given(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-8, max_value=8),
)
def test_pochhammer_parts_is_the_fraction_product(u, v, n):
    x = Fraction(u, v)
    arg = x.numerator if x.denominator == 1 else x  # an int takes the fast path
    # (x)_n = x (x+1) ... (x+n-1); (x)_{-m} = 1 / ((x-m) ... (x-1))
    factors = [x + t for t in range(n)] if n >= 0 else [x + t for t in range(n, 0)]
    if n < 0 and 0 in factors:
        with pytest.raises(PoleError):
            pochhammer_parts(arg, n)
        return
    num, den = pochhammer_parts(arg, n)
    assert type(num) is int and type(den) is int
    product = math.prod(factors, start=Fraction(1))
    assert Fraction(num, den) == (product if n >= 0 else 1 / product)
