"""Exact determinant kernels and the rational linear solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexatile.detkernel import (
    SingularMatrixError,
    det_bareiss,
    det_modular,
    det_rational,
    identity,
    mat_mul,
    prime_pool,
    solve_exact,
)
from hexatile.exactmath import binom

small_entries = st.integers(min_value=-1000, max_value=1000)


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


def test_det_rational():
    assert det_rational([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
    assert det_rational([[Fraction(-7, 5)]]) == Fraction(-7, 5)


def test_solve_exact_identity_and_scaling():
    rhs = [[1, 2], [3, 4]]
    assert solve_exact(identity(2), rhs) == [[1, 2], [3, 4]]
    half = solve_exact([[2, 0], [0, 2]], identity(2))
    assert half == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]


def test_solve_exact_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 1], [1, 1]], identity(2))


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=40, deadline=None)
def test_solve_round_trip(n, data):
    m = square(n, lambda: data.draw(st.integers(min_value=-9, max_value=9)))
    if det_bareiss(m) == 0:
        return
    rhs = square(n, lambda: data.draw(st.integers(min_value=-9, max_value=9)))
    x = solve_exact(m, rhs)
    assert mat_mul(m, x) == [[Fraction(v) for v in row] for row in rhs]


def test_prime_pools_are_prime_and_deterministic():
    from sympy import isprime

    pool = prime_pool(6)
    assert pool == prime_pool(6)
    assert all(isprime(q) for q in pool)
