"""Lattice coordinates of path endpoints and the path counts between them."""

from itertools import product

import pytest

from hexatile.exactmath import binom
from hexatile.hexmodel import EVEN, ODD, HexSpec, endpoints
from hexatile.lgv import path_matrix


def test_spec_rejects_negative_sides():
    with pytest.raises(ValueError):
        HexSpec(-1, 2, 2, 0, 0, EVEN)
    with pytest.raises(ValueError):
        HexSpec(1, 2, 2, 0, 0, "sideways")


def test_lateral_start_coordinates():
    starts, _ = endpoints(4, 5, 3, 0, 0, EVEN)
    assert starts == [(0, 0), (-1, 1), (-2, 2), (-3, 3)]


def test_lateral_end_coordinates():
    _, ends = endpoints(4, 5, 3, 0, 0, EVEN)
    assert ends[0] == (5, 3)
    assert ends[3] == (2, 6)
    assert endpoints(2, 2, 2, 0, 0, EVEN)[1][1] == (1, 3)
    # formal b, c < 0, as the condensation recursion builds them
    assert endpoints(2, -1, 3, 0, 0, EVEN)[1] == [(-1, 3), (-2, 4)]


def test_intrusive_points_even():
    starts, ends = endpoints(2, 4, 4, 1, 0, EVEN)
    assert starts[2:] == ends[2:] == [(1, 0)]
    starts, ends = endpoints(3, 4, 4, 2, 1, EVEN)
    assert starts[3:] == ends[3:] == [(0, 1), (1, 2)]


def test_intrusive_points_odd():
    starts, ends = endpoints(4, 5, 3, 1, 3, ODD)
    assert starts[4:] == [(-2, 4)]
    assert ends[4:] == [(-3, 3)]


def test_intrusive_points_empty_for_d0():
    for parity in (EVEN, ODD):
        starts, ends = endpoints(3, 2, 2, 0, 1, parity)
        assert starts == [(0, 0), (-1, 1), (-2, 2)]
        assert ends == [(2, 2), (1, 3), (0, 4)]


@pytest.mark.parametrize("parity", ["Even", "ODD", "", "sideways"])
def test_endpoints_reject_unknown_parity(parity):
    # "Even" used to build the odd matrix (det -8 where the even count is 6)
    with pytest.raises(ValueError, match="parity"):
        endpoints(2, 2, 2, 1, 0, parity)
    with pytest.raises(ValueError, match="parity"):
        path_matrix(2, 2, 2, 1, 0, parity)


def test_all_points_order_lateral_first():
    starts, ends = endpoints(2, 3, 3, 2, 1, EVEN)
    assert len(starts) == len(ends) == HexSpec(2, 3, 3, 2, 1, EVEN).dim == 4
    assert starts[:2] == [(0, 0), (-1, 1)]
    assert ends[:2] == [(3, 3), (2, 4)]
    assert starts[2:] == ends[2:] == [(0, 1), (1, 2)]


def test_path_count_values():
    # one lateral path from (0, 0) to (b, c): the matrix entry counts its routes
    assert path_matrix(1, 6, 4, 0, 0, EVEN) == [[210]]
    assert path_matrix(1, -1, 0, 0, 0, EVEN) == [[0]]  # end (-1, 0) out of reach
    assert path_matrix(1, 0, -2, 0, 0, EVEN) == [[0]]  # end (0, -2) out of reach
    assert path_matrix(1, 0, 0, 0, 0, EVEN) == [[1]]


def test_even_intrusive_self_paths_match_closed_form():
    # start i to end j inside the intrusion counts binom(2(j-i), j-i): an
    # upper unitriangular block, which the matrix puts first
    for p in range(-1, 6):
        m = path_matrix(4, 6, 6, 4, p, EVEN)
        for i in range(4):
            for j in range(4):
                assert m[i][j] == binom(2 * (j - i), j - i)


def test_odd_intrusive_self_paths_match_closed_form():
    # odd start i equals end i+1: zero on and below the diagonal, and
    # binom(2(j-1-i), j-1-i) above it
    for p in range(-1, 6):
        m = path_matrix(4, 6, 6, 4, p, ODD)
        for i in range(4):
            for j in range(4):
                assert m[i][j] == (binom(2 * (j - 1 - i), j - 1 - i) if j > i else 0)


def test_path_matrix_leading_blocks():
    # the lateral points do not depend on a, so the matrix for a' <= a is
    # the leading (d + a') block of the one for a, whatever p is
    for parity, a, b, c, d in product((EVEN, ODD), range(8), range(-1, 5), range(-1, 5), range(4)):
        for p in range(-2, a + 3):
            m = path_matrix(a, b, c, d, p, parity)
            for a2 in range(a + 1):
                n = d + a2
                lead = [row[:n] for row in m[:n]]
                assert path_matrix(a2, b, c, d, p, parity) == lead, (a2, a, b, c, d, p, parity)
