"""Refusals that no other test reaches: each input is rejected with its own
error, or, for the primality test, answered False."""

import pytest

from hexatile import detkernel
from hexatile.detkernel import det_modular, mat_mul, solve_exact
from hexatile.formulas import OutOfValidityError, p_one_minus_d_alt
from hexatile.hexmodel import EVEN, ODD, HexSpec, endpoints
from hexatile.lgv import even_count_by_condensation, path_matrix
from hexatile.oracle import MonotonePath, PathFamily, Point, first_tiling, reconstruct_tiling
from hexatile.schur import build_bundle


def _foreign_witness():
    # the one path of (1, 1, 1, 0, 0) crosses the triangle the unit intrusion removes
    witness = first_tiling(HexSpec(1, 1, 1, 0, 0, EVEN))
    return reconstruct_tiling(HexSpec(1, 1, 1, 1, 0, EVEN), witness)


@pytest.mark.parametrize("call, want", [
    pytest.param(lambda: det_modular([[1, 2]]), (ValueError, "^matrix is not square$"),
                 id="det_modular-not-square"),
    pytest.param(lambda: mat_mul([[1, 2]], [[1, 2]]),
                 (ValueError, "^inner dimensions do not match$"), id="mat_mul-inner"),
    pytest.param(lambda: solve_exact([[1]], [[1], [2]]),
                 (ValueError, "^rhs has incompatible dimensions$"), id="solve_exact-rhs-rows"),
    pytest.param(lambda: detkernel._is_prime(0), False, id="is_prime-0"),
    pytest.param(lambda: detkernel._is_prime(1), False, id="is_prime-1"),
    pytest.param(lambda: p_one_minus_d_alt(2, 3, 3, 0),
                 (OutOfValidityError, "^needs an intrusion of length d > 0$"), id="p1md_alt-d0"),
    pytest.param(lambda: even_count_by_condensation(1, -1, 1, 0, 0),
                 (ValueError, "^a, b, c, d must be nonnegative$"), id="condense-negative-side"),
    # b and c may be formal there, but a and d may not
    pytest.param(lambda: path_matrix(-2, 3, 3, 1, 0, EVEN),
                 (ValueError, "^a, b, c, d must be nonnegative$"), id="path_matrix-negative-a"),
    pytest.param(lambda: path_matrix(2, 3, 3, -1, 0, EVEN),
                 (ValueError, "^a, b, c, d must be nonnegative$"), id="path_matrix-negative-d"),
    pytest.param(lambda: endpoints(-2, 3, 3, 1, 0, EVEN),
                 (ValueError, "^a, b, c, d must be nonnegative$"), id="endpoints-negative-a"),
    pytest.param(lambda: endpoints(2, 3, 3, -1, 0, EVEN),
                 (ValueError, "^a, b, c, d must be nonnegative$"), id="endpoints-negative-d"),
    pytest.param(lambda: MonotonePath((Point(0, 0), Point(1, 1))),
                 (ValueError, r"^steps must be \+\(1,0\) or \+\(0,1\)$"), id="path-diagonal-step"),
    pytest.param(lambda: build_bundle(1, -1, 1), (ValueError, "^a, b, c must be nonnegative$"),
                 id="build_bundle-negative-side"),
    pytest.param(_foreign_witness, (ValueError, r"^triangle \('D', \(0, 0\)\) not available; "
                                                r"family is not a tiling$"),
                 id="reconstruct-not-available"),
    # (1, 1, 0, 1, 0) odd has no tiling; with no paths, the vertical lozenges
    # pair every U triangle and leave one D triangle over
    pytest.param(lambda: reconstruct_tiling(HexSpec(1, 1, 0, 1, 0, ODD), PathFamily((), ())),
                 (ValueError, r"^triangles left uncovered: \[\('D', \(0, 0\)\)\]$"),
                 id="reconstruct-left-uncovered"),
])
def test_refusal_is_reached(call, want):
    if isinstance(want, tuple):
        error, match = want
        with pytest.raises(error, match=match):
            call()
    else:
        assert call() is want
