"""Damaged-hexagon parameters and the lattice coordinates of LGV endpoints.

After tilting the triangular lattice, the nonintersecting paths live in
Z x Z with unit steps to the right and upwards.  The lowest lateral
starting point sits at (0,0); `endpoints` gives every other coordinate.
The path sweep (`oracle`) reads it; the determinant (`lgv`) writes the path
counts between these points in closed form, and tests check those against it.
"""

from __future__ import annotations

from dataclasses import dataclass

EVEN = "even"
ODD = "odd"
_PARITIES = (EVEN, ODD)


def _check_spec(a: int, b: int, c: int, d: int, parity: str) -> None:
    """The domain of a spec: sides a, b, c, d >= 0 and parity EVEN or ODD,
    else a ValueError.  Callers whose b and c may be formal pass 0 for them."""
    if a < 0 or b < 0 or c < 0 or d < 0:
        raise ValueError("a, b, c, d must be nonnegative")
    if parity not in _PARITIES:
        raise ValueError(f"parity must be {EVEN!r} or {ODD!r}, not {parity!r}")


@dataclass(frozen=True)
class HexSpec:
    """Hexagon sides a, b, c with an intrusion of length d at position p.

    Position p may be any integer (negative or > a are allowed and meaningful
    as determinants).  parity selects even vs odd intrusions.
    """

    a: int
    b: int
    c: int
    d: int
    p: int
    parity: str = EVEN

    def __post_init__(self) -> None:
        _check_spec(self.a, self.b, self.c, self.d, self.parity)

    @property
    def dim(self) -> int:
        """Dimension of the LGV matrix."""
        return self.a + self.d


def endpoints(a: int, b: int, c: int, d: int, p: int, parity: str) -> tuple[list, list]:
    """(starts, ends) of the LGV path families, as (x, y) pairs.

    The a lateral points come first, counted from the lower right: start i
    at (1-i, i-1) and end j at (b+1-j, c+j-1).  The d intrusive points
    follow, ordered lower left to upper right.  Even intrusions: start i and
    end i coincide at (i-p, p+i-1), so those paths have length 0.  Odd
    intrusions: start i = (i-p, p+i) and end j = (j-1-p, p+j-1), so start i
    equals end i+1.  b and c may be negative: the condensation recursion
    shifts them formally below zero.  A negative a or d, or any parity but
    EVEN and ODD, is a ValueError.  The path sweep (`oracle`) and the tests
    read it; `lgv` does not.
    """
    _check_spec(a, 0, 0, d, parity)  # b and c may be formal
    starts = [(1 - i, i - 1) for i in range(1, a + 1)]
    ends = [(b + 1 - j, c + j - 1) for j in range(1, a + 1)]
    if parity == EVEN:
        mids = [(i - p, p + i - 1) for i in range(1, d + 1)]
        return starts + mids, ends + mids
    starts += [(i - p, p + i) for i in range(1, d + 1)]
    ends += [(j - 1 - p, p + j - 1) for j in range(1, d + 1)]
    return starts, ends
