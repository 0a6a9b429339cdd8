"""Exact enumeration of lozenge tilings of hexagons with an intrusion."""

from .hexmodel import EVEN, ODD, HexSpec
from .lgv import SignedCount, even_count, odd_count
from .formulas import byun_even, byun_odd_corrected, macmahon
from .oracle import render_svg, signed_count

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "HexSpec",
    "SignedCount",
    "even_count",
    "odd_count",
    "byun_even",
    "byun_odd_corrected",
    "macmahon",
    "render_svg",
    "signed_count",
    "__version__",
]
