"""Package metadata agrees with the code."""

import re
from pathlib import Path

import hexatile


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert hexatile.__version__ == match.group(1)
