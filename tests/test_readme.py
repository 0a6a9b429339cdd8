"""The README's Python example runs as written."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
