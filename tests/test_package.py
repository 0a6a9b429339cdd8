"""Package metadata agrees with the code."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import hexatile

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert hexatile.__version__ == match.group(1)


def test_every_benchmark_hook_is_a_public_function_of_its_module():
    # perfbench's tracer wraps the names in REQUIRED; one it cannot find drops
    # that hook's metrics from the benchmark output
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    required = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "REQUIRED")
    assert required
    for name in required:
        short, attr = name.split(".")
        module = importlib.import_module(f"hexatile.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
