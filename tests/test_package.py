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


# the tables of hexatile names in perfbench/tracing.py
HOOK_TABLES = ("REQUIRED", "COUNT_FNS", "CONDENSE_FNS", "CLOSED_FORM_FNS")


def test_every_benchmark_hook_is_a_public_function_of_its_module():
    # perfbench's tracer wraps only plain functions (inspect.isfunction) by
    # their public names; a hook it cannot find, or one behind a memo
    # decorator, drops that hook's metrics from the benchmark output
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in HOOK_TABLES}
    assert set(tables) == set(HOOK_TABLES) and all(tables.values())
    hooks = {name for names in tables.values() for name in names}
    assert len(hooks) == 29
    for name in sorted(hooks):
        short, attr = name.split(".")
        module = importlib.import_module(f"hexatile.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_lgv_shares_no_geometry_code_with_the_oracle():
    # the path sweep reads hexmodel's endpoints; the determinant writes the
    # path counts between them in closed form and never names the function
    def names(module):
        tree = ast.parse((ROOT / "src" / "hexatile" / f"{module}.py").read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name for alias in node.names)
        return found

    assert "endpoints" in names("oracle")
    assert "endpoints" not in names("lgv")
    assert not hasattr(importlib.import_module("hexatile.lgv"), "endpoints")
