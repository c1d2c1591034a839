"""The names the benchmark's tracer wraps stay bound in the package.

The tracer patches each (owner, attribute) of its ``PATCHES`` table where
the package looks the function up, so renaming or unbinding one of them
breaks the traced run.  The table is read from the source, so this check
needs nothing from the benchmark but that file.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patches():
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["PATCHES"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} binds no PATCHES")


def _owner(dotted: str):
    """The module or class a dotted name names: the longest importable
    module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


PATCHES = _patches()


def test_patch_table_names_package_owners():
    owners = {owner for owner, *_ in PATCHES}
    assert {"caretkit.tableau", "caretkit.cli",
            "caretkit.semantics"} <= owners
    assert all(owner.startswith("caretkit.") for owner in owners)


@pytest.mark.parametrize("owner, attr", sorted({(o, a) for o, a, *_ in PATCHES}))
def test_patched_name_is_bound(owner, attr):
    assert callable(getattr(_owner(owner), attr))
