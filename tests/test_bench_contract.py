"""Every nsbf entry point the benchmark's traced run wraps exists."""

import ast
import importlib
from pathlib import Path

from nsbf.solver import SolutionEvaluator

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _patch_targets():
    """(first owner's name, attribute) of each ``tr.patch(owners, attr)``."""
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch"):
            owners, attr = node.args[:2]
            first = owners.left if isinstance(owners, ast.BinOp) else owners
            yield first.elts[0].id, attr.value


def _owner(name):
    if name == "ev":
        return SolutionEvaluator
    return importlib.import_module(f"nsbf.{name.removesuffix('_mod')}")


def test_traced_entry_points_exist():
    targets = list(_patch_targets())
    assert len(targets) == 14  # pins the parse; follows bench/workloads.py
    for owner, attr in targets:
        assert callable(getattr(_owner(owner), attr, None)), f"{owner}.{attr}"
