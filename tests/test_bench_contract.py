"""Every nsbf entry point the benchmark's traced run wraps exists, and the
results it reads keep their attributes and types."""

import ast
import importlib
from pathlib import Path

from nsbf.coefficients import build_coefficients
from nsbf.grid import Grid
from nsbf.liouville import build_liouville
from nsbf.oracles import degenerate_problem
from nsbf.seed import compute_seed
from nsbf.solver import DIRICHLET, SolutionEvaluator

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _tree():
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _patch_targets():
    """(first owner's name, attribute) of each ``tr.patch(owners, attr)``."""
    for node in ast.walk(_tree()):
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


def test_result_attributes_read_by_the_benchmark():
    # the seed, coefficient and eigenvalue attributes bench/workloads.py
    # reads, with their types, on a degenerate build
    prob = degenerate_problem()
    data = build_liouville(prob, grid=Grid(prob.a, prob.b, 201))
    seed = compute_seed(prob, data)
    coeffs = build_coefficients(data, seed, N=20)
    rows = SolutionEvaluator(coeffs, data, seed).find_eigenvalues(
        DIRICHLET, count_hint=5)
    assert len(rows) == 5
    row_attrs = {"k": int, "lam": float, "omega": float,
                 "char_residual": float, "refinement_iterations": int}
    checks = [(seed, {"min_abs_g": float, "used_complex_combination": bool}),
              (coeffs, {"N_opt": int}), (coeffs.report, {"floor": float})]
    checks += [(row, row_attrs) for row in rows]
    read = {node.attr for node in ast.walk(_tree())
            if isinstance(node, ast.Attribute)}
    for obj, attrs in checks:
        for attr, typ in attrs.items():
            assert attr in read, attr
            assert type(getattr(obj, attr)) is typ, (type(obj), attr)
