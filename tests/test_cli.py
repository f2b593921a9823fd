"""Command-line front end: configs, caching, CSV output, exit codes."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsbf
from nsbf.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
    parse_complex_literal,
)

DEGENERATE_CFG = """\
[problem]
a = 0
b = 3.141592653589793
p = 1
q = 0
r = 1

[boundary]
a1 = 1
a2 = 0
b1 = 1
b2 = 0

[numerics]
grid = 201
N = 20
"""

KAMKE_CFG = """\
[problem]
builtin = kamke

[numerics]
grid = 201
"""


@pytest.fixture()
def deg_cfg(tmp_path):
    path = tmp_path / "deg.ini"
    path.write_text(DEGENERATE_CFG)
    return path


@pytest.fixture()
def kamke_cfg(tmp_path):
    path = tmp_path / "kamke.ini"
    path.write_text(KAMKE_CFG)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_coeffs_report_and_cache_reuse(kamke_cfg, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["coeffs", str(kamke_cfg), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "selected N_opt" in captured.out
    assert "(written)" in captured.err
    first = out.read_bytes()
    rows = read_rows(out)
    assert len(rows) == 51  # orders 0..50
    assert set(rows[0]) == {
        "M",
        "alpha_sum",
        "alpha_alternating",
        "mu_sum",
        "mu_alternating",
        "worst",
        "window_start",
        "cut_alpha",
        "cut_mu",
    }

    # second run must reuse the cache and reproduce the bytes exactly
    assert main(["coeffs", str(kamke_cfg), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "(reused)" in captured.err
    assert out.read_bytes() == first


def test_corrupted_cache_recovers(kamke_cfg, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["coeffs", str(kamke_cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    cache = kamke_cfg.parent / (kamke_cfg.name + ".nsbfc")
    assert cache.exists()
    first = out.read_bytes()

    raw = bytearray(cache.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    cache.write_bytes(bytes(raw))
    assert main(["coeffs", str(kamke_cfg), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "ignoring cache" in captured.err
    assert "(written)" in captured.err
    assert out.read_bytes() == first


def test_cache_key_tracks_build_order(kamke_cfg, tmp_path, capsys):
    out = tmp_path / "r.csv"
    main(["coeffs", str(kamke_cfg), "--out", str(out)])
    capsys.readouterr()
    # a different build order writes a differently-keyed cache...
    main(["coeffs", str(kamke_cfg), "--N", "60", "--out", str(out)])
    assert "(written)" in capsys.readouterr().err
    # ...so the original configuration finds a mismatched key and recomputes
    main(["coeffs", str(kamke_cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert "ignoring cache" in err


def test_eigs_degenerate_dirichlet(deg_cfg, tmp_path, capsys):
    out = tmp_path / "eigs.csv"
    code = main(["eigs", str(deg_cfg), "--count", "5", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert [r["k"] for r in rows] == ["1", "2", "3", "4", "5"]
    for r in rows:
        k = int(r["k"])
        assert float(r["lambda"]) == pytest.approx(k * k, abs=1e-8)
        assert float(r["omega"]) == pytest.approx(k, abs=1e-9)
        assert float(r["residual"]) < 1e-8


def test_eigs_empty_range(deg_cfg, tmp_path, capsys):
    out = tmp_path / "eigs.csv"
    code = main(["eigs", str(deg_cfg), "--omega-max", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text() == "k,omega,lambda,residual\n"


def test_eigs_needs_boundary(tmp_path, capsys):
    cfg = tmp_path / "nobc.ini"
    cfg.write_text(
        "[problem]\na = 0\nb = 1\np = 1\nq = 0\nr = 1\n"
        "[numerics]\ngrid = 201\n"
    )
    assert main(["eigs", str(cfg), "--count", "2"]) == EXIT_INPUT
    assert "boundary" in capsys.readouterr().err


def test_solve_degenerate_cosine(deg_cfg, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = main(
        ["solve", str(deg_cfg), "--omega", "1", "--u0", "1", "--up0", "0",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 201
    assert list(rows[0]) == ["y", "u", "uprime"]
    ys = np.array([float(r["y"]) for r in rows])
    us = np.array([float(r["u"]) for r in rows])
    assert np.max(np.abs(us - np.cos(ys))) < 1e-10


def test_solve_complex_omega(deg_cfg, tmp_path):
    out = tmp_path / "solc.csv"
    code = main(
        ["solve", str(deg_cfg), "--omega", "1+1i", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert list(rows[0]) == ["y", "u_re", "u_im", "uprime_re", "uprime_im"]
    # u = cos(omega y) for u0 = 1, up0 = 0
    w = 1.0 + 1.0j
    y = float(rows[-1]["y"])
    exact = np.cos(w * y)
    got = complex(float(rows[-1]["u_re"]), float(rows[-1]["u_im"]))
    assert abs(got - exact) < 1e-9 * abs(exact)


def test_solve_check_column(deg_cfg, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = main(
        ["solve", str(deg_cfg), "--omega", "3", "--check", "--out", str(out)]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "check: max |u - reference| = " in captured.out
    rows = read_rows(out)
    assert "check_abs_err" in rows[0]
    worst = max(float(r["check_abs_err"]) for r in rows)
    assert worst < 1e-10


def test_solve_check_line_goes_to_stderr_without_out(deg_cfg, capsys):
    code = main(["solve", str(deg_cfg), "--omega", "3", "--check"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "check: max |u - reference|" in captured.err
    assert captured.out.startswith("y,u,uprime,check_abs_err\n")


def test_stdout_csv_is_deterministic(deg_cfg, capsys):
    main(["solve", str(deg_cfg), "--omega", "2"])
    first = capsys.readouterr().out
    main(["solve", str(deg_cfg), "--omega", "2"])
    assert capsys.readouterr().out == first


def test_expression_error_reports_column(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[problem]\na = 0\nb = 1\np = 1 + (2*y\nq = 0\nr = 1\n"
    )
    assert main(["coeffs", str(cfg)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "column 9" in err
    assert err.count("column 9") == 1


def test_missing_config(capsys, tmp_path):
    assert main(["coeffs", str(tmp_path / "absent.ini")]) == EXIT_INPUT
    assert "not found" in capsys.readouterr().err


def test_nonpositive_p_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "neg.ini"
    cfg.write_text(
        "[problem]\na = 0\nb = 1\np = y - 0.5\nq = 0\nr = 1\n"
        "[numerics]\ngrid = 201\n"
    )
    assert main(["coeffs", str(cfg)]) == EXIT_INPUT
    assert "p" in capsys.readouterr().err


def test_grid_override_validation(deg_cfg, capsys):
    assert main(["coeffs", str(deg_cfg), "--grid", "200"]) == EXIT_INPUT
    assert main(["coeffs", str(deg_cfg), "--grid", "99"]) == EXIT_INPUT
    assert main(["coeffs", str(deg_cfg), "--N", "bogus"]) == EXIT_INPUT
    capsys.readouterr()


def test_table_coefficient_route(tmp_path, capsys):
    y = np.linspace(0.0, 1.0, 201)
    for name, vals in (
        ("p.csv", np.exp(-2 * y)),
        ("q.csv", -np.exp(-2 * y)),
        ("r.csv", (y**2 + 1) * np.exp(-2 * y)),
    ):
        np.savetxt(tmp_path / name, np.column_stack([y, vals]), delimiter=",")
    cfg = tmp_path / "tab.ini"
    cfg.write_text(
        "[problem]\na = 0\nb = 1\np_file = p.csv\nq_file = q.csv\n"
        "r_file = r.csv\n"
        "[boundary]\na1 = 1\na2 = 0\nb1 = 1\nb2 = 0\n"
        "[numerics]\ngrid = 201\n"
    )
    out = tmp_path / "eigs.csv"
    assert main(["eigs", str(cfg), "--count", "2", "--out", str(out)]) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[0]["lambda"]) > 0.0
    capsys.readouterr()


def test_expression_and_file_are_exclusive(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("0,1\n0.5,1\n1,1\n")
    cfg = tmp_path / "dup.ini"
    cfg.write_text(
        "[problem]\na = 0\nb = 1\np = 1\np_file = p.csv\nq = 0\nr = 1\n"
    )
    assert main(["coeffs", str(cfg)]) == EXIT_INPUT
    assert "not both" in capsys.readouterr().err


def test_parse_complex_literal():
    assert parse_complex_literal("2") == 2.0
    assert parse_complex_literal("-1.5e-2") == -0.015
    assert parse_complex_literal("5+0.5i") == 5.0 + 0.5j
    assert parse_complex_literal("5 + 0.5i") == 5.0 + 0.5j
    assert parse_complex_literal("1i") == 1.0j
    assert parse_complex_literal("5+0.5j") == 5.0 + 0.5j
    with pytest.raises(ValueError):
        parse_complex_literal("five")


def test_module_entry_point(deg_cfg, tmp_path):
    out = tmp_path / "e.csv"
    # The child imports the package these tests import, also when only
    # pytest's ``pythonpath`` setting (not PYTHONPATH) put it on sys.path.
    src = str(Path(nsbf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "nsbf.cli", "eigs", str(deg_cfg),
         "--count", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert out.exists()
