"""Command-line front end: configs, caching, CSV output, exit codes."""

import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsbf
from nsbf import selftest
from nsbf.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    load_config,
    main,
    parse_complex_literal,
)
from nsbf.grid import Grid
from nsbf.liouville import build_liouville
from nsbf.solver import SolutionEvaluator, Spectrum

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


BARRIER_CFG = """\
[problem]
a = 0
b = 3.141592653589793
p = 1
q = 400*exp(-50*(y - 1.5707963267948966)^2)
r = 1

[boundary]
a1 = 1
a2 = 0
b1 = 1
b2 = 0
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

    raw = cache.read_bytes()
    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    # a version-4 cache holds no seed, a version-6 one long-double ladder
    # coefficients, a version-7 one coefficients from long-double running
    # sums, a version-8 one may hold inf/nan orders, written before the
    # ladder refused rows that overflow, and a version-9 one has hand-named
    # entries instead of the dotted field names; each is reported and
    # rebuilt like a corrupted one
    cases = [(bytes(flipped), "corrupted cache payload")]
    for version in (4, 6, 7, 8, 9):
        cases.append((raw[:8] + version.to_bytes(4, "little") + raw[12:],
                      f"cache version {version} does not match"))
    for bad, reason in cases:
        cache.write_bytes(bad)
        assert main(["coeffs", str(kamke_cfg), "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert f"ignoring cache ({reason}" in captured.err
        assert "(written)" in captured.err
        assert out.read_bytes() == first
        assert cache.read_bytes()[:12] == raw[:12]  # rewritten, current version


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


def test_eigs_kamke_csv_is_pinned(tmp_path, capsys):
    # the built-in Kamke problem with its Robin pair on the default grid,
    # 10 eigenvalues: the bytes recorded when Newton's method began at the
    # root of each bracket's interpolant through 32 scan values (omega and
    # lambda kept every byte; the residual column is now each root's one
    # Newton step)
    cfg = tmp_path / "kamke.ini"
    cfg.write_text("[problem]\nbuiltin = kamke\n")
    out = tmp_path / "eigs.csv"
    code = main(["eigs", str(cfg), "--count", "10", "--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "97876aec1753ed8afed51b50b9ef8c6f7cb64978b1573b246d1a8db216c81112")


def test_eigs_empty_range(deg_cfg, tmp_path, capsys):
    out = tmp_path / "eigs.csv"
    code = main(["eigs", str(deg_cfg), "--omega-max", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text() == "k,omega,lambda,residual\n"


def test_eigs_negative_count_is_input_error(deg_cfg, capsys):
    # a negative count is refused, not taken as a slice from the end of the
    # root list, and before the build: no cache is written
    assert main(["eigs", str(deg_cfg), "--count", "-1"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert "--count must be >= 0, got -1" in err
    assert not deg_cfg.with_name(deg_cfg.name + ".nsbfc").exists()


def _assert_one_input_error(argv, reason, capsys):
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert errors == [err.splitlines()[-1]]
    assert reason in errors[0]


def test_non_finite_spectral_input_is_input_error(deg_cfg, tmp_path, capsys):
    # nan or inf stops the run with one error line: not an empty table
    # with exit 0, a traceback, or a warning (warnings are errors here)
    for argv, reason in (
        (["eigs", "--omega-max", "nan"], "omega_max must be finite"),
        (["eigs", "--omega-max", "inf"], "omega_max must be finite"),
        (["eigs", "--omega-max", "1e300"],
         "omega_max = 1e+300 is beyond the largest usable omega_max"),
        (["solve", "--omega", "nan"], "not finite"),
        (["solve", "--omega", "nan+1i"], "not finite"),
        (["solve", "--omega", "inf"], "not finite"),
        (["solve", "--omega", "1", "--u0", "nan"], "u_A must be finite"),
        (["solve", "--omega", "1", "--up0", "inf"],
         "uprime_A must be finite"),
    ):
        _assert_one_input_error([argv[0], str(deg_cfg)] + argv[1:], reason,
                                capsys)
    for old, new in (("a1 = 1", "a1 = nan"), ("b1 = 1", "b1 = inf")):
        cfg = tmp_path / "bc.ini"
        cfg.write_text(DEGENERATE_CFG.replace(old, new))
        _assert_one_input_error(["eigs", str(cfg)],
                                "boundary coefficients must be finite",
                                capsys)


def test_non_finite_potential_is_input_error(tmp_path, capsys):
    # a potential with a log or pole singularity at a node is refused by
    # name, not left to fail later as a traceback
    for q, message in (("log(y)", "q(y=0.0) = -inf at node 0"),
                       ("1/(y - 0.5)", "q(y=0.5) = inf at node 100")):
        cfg = tmp_path / "q.ini"
        cfg.write_text(
            DEGENERATE_CFG.replace("b = 3.141592653589793", "b = 1")
            .replace("q = 0", f"q = {q}")
        )
        _assert_one_input_error(["eigs", str(cfg)],
                                f"q must be finite; {message}", capsys)


def test_eigs_needs_boundary(tmp_path, capsys):
    cfg = tmp_path / "nobc.ini"
    cfg.write_text(
        "[problem]\na = 0\nb = 1\np = 1\nq = 0\nr = 1\n"
        "[numerics]\ngrid = 201\n"
    )
    assert main(["eigs", str(cfg), "--count", "2"]) == EXIT_INPUT
    assert "boundary" in capsys.readouterr().err


def test_eigs_strict_escalates_rescan_warning(tmp_path, capsys):
    # The barrier leaves the first scan without roots, so the search warns
    # and re-scans; --strict turns that warning into a numerical failure.
    cfg = tmp_path / "barrier.ini"
    cfg.write_text(BARRIER_CFG)
    args = ["eigs", str(cfg), "--count", "6", "--grid", "201"]
    assert main(args) == EXIT_OK
    err = capsys.readouterr().err
    assert "re-scanning at half step" in err
    assert "--strict" not in err
    assert main(args + ["--strict"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "re-scanning at half step" in err
    assert "escalated by --strict" in err


def test_eigs_strict_escalates_unmet_count(kamke_cfg, capsys):
    # --omega-max 1 with --count 100 stops growing the scan near omega = 8.2
    # with 8 eigenvalues; the shortfall is a warning, which --strict escalates
    args = ["eigs", str(kamke_cfg), "--omega-max", "1", "--count", "100"]
    assert main(args) == EXIT_OK
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 + 8
    assert "warning: found 8 of the 100 eigenvalues asked for" in err
    assert main(args + ["--strict"]) == EXIT_NUMERICAL
    assert "escalated by --strict" in capsys.readouterr().err


EXPR_PROBLEM = "[problem]\na = 0\nb = 1\np = 1\nq = 0\nr = 1\n"
BOUNDARY = "[boundary]\na1 = 1\na2 = 0\nb1 = 1\nb2 = 0\n"
SAMPLES = {
    "ok.csv": "0,1\n0.3,1\n0.6,1\n1,1\n",
    "short.csv": "0,1\n0.5,1\n1,1\n",
    "unsorted.csv": "0,1\n0.6,1\n0.3,1\n1,1\n",
    "narrow.csv": "0,1\n0.2,1\n0.4,1\n0.8,1\n",
    "nan.csv": "0,1\n0.3,nan\n0.6,1\n1,1\n",
    "text.csv": "y,value\nzero,one\n",
}


@pytest.mark.parametrize("config, reason", [
    ("[numerics]\ngrid = 201\n", "config needs a [problem] section"),
    ("a = 0\n", "cannot parse config: File contains no section headers."),
    ("[problem]\nb = 1\np = 1\nq = 0\nr = 1\n", "needs a and b"),
    ("[problem]\na = zero\nb = 1\np = 1\nq = 0\nr = 1\n",
     "bad interval endpoint"),
    ("[problem]\na = 1\nb = 1\np = 1\nq = 0\nr = 1\n", "need b > a"),
    ("[problem]\na = 0\nb = 1\np = 1\nr = 1\n", "[problem] is missing q"),
    (EXPR_PROBLEM.replace("q = 0", "q_file = absent.csv"),
     "sample file not found"),
    (EXPR_PROBLEM.replace("q = 0", "q_file = text.csv"),
     "cannot read sample file"),
    (EXPR_PROBLEM.replace("q = 0", "q_file = short.csv"), "needs >= 4 rows"),
    (EXPR_PROBLEM.replace("q = 0", "q_file = unsorted.csv"),
     "y column must be increasing"),
    (EXPR_PROBLEM.replace("q = 0", "q_file = narrow.csv"),
     "tabulated data covers [0, 0.8] but the problem interval is [0, 1]"),
    (EXPR_PROBLEM.replace("q = 0", "q_file = nan.csv"),
     "nan.csv: data row 2 is not finite"),
    (EXPR_PROBLEM + "[boundary]\na1 = 1\na2 = 0\nb1 = 1\n",
     "[boundary] needs a1, a2, b1, b2: missing 'b2'"),
    (EXPR_PROBLEM + BOUNDARY.replace("b2 = 0", "b2 = zero"),
     "bad boundary value"),
    (EXPR_PROBLEM + BOUNDARY.replace("a1 = 1", "a1 = 0"),
     "boundary pair (a1, a2) must not be (0, 0)"),
    (EXPR_PROBLEM + "[numerics]\nN = -1\n", "N must be >= 0, got -1"),
    ("[problem]\nbuiltin = airy\n", "unknown builtin problem 'airy'"),
    ("[problem]\nbuiltin = random:x\n", "bad random seed"),
    ("[problem]\nbuiltin = random:-3\n",
     "bad random seed in builtin = 'random:-3': it must be a non-negative"),
    # Delta' at N = 600 would need Bessel order 602 > 512: refused before
    # the ladder is built, so no cache is written
    (EXPR_PROBLEM + "[numerics]\ngrid = 201\nN = 600\n",
     "N = 600 is outside [1, 510]"),
    (EXPR_PROBLEM.replace("p = 1", "p = y"),
     "p must be strictly positive; p(y=0.0) = 0.0 at node 0"),
], ids=["no-problem", "unparsable", "no-a", "bad-a", "b-not-above-a", "no-q",
        "sample-missing", "sample-unreadable", "sample-short",
        "sample-unsorted", "sample-narrow", "sample-nan", "boundary-missing",
        "boundary-bad", "boundary-trivial", "negative-N", "unknown-builtin",
        "random-seed-text", "random-seed-negative", "N-above-510",
        "p-not-positive"])
def test_malformed_config_is_one_input_error(config, reason, tmp_path,
                                             capsys):
    for name, text in SAMPLES.items():
        (tmp_path / name).write_text(text)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(config)
    _assert_one_input_error(["coeffs", str(cfg)], reason, capsys)
    assert not cfg.with_name(cfg.name + ".nsbfc").exists()


def test_seed_failure_exits_numerical(tmp_path, capsys):
    # this barrier's lambda = 0 solution grows to 6e14 at B: the seed fails
    # its certificate min|g|/max|g| > 1e-12, which is a numerical failure
    cfg = tmp_path / "barrier.ini"
    cfg.write_text(BARRIER_CFG.replace("-50*", "-2*")
                   + "[numerics]\ngrid = 201\n")
    assert main(["eigs", str(cfg)]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: seed solution is ill-conditioned: min|g|/max|g| = 1.6e-15 "
        "<= 1e-12, with |g| = 1.000e+00 at y = 0.0 (node 0) and 6.125e+14 "
        "at y = 3.141592653589793 (node 200)"]


# lambda_1 of random_smooth_problem(3), Dirichlet: [DERIVED] by
# oracles.reference_eigenvalues
@pytest.mark.parametrize("builtin, first", [("degenerate", 1.0),
                                            ("random:3", 3.038978811992782)])
def test_builtin_problems_with_boundary(builtin, first, tmp_path, capsys):
    cfg = tmp_path / "builtin.ini"
    cfg.write_text(f"[problem]\nbuiltin = {builtin}\n{BOUNDARY}"
                   "[numerics]\ngrid = 201\n")
    assert main(["eigs", str(cfg), "--count", "3"]) == EXIT_OK
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["k"] for r in rows] == ["1", "2", "3"]
    assert float(rows[0]["lambda"]) == pytest.approx(first, abs=1e-9)


def test_output_section_and_default_count(deg_cfg, tmp_path, capsys):
    # [output] out names the CSV file; without --count or --omega-max the
    # search returns the first 10 eigenvalues
    out = tmp_path / "from_config.csv"
    deg_cfg.write_text(DEGENERATE_CFG + f"[output]\nout = {out}\n")
    assert main(["eigs", str(deg_cfg)]) == EXIT_OK
    assert f"eigenvalues: 10 written to {out}" in capsys.readouterr().out
    assert [r["k"] for r in read_rows(out)] == [str(k) for k in range(1, 11)]


def test_relative_cache_path_is_beside_the_config(deg_cfg, capsys):
    deg_cfg.write_text(DEGENERATE_CFG + "cache = coeffs.bin\n")
    assert main(["eigs", str(deg_cfg), "--count", "2"]) == EXIT_OK
    cache = deg_cfg.parent / "coeffs.bin"
    assert f"cache: {cache} (written)" in capsys.readouterr().err
    assert cache.exists()
    assert not deg_cfg.with_name(deg_cfg.name + ".nsbfc").exists()


def test_unwritable_cache_is_a_note(deg_cfg, capsys):
    deg_cfg.write_text(DEGENERATE_CFG + "cache = absent_dir/coeffs.bin\n")
    assert main(["eigs", str(deg_cfg), "--count", "2"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3
    assert "note: could not write cache:" in err
    assert not any(ln.startswith("error:") for ln in err.splitlines())


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


@pytest.mark.parametrize("key", ["p", "q", "r", "p_prime", "r_prime"])
def test_expression_error_names_its_key(key, tmp_path, capsys):
    entries = {"p": "1", "q": "0", "r": "1", "p_prime": "0", "r_prime": "0"}
    entries[key] = "1 $ 2"
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[problem]\na = 0\nb = 1\n" + "".join(
        f"{k} = {v}\n" for k, v in entries.items()))
    assert main(["coeffs", str(cfg)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: in {key} = '1 $ 2': unexpected character '$' (column 3)" \
        in err


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
    # a grid in the file that does not parse is named, as N is
    deg_cfg.write_text(DEGENERATE_CFG.replace("grid = 201", "grid = abc"))
    assert main(["coeffs", str(deg_cfg)]) == EXIT_INPUT
    _, err = capsys.readouterr()
    assert err.splitlines()[-1] == "error: grid must be an odd integer, got 'abc'"


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


KAMKE_EXPR_CFG = """\
[problem]
a = 0
b = 2
p = exp(-2*y)
q = -exp(-2*y)
r = (y^2 + 1)*exp(-2*y)
p_prime = -2*exp(-2*y)
r_prime = (2*y - 2*(y^2 + 1))*exp(-2*y)

[numerics]
grid = 201
"""


def test_derivative_keys_reach_the_transform(tmp_path):
    # p_prime and r_prime become SLProblem.p_prime / r_prime, and rho'
    # = rho (p'/p + r'/r) / 4 then equals the analytic value to rounding;
    # without them rho' falls back to finite differences (3e-11 off here)
    with_keys = tmp_path / "with.ini"
    with_keys.write_text(KAMKE_EXPR_CFG)
    without = tmp_path / "without.ini"
    without.write_text("".join(
        line for line in KAMKE_EXPR_CFG.splitlines(keepends=True)
        if "_prime" not in line
    ))
    cfg = load_config(with_keys)
    bare = load_config(without)
    assert bare.problem.p_prime is None and bare.problem.r_prime is None
    assert cfg.cache_key != bare.cache_key

    grid = Grid(0.0, 2.0, cfg.grid_m)
    y = grid.points
    np.testing.assert_allclose(cfg.problem.p_prime(y), -2.0 * np.exp(-2.0 * y),
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(cfg.problem.r_prime(y),
                               (2.0 * y - 2.0 * (y * y + 1.0))
                               * np.exp(-2.0 * y),
                               rtol=1e-15, atol=0)
    # rho = (p r)^(1/4) = (y^2 + 1)^(1/4) e^-y
    rho = (y * y + 1.0) ** 0.25 * np.exp(-y)
    exact = rho * (y / (2.0 * (y * y + 1.0)) - 1.0)
    err = np.abs(build_liouville(cfg.problem, grid).rho_prime - exact)
    assert np.max(err / np.abs(exact)) <= 4 * np.finfo(float).eps


def test_expression_and_file_are_exclusive(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("0,1\n0.5,1\n1,1\n")
    cfg = tmp_path / "dup.ini"
    cfg.write_text(
        "[problem]\na = 0\nb = 1\np = 1\np_file = p.csv\nq = 0\nr = 1\n"
    )
    assert main(["coeffs", str(cfg)]) == EXIT_INPUT
    assert "not both" in capsys.readouterr().err


def test_selftest_quick_passes(capsys):
    assert main(["selftest", "--quick"]) == EXIT_OK
    assert "10/10 criteria passed" in capsys.readouterr().out


def test_selftest_counts_a_crashed_check_as_failed(monkeypatch, capsys):
    # a check that raises is a failed check with the exception named, and
    # the run goes on to the next; the report goes to stdout by default
    def crashed(ctx):
        raise ZeroDivisionError("no spectrum")

    monkeypatch.setattr(selftest, "CRITERIA", [
        (1, "crashing check", crashed),
        (2, "passing check", lambda ctx: (True, "fine")),
    ])
    assert selftest.run_selftest(quick=True) is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "FAIL   1  crashing check: unexpected ZeroDivisionError: no spectrum",
        "PASS   2  passing check: fine",
    ]
    assert lines[2].startswith("self-test (quick): 1/2 criteria passed in ")


def test_selftest_fails_a_sweep_that_finds_too_few(monkeypatch, capsys):
    # the eigenvalue check fails by name when the sweep returns fewer
    # eigenvalues than it asked for, before it compares any with the
    # reference (stubbed here: its shooting takes seconds)
    find = SolutionEvaluator.find_eigenvalues

    def short(self, bc, count_hint):
        spec = find(self, bc, count_hint=count_hint)
        return Spectrum(*(col[:-1] for col in spec._columns))

    monkeypatch.setattr(SolutionEvaluator, "find_eigenvalues", short)
    monkeypatch.setattr(selftest, "reference_eigenvalues",
                        lambda prob, bc, count: np.zeros(count))
    monkeypatch.setattr(selftest, "CRITERIA", selftest.CRITERIA[:1])
    assert selftest.run_selftest(quick=True) is False
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("FAIL   1  ")
    assert line.endswith(": only 19 of 20 eigenvalues found")


def test_parse_complex_literal():
    assert parse_complex_literal("2") == 2.0
    assert parse_complex_literal("-1.5e-2") == -0.015
    assert parse_complex_literal("5+0.5i") == 5.0 + 0.5j
    assert parse_complex_literal("5 + 0.5i") == 5.0 + 0.5j
    assert parse_complex_literal("1i") == 1.0j
    assert parse_complex_literal("5+0.5j") == 5.0 + 0.5j
    # only the suffix is the imaginary unit: the i of inf is not
    assert parse_complex_literal("-inf") == -math.inf
    assert parse_complex_literal("1+infi") == complex(1.0, math.inf)
    # a literal without an imaginary unit is a float, one with it a complex
    for text in ("2", "-1.5e-2", "-inf", " 7 "):
        assert type(parse_complex_literal(text)) is float, text
    for text in ("5+0.5i", "1i", "5+0.5j", "2+0i", "3J"):
        assert type(parse_complex_literal(text)) is complex, text
    with pytest.raises(ValueError):
        parse_complex_literal("five")


def run_python(*args):
    """``python *args`` in a child process."""
    # The child imports the package these tests import, also when only
    # pytest's ``pythonpath`` setting (not PYTHONPATH) put it on sys.path.
    src = str(Path(nsbf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def run_module(*args):
    """``python -m nsbf.cli *args`` in a child process."""
    return run_python("-m", "nsbf.cli", *args)


def test_module_entry_point(deg_cfg, tmp_path):
    out = tmp_path / "e.csv"
    proc = run_module("eigs", deg_cfg, "--count", "2", "--out", out)
    assert proc.returncode == 0
    assert out.exists()


def test_solve_far_off_axis_omega_is_input_error(kamke_cfg):
    # Im(omega) l(B) ~ 1183 puts sin and cos of the Bessel arguments past
    # overflow; at ~704 the Bessel batch is still finite but the series
    # values near B are not.  Either run must stop with one error line, not
    # with overflow warnings, a traceback or nan in the table.
    for omega, reason in (("1+400i", "arccosh(DBL_MAX)"),
                          ("1+238i", "overflow at omega = (1+238j)")):
        proc = run_module("solve", kamke_cfg, "--omega", omega)
        assert proc.returncode == EXIT_INPUT
        lines = proc.stderr.splitlines()
        assert [ln for ln in lines if ln.startswith("error:")] == [lines[-1]]
        assert reason in lines[-1]
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_cold_run_loads_no_scipy(kamke_cfg, tmp_path):
    # The seed is integrated by the package's own DOP853, so a run that
    # builds the coefficients (no cache file yet) imports no scipy module,
    # nor the oracles' mpmath, for a builtin and for an expression problem;
    # nor fractions or decimal, which no step of the run needs.
    expr_cfg = tmp_path / "expr.ini"
    expr_cfg.write_text(
        "[problem]\na = 0\nb = 1\np = 1 + y\nq = y^2\nr = exp(y)\n"
        "[boundary]\na1 = 1\na2 = 0\nb1 = 1\nb2 = 0\n"
        "[numerics]\ngrid = 201\n"
    )
    child = (
        "import sys\n"
        "import nsbf.cli\n"
        "code = nsbf.cli.main(sys.argv[1:])\n"
        "heavy = [m for m in sys.modules if m.split('.')[0]\n"
        "         in ('scipy', 'mpmath', 'fractions', 'decimal')]\n"
        "assert not heavy, heavy\n"
        "sys.exit(code)\n"
    )
    for cfg in (kamke_cfg, expr_cfg):
        assert not cfg.with_name(cfg.name + ".nsbfc").exists()
        proc = run_python("-c", child, "eigs", cfg, "--count", "3")
        assert proc.returncode == 0, proc.stderr
        assert "(written)" in proc.stderr
        assert len(proc.stdout.splitlines()) == 4


def test_warm_run_loads_no_integrator(kamke_cfg, capsys):
    # A cache hit reads the seed from the cache, so neither the seed's
    # integrator (the package's own DOP853 or scipy's) nor the oracles'
    # mpmath is imported, by the module or by a warm eigenvalue run.
    assert main(["eigs", str(kamke_cfg), "--count", "3"]) == EXIT_OK
    cold = capsys.readouterr().out
    child = (
        "import sys\n"
        "import nsbf.cli\n"
        "heavy = ('nsbf.dop853', 'scipy.integrate', 'mpmath')\n"
        "assert not [m for m in heavy if m in sys.modules], 'import'\n"
        "code = nsbf.cli.main(sys.argv[1:])\n"
        "assert not [m for m in heavy if m in sys.modules], 'warm run'\n"
        "sys.exit(code)\n"
    )
    proc = run_python("-c", child, "eigs", kamke_cfg, "--count", "3")
    assert proc.returncode == 0, proc.stderr
    assert "(reused)" in proc.stderr
    assert proc.stdout == cold
