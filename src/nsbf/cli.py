"""Command-line front end.

Subcommands
-----------
``nsbf coeffs CONFIG``
    Build (or reuse) the coefficient cache and print the verification
    report: residual-vs-M table, selected N, cleanup cut points.
``nsbf eigs CONFIG [--count K | --omega-max W]``
    Eigenvalue sweep; one CSV row per eigenvalue of the solver's
    ``Spectrum``, columns ``k, omega, lambda, residual``
    (``char_residual``), 17 significant digits.
``nsbf solve CONFIG --omega W [--u0 A --up0 B] [--check]``
    Initial-value solve; dense CSV table ``y, u, uprime`` at every grid
    node, optionally with a reference-comparison column.
``nsbf selftest [--quick]``
    Run the built-in verification suite and report per-criterion results.

Config files are flat ``key = value`` text (``#``/``;`` comments):

``[problem]`` (required)
    ``builtin = degenerate | kamke | random:<seed>``, or ``a``, ``b`` and
    each of ``p``, ``q``, ``r`` as an expression in ``y`` or as a
    ``p_file``/``q_file``/``r_file`` of ``y, value`` rows (at least 4,
    increasing ``y``, covering [a, b]; paths relative to the config).
    Optional ``p_prime``, ``r_prime``: derivative expressions.
``[boundary]``
    ``a1, a2, b1, b2``: ``a1 v(A) + a2 v'(A) = 0``,
    ``b1 v(B) + b2 v'(B) = 0``; overrides a builtin's own pair.
``[numerics]``
    ``grid`` (odd, >= 201; default 2001), ``N`` (order, or ``auto`` =
    N_opt, the default), ``cache`` (default ``<config>.nsbfc``).
``[output]``
    ``out``: CSV path (default stdout).

``--grid``, ``--N`` and ``--out`` override the file.

The cache holds the coefficients together with the seed solution they were
built from, so a run that finds a matching cache integrates nothing: it
transforms the problem, loads the set and evaluates.  A run that builds
integrates the seed with the package's own DOP853, so neither run loads
scipy (imported only for tabulated ``*_file`` coefficients and by the
reference oracles) or mpmath.  The cache file stores its arrays
uncompressed behind a SHA-256 of them; a file whose digest does not match
is reported on stderr and recomputed, like any other unusable cache.

Exit codes: 0 success, 1 numerical failure, 2 input error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .coefficients import (
    DEFAULT_N,
    CoefficientSet,
    build_coefficients,
    load_coefficients,
    problem_cache_key,
    save_coefficients,
)
from .errors import (
    CacheError,
    ExpressionError,
    NsbfError,
    OracleError,
    RecurrenceError,
    SeedError,
)
from .expressions import parse_expression
from .grid import Grid
from .liouville import SLProblem, build_liouville
from .oracles import (
    degenerate_problem,
    integrate_reference,
    kamke_problem,
    random_smooth_problem,
)
from .seed import compute_seed
from .solver import BoundarySpec, SolutionEvaluator

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2

#: Smallest grid the command line accepts (the library itself allows >= 7).
MIN_CLI_GRID = 201


class ConfigError(NsbfError, ValueError):
    """Malformed or incomplete configuration."""


def _fmt(x: float) -> str:
    """Fixed CSV number format: 17 significant digits, C locale."""
    return format(float(x), ".17g")


def parse_complex_literal(text: str) -> float | complex:
    """Parse ``a+bi`` (or ``a+bj``) literals as ``complex``; a literal with
    no imaginary unit stays a ``float``.  Only a trailing ``i`` is the
    imaginary unit, so ``inf`` parses too."""
    cleaned = text.strip().replace(" ", "")
    cleaned = cleaned[:-1] + "j" if cleaned.endswith("i") else cleaned
    try:
        return complex(cleaned) if "j" in cleaned.lower() else float(cleaned)
    except ValueError as exc:
        raise ConfigError(
            f"cannot parse {text!r} as a real or a+bi complex literal"
        ) from exc


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from file + flags."""

    problem: SLProblem
    bc: Optional[BoundarySpec]
    grid_m: int
    n_request: Optional[int]  # None means "auto" (use N_opt)
    build_n: int
    out: Optional[str]
    cache_path: Path
    cache_key: bytes


def _load_table(path: Path):
    """Load a two-column (y, value) sample file and return cubic splines."""
    from scipy.interpolate import CubicSpline

    if not path.exists():
        raise ConfigError(f"sample file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    delim = "," if "," in first else None
    try:
        table = np.loadtxt(path, delimiter=delim, ndmin=2)
    except Exception as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    if table.shape[1] < 2 or table.shape[0] < 4:
        raise ConfigError(
            f"sample file {path} needs >= 4 rows of (y, value) pairs"
        )
    bad = ~np.all(np.isfinite(table[:, :2]), axis=1)
    if np.any(bad):
        raise ConfigError(f"sample file {path}: data row "
                          f"{int(np.argmax(bad)) + 1} is not finite")
    ys, vals = table[:, 0], table[:, 1]
    if np.any(np.diff(ys) <= 0):
        raise ConfigError(f"sample file {path}: y column must be increasing")
    spline = CubicSpline(ys, vals)
    return spline, spline.derivative(), float(ys[0]), float(ys[-1])


def _builtin_problem(tag: str) -> SLProblem:
    name = tag.strip().lower()
    if name == "degenerate":
        return degenerate_problem()
    if name == "kamke":
        return kamke_problem()
    if name.startswith("random:"):
        try:
            seed = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad random seed in builtin = {tag!r}") from exc
        if seed < 0:
            raise ConfigError(f"bad random seed in builtin = {tag!r}: "
                              "it must be a non-negative integer")
        return random_smooth_problem(seed)
    raise ConfigError(
        f"unknown builtin problem {tag!r} "
        "(available: degenerate, kamke, random:<seed>)"
    )


def _parse_entry(key: str, text: str):
    """``parse_expression(text)``, naming ``key`` in a parse error."""
    try:
        return parse_expression(text)
    except ExpressionError as exc:
        # args[0] already carries the "(column N)" suffix.
        err = ExpressionError(f"in {key} = {text!r}: {exc.args[0]}")
        err.column = exc.column
        raise err from exc


def _coefficient_entry(section, key: str, base: Path, parts: list):
    """Resolve one of p/q/r from an expression or a sample file.

    Returns ``(callable, derivative_or_None, y_lo, y_hi)`` where the range
    is only constrained by tabulated data.
    """
    expr_text = section.get(key)
    file_text = section.get(f"{key}_file")
    if expr_text is not None and file_text is not None:
        raise ConfigError(f"give either {key} or {key}_file, not both")
    if expr_text is not None:
        fn = _parse_entry(key, expr_text)
        parts.append(f"{key}:expr:{expr_text.strip()}")
        return fn, None, -np.inf, np.inf
    if file_text is not None:
        path = (base / file_text).resolve() if not Path(file_text).is_absolute() else Path(file_text)
        spline, dspline, lo, hi = _load_table(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        parts.append(f"{key}:file:{digest}")
        return spline, dspline, lo, hi
    raise ConfigError(f"[problem] is missing {key} (or {key}_file)")


def load_config(path, grid_override=None, n_override=None, out_override=None) -> RunConfig:
    """Read a config file and apply command-line overrides."""
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise ConfigError(f"config file not found: {cfg_path}")
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(cfg_path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        # configparser's messages span lines; the error stays on one
        detail = "; ".join(str(exc).splitlines())
        raise ConfigError(f"cannot parse config: {detail}") from exc

    if "problem" not in parser:
        raise ConfigError("config needs a [problem] section")
    prob_sec = parser["problem"]
    key_parts: list = []

    if prob_sec.get("builtin"):
        problem = _builtin_problem(prob_sec["builtin"])
        key_parts.append(f"builtin:{problem.name}")
    else:
        try:
            a = float(prob_sec["a"])
            b = float(prob_sec["b"])
        except KeyError as exc:
            raise ConfigError(
                "[problem] needs a and b (or builtin = <name>)"
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"bad interval endpoint: {exc}") from exc
        if not b > a:
            raise ConfigError(f"need b > a, got [{a}, {b}]")
        key_parts.append(f"interval:{a!r}:{b!r}")
        p, dp, plo, phi = _coefficient_entry(prob_sec, "p", cfg_path.parent, key_parts)
        q, _, qlo, qhi = _coefficient_entry(prob_sec, "q", cfg_path.parent, key_parts)
        r, dr, rlo, rhi = _coefficient_entry(prob_sec, "r", cfg_path.parent, key_parts)
        lo = max(plo, qlo, rlo)
        hi = min(phi, qhi, rhi)
        if a < lo or b > hi:
            raise ConfigError(
                f"tabulated data covers [{lo:g}, {hi:g}] but the problem "
                f"interval is [{a:g}, {b:g}]"
            )
        # Optional analytic derivatives (expressions only); tabulated
        # coefficients use their spline derivative automatically.
        p_prime = dp
        r_prime = dr
        if prob_sec.get("p_prime"):
            p_prime = _parse_entry("p_prime", prob_sec["p_prime"])
            key_parts.append(f"p_prime:{prob_sec['p_prime'].strip()}")
        if prob_sec.get("r_prime"):
            r_prime = _parse_entry("r_prime", prob_sec["r_prime"])
            key_parts.append(f"r_prime:{prob_sec['r_prime'].strip()}")
        problem = SLProblem(
            a=a, b=b, p=p, q=q, r=r,
            p_prime=p_prime, r_prime=r_prime, name="config",
        )

    bc = problem.bc if isinstance(problem.bc, BoundarySpec) else None
    if "boundary" in parser:
        bsec = parser["boundary"]
        try:
            quad = [float(bsec[k]) for k in ("a1", "a2", "b1", "b2")]
        except KeyError as exc:
            raise ConfigError(f"[boundary] needs a1, a2, b1, b2: missing {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad boundary value: {exc}") from exc
        try:
            bc = BoundarySpec(*quad)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    num_sec = parser["numerics"] if "numerics" in parser else {}
    grid_text = grid_override if grid_override is not None else num_sec.get("grid", 2001)
    try:
        grid_m = int(grid_text)
    except ValueError as exc:
        raise ConfigError(f"grid must be an odd integer, got {grid_text!r}") from exc
    if grid_m < MIN_CLI_GRID or grid_m % 2 == 0:
        raise ConfigError(
            f"grid must be odd and >= {MIN_CLI_GRID}, got {grid_m}"
        )
    n_text = str(n_override if n_override is not None else num_sec.get("N", "auto"))
    if n_text.strip().lower() == "auto":
        n_request = None
    else:
        try:
            n_request = int(n_text)
        except ValueError as exc:
            raise ConfigError(f"N must be an integer or 'auto', got {n_text!r}") from exc
        if n_request < 0:
            raise ConfigError(f"N must be >= 0, got {n_request}")
    build_n = DEFAULT_N if n_request is None else max(n_request, DEFAULT_N)

    out = out_override
    if out is None and "output" in parser:
        out = parser["output"].get("out")

    cache_name = num_sec.get("cache") if num_sec else None
    cache_path = (
        Path(cache_name)
        if cache_name
        else cfg_path.with_name(cfg_path.name + ".nsbfc")
    )
    if cache_name and not cache_path.is_absolute():
        cache_path = cfg_path.parent / cache_path

    key_parts.append(f"m:{grid_m}")
    key_parts.append(f"N:{build_n}")
    cache_key = problem_cache_key("|".join(key_parts))
    return RunConfig(
        problem=problem,
        bc=bc,
        grid_m=grid_m,
        n_request=n_request,
        build_n=build_n,
        out=out,
        cache_path=cache_path,
        cache_key=cache_key,
    )


def prepare(cfg: RunConfig):
    """Transformation data and coefficients (with their seed), reusing the
    cache.

    The Liouville transform runs every time (it validates the problem, and
    the evaluator reads its samples); the seed and the coefficients come
    from the cache when it matches, and are computed only on a miss.
    """
    grid = Grid(cfg.problem.a, cfg.problem.b, cfg.grid_m)
    data = build_liouville(cfg.problem, grid)
    coeffs: Optional[CoefficientSet] = None
    cached = False
    if cfg.cache_path.exists():
        try:
            coeffs = load_coefficients(cfg.cache_path, cfg.cache_key)
            cached = True
        except CacheError as exc:
            print(f"note: ignoring cache ({exc}); recomputing", file=sys.stderr)
    if coeffs is None:
        seed = compute_seed(cfg.problem, data)
        coeffs = build_coefficients(data, seed, N=cfg.build_n)
        try:
            save_coefficients(coeffs, cfg.cache_path, cfg.cache_key)
        except OSError as exc:
            print(f"note: could not write cache: {exc}", file=sys.stderr)
    state = "reused" if cached else "written"
    print(f"cache: {cfg.cache_path} ({state})", file=sys.stderr)
    return data, coeffs


def _write_csv(out: Optional[str], header: list, rows) -> None:
    """Emit CSV with fixed formatting; bytes are stable across runs."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(row) + "\n"
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> int:
    cfg = load_config(args.config, args.grid, args.N, args.out)
    data, coeffs = prepare(cfg)
    rep = coeffs.report
    worst = rep.residuals.max(axis=1)
    print(f"problem: {cfg.problem.name or 'config'}")
    print(f"grid: {cfg.grid_m} nodes on [{data.grid.a:g}, {data.grid.b:g}]")
    print(f"transformed length: {data.b:.12g}")
    print(f"built order N = {coeffs.N}, selected N_opt = {coeffs.N_opt}")
    print(f"identity-residual floor: {rep.floor:.3e}")
    print(f"residual at N_opt: {worst[coeffs.N_opt]:.3e}")
    print(
        "largest cleanup cut: alpha "
        f"{coeffs.cut_alpha.max():.4g}, mu {coeffs.cut_mu.max():.4g}"
    )
    header = [
        "M",
        "alpha_sum",
        "alpha_alternating",
        "mu_sum",
        "mu_alternating",
        "worst",
        "window_start",
        "cut_alpha",
        "cut_mu",
    ]
    rows = []
    for M in range(coeffs.N + 1):
        rows.append(
            [str(M)]
            + [_fmt(rep.residuals[M, j]) for j in range(4)]
            + [_fmt(worst[M]), _fmt(rep.window_start[M]),
               _fmt(coeffs.cut_alpha[M]), _fmt(coeffs.cut_mu[M])]
        )
    _write_csv(cfg.out, header, rows)
    if cfg.out:
        print(f"report: {cfg.out}")
    return EXIT_OK


def cmd_eigs(args) -> int:
    cfg = load_config(args.config, args.grid, args.N, args.out)
    if cfg.bc is None:
        raise ConfigError(
            "eigenvalue runs need boundary conditions "
            "([boundary] section or a builtin that carries them)"
        )
    if args.count is not None and args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    header = ["k", "omega", "lambda", "residual"]
    if args.omega_max is not None and args.omega_max <= 0.0:
        _write_csv(cfg.out, header, [])
        return EXIT_OK
    data, coeffs = prepare(cfg)
    ev = SolutionEvaluator(coeffs, data, coeffs.seed, N=cfg.n_request)
    count = args.count
    if count is None and args.omega_max is None:
        count = 10
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = ev.find_eigenvalues(
            cfg.bc, omega_max=args.omega_max, count_hint=count
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    rows = [
        [str(k), _fmt(omega), _fmt(lam), _fmt(res)]
        for k, omega, lam, res in zip(
            results.k.tolist(), results.omega.tolist(),
            results.lam.tolist(), results.char_residual.tolist())
    ]
    _write_csv(cfg.out, header, rows)
    if cfg.out:
        print(f"eigenvalues: {len(results)} written to {cfg.out}")
    if args.strict and caught:
        print("error: warnings escalated by --strict", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.grid, args.N, args.out)
    omega = parse_complex_literal(args.omega)
    u0 = parse_complex_literal(args.u0)
    up0 = parse_complex_literal(args.up0)
    data, coeffs = prepare(cfg)
    ev = SolutionEvaluator(coeffs, data, coeffs.seed, N=cfg.n_request)
    u, uprime = ev.solve_ivp(omega, u0, up0)
    pts = data.grid.points
    is_complex = np.iscomplexobj(u) or np.iscomplexobj(uprime)
    if is_complex:
        u = np.asarray(u, dtype=np.complex128)
        uprime = np.asarray(uprime, dtype=np.complex128)
        header = ["y", "u_re", "u_im", "uprime_re", "uprime_im"]
        cols = [pts, u.real, u.imag, uprime.real, uprime.imag]
    else:
        header = ["y", "u", "uprime"]
        cols = [pts, u, uprime]
    if args.check:
        ref = integrate_reference(
            cfg.problem, omega ** 2, u0, up0, tol=1e-12, grid=data.grid
        )
        err = np.abs(np.asarray(u) - ref.u)
        header.append("check_abs_err")
        cols.append(err)
        summary = f"check: max |u - reference| = {np.max(err):.6e}"
        print(summary, file=sys.stdout if cfg.out else sys.stderr)
    rows = [
        [_fmt(col[i]) for col in cols] for i in range(pts.size)
    ]
    _write_csv(cfg.out, header, rows)
    if cfg.out:
        print(f"solution table: {pts.size} rows written to {cfg.out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(quick=args.quick, stream=sys.stdout)
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nsbf",
        description=(
            "Sturm-Liouville solutions and spectra via Neumann series of "
            "Bessel functions"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("config", help="problem config file (INI-style)")
        p.add_argument("--grid", type=int, default=None,
                       help="override grid size (odd, >= 201)")
        p.add_argument("--N", default=None,
                       help="series truncation order or 'auto'")
        if with_out:
            p.add_argument("--out", default=None,
                           help="output CSV path (default: stdout)")

    p_coeffs = sub.add_parser(
        "coeffs", help="build coefficients and print the verification report"
    )
    add_common(p_coeffs)
    p_coeffs.set_defaults(fn=cmd_coeffs)

    p_eigs = sub.add_parser("eigs", help="compute eigenvalues")
    add_common(p_eigs)
    p_eigs.add_argument("--count", type=int, default=None,
                        help="how many eigenvalues (default 10)")
    p_eigs.add_argument("--omega-max", type=float, default=None,
                        dest="omega_max",
                        help="scan limit in omega instead of a count")
    p_eigs.add_argument("--strict", action="store_true",
                        help="escalate count-mismatch warnings to exit 1")
    p_eigs.set_defaults(fn=cmd_eigs)

    p_solve = sub.add_parser("solve", help="solve an initial-value problem")
    add_common(p_solve)
    p_solve.add_argument("--omega", required=True,
                         help="square root of the spectral parameter; "
                              "real or a+bi")
    p_solve.add_argument("--u0", default="1", help="u(A) (default 1)")
    p_solve.add_argument("--up0", default="0", help="u'(A) (default 0)")
    p_solve.add_argument("--check", action="store_true",
                         help="add a reference-comparison column")
    p_solve.set_defaults(fn=cmd_solve)

    p_self = sub.add_parser("selftest", help="run the verification suite")
    p_self.add_argument("--quick", action="store_true",
                        help="reduced eigenvalue count, <5 s")
    p_self.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SeedError, RecurrenceError, OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        # every input error class (ConfigError, ExpressionError, GridError,
        # PositivityError, NonFiniteError, CacheError) is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
