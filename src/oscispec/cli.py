"""Command-line interface.

Subcommands: solve, modes, sweep, verify, validate.  Problems come from a
built-in model name (--model, parameters via repeatable --param key=value)
or a JSON file (--problem).  Results go to CSV and/or JSON files that are
byte-identical across reruns of the same configuration.

Exit codes: 0 success (an empty spectrum is a valid answer), 1 configuration
error, 2 numerical failure (every lambda a solve evaluated failed, or an
error named no lambda), 3 verification deviation breach.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import models
from .errors import SolverError
from .oracle import (
    FDOracleConfig,
    closed_form_roots,
    fd_polynomial_eigenvalues,
    leading_frequencies,
)
from .problem import ProblemDefinition, validate as find_violations
from .serialize import load_problem
from .spectrum import SolveOptions, mode_shapes, resolve_step, solve_spectrum
from .spectrum import mode_shape  # noqa: F401  (perfbench/tracing.py wraps it by name)

#: default fixed integration step when neither --step nor --target-error given
DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-10
VERIFY_MAX_DEV = 2e-3
#: number of leading modes `verify` compares
VERIFY_MODES = 3


class ConfigError(Exception):
    """Bad command-line configuration (exit code 1)."""


@dataclass
class RunConfig:
    """Everything one invocation needs: problem source, search window,
    integration control, tolerances, outputs and the optional sweep."""

    model: str | None = None
    params: dict = field(default_factory=dict)
    problem_file: str | None = None
    scan: tuple[float, float, int] | None = None
    rect: tuple[float, float, float, float, int, int] | None = None
    step: float | None = None
    target_error: float | None = None
    tol: float = DEFAULT_TOL
    path: str = "complex"
    out_dir: Path = Path(".")
    fmt: str = "both"
    sweep: tuple[str, float, float, int] | None = None
    indices: tuple[int, ...] = ()
    max_dev: float = VERIFY_MAX_DEV
    n_fd: int = 400


# ---------------------------------------------------------------------------
# number formatting (pinned so reruns are byte-identical)
# ---------------------------------------------------------------------------


def _json_num(x: float) -> str:
    return f"{x:.17g}"


#: printf form of the CSV number format; `_csv_table` formats whole tables with it
_CSV_FMT = "%.10g"


def _csv_num(x: float) -> str:
    return _CSV_FMT % x


def _csv_text(text: str) -> str:
    """A text cell as RFC 4180 writes it: in double quotes, with each inner
    quote doubled, where it holds a comma, a quote or a line break; as it is
    otherwise."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(header: list[str], columns) -> str:
    """CSV text of equal-length float columns, one `_CSV_FMT` cell each.

    The columns are stacked and converted to Python floats in one call, and
    the rows are formatted with one `%` over the row pattern repeated once
    per row, which is what makes a mode file cheap; the header is put in
    front of that.  The cells are exactly those `_csv_num` gives.
    """
    table = np.column_stack(columns)
    row_fmt = ",".join([_CSV_FMT] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + (row_fmt * len(table)) % tuple(table.ravel().tolist())


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_param_value(text: str):
    if "," in text:
        return tuple(float(t) for t in text.split(",") if t != "")
    try:
        return float(text)
    except ValueError:
        return text


def _parse_colon_tuple(text: str, types, flag: str):
    parts = text.split(":")
    if len(parts) != len(types):
        raise ConfigError(f"{flag} expects {len(types)} colon-separated values, got {text!r}")
    try:
        return tuple(t(p) for t, p in zip(types, parts))
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _add_source_args(sub):
    sub.add_argument("--model", help="built-in model name")
    sub.add_argument("--problem", help="JSON problem file")
    sub.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="model parameter override (repeatable; comma lists allowed)",
    )


def _add_solve_args(sub):
    sub.add_argument("--scan", metavar="MIN:MAX:N", help="real-frequency scan window")
    sub.add_argument(
        "--rect",
        metavar="RE0:RE1:IM0:IM1:NR:NI",
        help="complex search rectangle of Newton seeds",
    )
    sub.add_argument(
        "--step",
        type=float,
        help="fixed step: the RK4 step on y-varying intervals and N != 2 systems, and the "
        "mode-shape sample spacing (constant N = 2 intervals are propagated exactly)",
    )
    sub.add_argument(
        "--target-error", type=float, help="derive the step from this RK4 local error (see --step)"
    )
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL, help="root tolerance")
    sub.add_argument(
        "--path",
        choices=("complex", "real_split"),
        default="complex",
        help="reduction path",
    )
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--format", choices=("csv", "json", "both"), default="both")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, and --param's append action copies its default list."""
    parser = argparse.ArgumentParser(
        prog="oscispec",
        description="Eigenvalues and mode shapes of piecewise 1-D oscillation systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="scan and refine the spectrum")
    _add_source_args(p_solve)
    _add_solve_args(p_solve)

    p_modes = subs.add_parser("modes", help="write mode-shape CSV files")
    _add_source_args(p_modes)
    _add_solve_args(p_modes)
    p_modes.add_argument(
        "--indices", default="1", metavar="I,J,...", help="1-based root indices"
    )

    p_sweep = subs.add_parser("sweep", help="solve across a parameter range")
    _add_source_args(p_sweep)
    _add_solve_args(p_sweep)
    p_sweep.add_argument(
        "--sweep", required=True, metavar="NAME:MIN:MAX:COUNT", help="sweep descriptor"
    )

    p_verify = subs.add_parser("verify", help="compare solver against its oracle")
    p_verify.add_argument("model", help="built-in model name")
    p_verify.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p_verify.add_argument("--max-dev", type=float, default=VERIFY_MAX_DEV)
    p_verify.add_argument(
        "--n-fd", type=int, default=400, help="grid cells of the finite-difference oracle"
    )

    p_val = subs.add_parser("validate", help="report model violations")
    _add_source_args(p_val)

    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "model", None) and getattr(args, "problem", None):
        raise ConfigError("give either --model or --problem, not both")
    cfg.model = getattr(args, "model", None)
    cfg.problem_file = getattr(args, "problem", None)
    if cfg.model is None and cfg.problem_file is None:
        raise ConfigError("a problem source is required: --model NAME or --problem FILE")
    for item in getattr(args, "param", []):
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        cfg.params[key] = _parse_param_value(value)
    if getattr(args, "scan", None):
        lo, hi, n = _parse_colon_tuple(args.scan, (float, float, int), "--scan")
        if not (np.isfinite([lo, hi]).all() and lo < hi) or n < 2:
            raise ConfigError("--scan needs finite MIN < MAX and N >= 2")
        cfg.scan = (lo, hi, n)
    if getattr(args, "rect", None):
        cfg.rect = _parse_colon_tuple(
            args.rect, (float, float, float, float, int, int), "--rect"
        )
        if not np.isfinite(cfg.rect[:4]).all() or min(cfg.rect[4:]) < 1:
            raise ConfigError("--rect needs finite corners, NR >= 1 and NI >= 1")
    cfg.step = getattr(args, "step", None)
    cfg.target_error = getattr(args, "target_error", None)
    if cfg.step is not None and cfg.target_error is not None:
        raise ConfigError("give --step or --target-error, not both")
    cfg.tol = getattr(args, "tol", DEFAULT_TOL)
    cfg.max_dev = getattr(args, "max_dev", VERIFY_MAX_DEV)
    for flag, value in (("--step", cfg.step), ("--target-error", cfg.target_error),
                        ("--tol", cfg.tol), ("--max-dev", cfg.max_dev)):
        # written so that NaN fails too
        if value is not None and not value > 0:
            raise ConfigError(f"{flag} must be positive")
    cfg.path = getattr(args, "path", "complex")
    cfg.out_dir = Path(getattr(args, "out", "."))
    cfg.fmt = getattr(args, "format", "both")
    cfg.n_fd = getattr(args, "n_fd", cfg.n_fd)
    if getattr(args, "sweep", None):
        name, lo, hi, count = _parse_colon_tuple(
            args.sweep, (str, float, float, int), "--sweep"
        )
        if count < 1:
            raise ConfigError("--sweep COUNT must be >= 1")
        cfg.sweep = (name, lo, hi, count)
    if getattr(args, "indices", None) is not None:
        try:
            cfg.indices = tuple(int(t) for t in args.indices.split(","))
        except ValueError:
            raise ConfigError(f"--indices expects integers, got {args.indices!r}") from None
        if min(cfg.indices) < 1:
            raise ConfigError(f"--indices are 1-based, got {args.indices!r}")
    return cfg


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def _build(model: str, params: dict) -> ProblemDefinition:
    """A built-in model; a parameter value it rejects, out of range or of
    the wrong type, is a ConfigError."""
    try:
        return models.build_model(model, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _load(cfg: RunConfig, validate: bool = True) -> ProblemDefinition:
    """Build the problem from --model/--param or --problem; with `validate`,
    a problem that fails validation is a ConfigError."""
    if cfg.problem_file is not None:
        if cfg.params:
            raise ConfigError("--param applies to built-in models only")
        try:
            problem = load_problem(cfg.problem_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load problem file: {exc}") from None
    else:
        problem = _build(cfg.model, cfg.params)
    if not validate:
        return problem
    violations = find_violations(problem)
    if violations:
        raise ConfigError(
            "problem fails validation:\n  " + "\n  ".join(violations)
        )
    return problem


def _solve_options(cfg: RunConfig) -> SolveOptions:
    if cfg.scan is None and cfg.rect is None:
        raise ConfigError("nothing to search: give --scan and/or --rect")
    opts = SolveOptions(scan=cfg.scan, rect=cfg.rect, tol=cfg.tol, path=cfg.path)
    if cfg.step is not None:
        opts.step = cfg.step
    elif cfg.target_error is not None:
        opts.target_error = cfg.target_error
        opts.step = None
    else:
        opts.step = DEFAULT_STEP
    return opts


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _write_spectrum(results, cfg: RunConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.fmt in ("json", "both"):
        lines = ["["]
        for i, r in enumerate(results):
            sep = "," if i < len(results) - 1 else ""
            lines.append(
                "  {"
                + f'"re": {_json_num(r.lam.real)}, "im": {_json_num(r.lam.imag)}, '
                + f'"residual": {_json_num(r.residual)}, "iterations": {r.iterations}'
                + "}" + sep
            )
        lines.append("]")
        (cfg.out_dir / "spectrum.json").write_text("\n".join(lines) + "\n")
    if cfg.fmt in ("csv", "both"):
        columns = [
            [r.lam.real for r in results],
            [r.lam.imag for r in results],
            [r.residual for r in results],
        ]
        (cfg.out_dir / "spectrum.csv").write_text(
            _csv_table(["re", "im", "residual"], columns)
        )


def _write_mode(shape, index: int, cfg: RunConfig) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    values = shape.values
    dim = values.shape[1]
    complex_cols = not np.isrealobj(values) and bool(np.max(np.abs(values.imag)) > 1e-12)
    header = ["y"] + [f"comp_{k + 1}" for k in range(dim)]
    columns = [shape.ys, values.real]
    if complex_cols:
        header += [f"im_comp_{k + 1}" for k in range(dim)]
        columns.append(values.imag)
    path = cfg.out_dir / f"mode_{index:03d}.csv"
    path.write_text(_csv_table(header, columns))
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: RunConfig) -> int:
    problem = _load(cfg)
    opts = _solve_options(cfg)
    results = solve_spectrum(problem, opts)
    _write_spectrum(results, cfg)
    print(f"{problem.name}: {len(results)} root(s) -> {cfg.out_dir}")
    return 0


def cmd_modes(cfg: RunConfig) -> int:
    problem = _load(cfg)
    opts = _solve_options(cfg)
    results = solve_spectrum(problem, opts)
    step = resolve_step(problem, opts)
    for index in cfg.indices:
        if index > len(results):
            raise ConfigError(
                f"--indices: mode index {index} out of range: {len(results)} root(s) found"
            )
    lams = [results[index - 1].lam for index in cfg.indices]
    for index, shape in zip(cfg.indices, mode_shapes(problem, lams, step, cfg.path)):
        path = _write_mode(shape, index, cfg)
        print(f"mode {index} at lambda={shape.lam:.6g} -> {path}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.model is None:
        raise ConfigError("sweep requires a built-in model (--model)")
    name, lo, hi, count = cfg.sweep
    defaults = models.model_defaults(cfg.model)
    if name not in defaults:
        raise ConfigError(
            f"model {cfg.model!r} has no parameter {name!r}; accepted: {sorted(defaults)}"
        )
    opts = _solve_options(cfg)
    values = np.linspace(lo, hi, count)
    rows = ["param_value,root_index,re,im,status"]
    for value in values:
        params = dict(cfg.params)
        params[name] = float(value)
        try:
            results = solve_spectrum(_build(cfg.model, params), opts)
        except (ConfigError, ValueError, SolverError) as exc:
            rows.append(f"{_csv_num(float(value))},,,,{_csv_text(f'error: {exc}')}")
            continue
        if not results:
            rows.append(f"{_csv_num(float(value))},,,,empty")
        for i, r in enumerate(results):
            rows.append(
                f"{_csv_num(float(value))},{i + 1},"
                f"{_csv_num(r.lam.real)},{_csv_num(r.lam.imag)},ok"
            )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "sweep.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"swept {cfg.model}.{name} over {count} value(s) -> {path}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.model not in models.ORACLE_ROUTES:
        raise ConfigError(f"model {cfg.model!r} has no oracle route")
    try:
        fd_config = FDOracleConfig(cfg.n_fd)
    except ValueError as exc:
        raise ConfigError(f"--n-fd: {exc}") from None
    problem = _load(cfg)
    scan = models.SCAN_DEFAULTS[cfg.model]
    results = solve_spectrum(
        problem, SolveOptions(scan=scan, step=DEFAULT_STEP, tol=1e-12)
    )
    solver_lams = [r.lam for r in results[:VERIFY_MODES]]

    route = models.ORACLE_ROUTES[cfg.model]
    if route == "fd":
        try:
            eigs = fd_polynomial_eigenvalues(problem, fd_config, count=VERIFY_MODES)
        except ValueError as exc:
            raise ConfigError(f"--n-fd: {exc}") from None
        oracle_lams = [complex(e) for e in leading_frequencies(eigs, VERIFY_MODES)]
        route_name = f"finite differences (n_fd={cfg.n_fd})"
    else:
        params = problem.params
        roots = closed_form_roots(
            route,
            scan[0],
            scan[1],
            rho=params["rho"],
            tension=params["T"],
            length=params["l"],
            mass=params.get("m0", 1.0),
            position=params.get("position", 0.5),
        )
        oracle_lams = [1j * p for p in roots[:VERIFY_MODES]]
        route_name = "closed form"

    print(f"model {cfg.model}: solver vs {route_name}")
    print("mode  solver_re      solver_im      oracle_re      oracle_im      rel_dev    sign")
    ok = len(solver_lams) == VERIFY_MODES and len(oracle_lams) == VERIFY_MODES
    for i in range(min(len(solver_lams), len(oracle_lams))):
        s, o = solver_lams[i], oracle_lams[i]
        dev = abs(abs(s) - abs(o)) / abs(o)
        sign_ok = _sign_agrees(s.real, o.real, abs(o))
        ok = ok and dev < cfg.max_dev and sign_ok
        print(
            f"{i + 1:4d}  {s.real:13.6e}  {s.imag:13.6e}  {o.real:13.6e}  "
            f"{o.imag:13.6e}  {dev:.3e}  {'ok' if sign_ok else 'MISMATCH'}"
        )
    for name, lams in (("solver", solver_lams), ("oracle", oracle_lams)):
        if len(lams) < VERIFY_MODES:
            print(f"{name} found {len(lams)} of {VERIFY_MODES} modes")
    if not ok:
        print(f"verification FAILED (max allowed deviation {cfg.max_dev:g})")
        return 3
    print(f"all deviations below {cfg.max_dev:g}")
    return 0


def _sign_agrees(a: float, b: float, scale: float) -> bool:
    neutral = 1e-9 * max(scale, 1.0)
    if abs(a) < neutral and abs(b) < neutral:
        return True
    return np.sign(a) == np.sign(b)


def cmd_validate(cfg: RunConfig) -> int:
    problem = _load(cfg, validate=False)
    violations = find_violations(problem)
    if violations:
        print(f"{problem.name}: {len(violations)} violation(s)")
        for v in violations:
            print(f"  - {v}")
        return 1
    print(f"{problem.name}: valid")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "modes":
            return cmd_modes(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
