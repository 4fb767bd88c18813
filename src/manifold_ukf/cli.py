"""Command-line interface: run one filter, benchmark variants, check retractions.

Exit codes: 0 on success, 1 for usage or configuration problems (a
missing input file or an unwritable output included), 2 when a filter run
fails numerically (divergence).  main() alone turns an exception into one
stderr line and an exit code.

CSV conventions: floats are written with repr(), which round-trips exactly
through float(); every output is therefore byte-reproducible from the same
arguments, except for the wall_clock_s column of benchmark files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import ManifoldUkfError
from .models import LandmarkSet, example_names, make
from .montecarlo import _scored, benchmark, simulate
from .retraction import check_retraction
from .sigma_core import Belief

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2

IMU_LOG_HEADER = "t,wx,wy,wz,ax,ay,az,gnss_x,gnss_y,gnss_z,gnss_valid"


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    """Shortest decimal that round-trips through float()."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# File formats


def _estimate_lines(model, retraction, steps, times):
    """The estimates CSV, one line per (belief, error, nees) step of _scored."""
    yield ",".join(["step", "t"] + list(model.state_labels)
                   + [f"P{i}" for i in range(retraction.dim)] + ["nees"])
    for step, (belief, _, value) in enumerate(steps, 1):
        row = [str(step), _fmt(times[step - 1])]
        row += [_fmt(v) for v in model.state_to_vector(belief.mean)]
        row += [_fmt(v) for v in np.diag(belief.cov)]
        row.append(_fmt(value))
        yield ",".join(row)


def _csv_lines(path):
    """(line number, cells) of each line of a comma-separated file that is
    neither blank nor a # comment; every row must have as many cells as the
    first, else UsageError naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, line.rstrip("\n").split(","))
                 for n, line in enumerate(fh, start=1)
                 if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise UsageError(f"{path} is empty")
    width = len(lines[0][1])
    for n, cells in lines:
        if len(cells) != width:
            raise UsageError(f"{path}, line {n}: expected {width} cells")
    return lines


def _floats(path, n, cells):
    """The cells of line n as finite floats, or UsageError naming the line."""
    try:
        values = [float(c) for c in cells]
    except ValueError as exc:
        raise UsageError(f"{path}, line {n}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{path}, line {n}: cells must be finite numbers")
    return values


def write_benchmark_csv(path, report) -> None:
    rmse_cols = [f"rmse_{lbl}" for lbl, _ in report.blocks]
    header = (["retraction", "step", "t"] + rmse_cols
              + ["mean_nees", "diverged", "valid_runs", "wall_clock_s"])
    lines = [",".join(header)]
    for flt in report.filters:
        for i in range(report.steps):
            row = [flt.name, str(i + 1), _fmt(report.times[i])]
            row += [_fmt(flt.rmse[lbl][i]) for lbl, _ in report.blocks]
            row += [_fmt(flt.mean_nees[i]), str(flt.diverged),
                    str(flt.valid_runs), _fmt(flt.wall_clock_s)]
            lines.append(",".join(row))
    _write_text(path, lines)


def read_imu_log(path):
    """Returns (times, inputs, measurements) in filter_run's conventions;
    every row must be full and numeric."""
    (_, header), *body = _csv_lines(path)
    if header != IMU_LOG_HEADER.split(","):
        raise UsageError(f"IMU log must have header {IMU_LOG_HEADER!r}, got {header}")
    rows = np.reshape([_floats(path, n, cells) for n, cells in body], (-1, 11))
    measurements = {i + 1: row[7:10] for i, row in enumerate(rows) if row[10] != 0}
    return rows[:, 0], rows[:, 1:7], measurements


def read_landmarks(path) -> LandmarkSet:
    """One landmark per line, comma-separated coordinates."""
    return LandmarkSet(np.array([_floats(path, n, cells)
                                 for n, cells in _csv_lines(path)]))


def _write_text(path, lines) -> None:
    """Write each line, newline-terminated, to path.partial as the lines
    come, then move it onto path.  If anything raises, path.partial is
    removed and path is left as it was."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


# ---------------------------------------------------------------------------
# Argument handling


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through our
    # usage-error path so exit codes keep their documented meaning.
    def error(self, message):
        raise UsageError(message)


def build_parser(_config: Optional[dict] = None) -> argparse.ArgumentParser:
    """The command-line parser.  The set values of a checked config (see
    _load_config) become the defaults of the subcommands that declare them,
    so a flag beats the config, which beats the default declared here."""
    parser = _Parser(prog="manifold-ukf",
                     description="Sigma-point filtering benchmarks on "
                                 "Lie-group state spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one filter and write estimates")
    p_bench = sub.add_parser("benchmark",
                             help="Monte-Carlo comparison of retraction variants")
    p_check = sub.add_parser("check-retraction",
                             help="verify phi / phi_inv consistency")
    for p in (p_run, p_bench, p_check):
        p.add_argument("example", help="example name, e.g. one of: "
                                       + ", ".join(example_names()))
        p.add_argument("--retractions", help="comma-separated retraction names")
        p.add_argument("--config", help="JSON settings file")
        p.add_argument("--landmarks", help="CSV file of landmark coordinates")
    for p in (p_run, p_bench):  # the commands that simulate and write a CSV
        p.add_argument("--dt", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output CSV path")
    p_run.add_argument("--imu-log",
                       help="CSV of recorded inputs and position fixes "
                            "(imu_gnss example)")
    p_bench.add_argument("--runs", type=int, default=50)
    p_check.add_argument("--epsilons", default="1e-1,1e-2,1e-3",
                         help="comma-separated perturbation scales")

    config = {key: value for key, value in (_config or {}).items() if value is not None}
    for p, command in ((p_run, cmd_run), (p_bench, cmd_benchmark),
                       (p_check, cmd_check_retraction)):
        declared = {a.dest for a in p._actions}
        p.set_defaults(**{k: v for k, v in config.items() if k in declared},
                       model_params=config.get("model_params", {}), command_fn=command)
    return parser


# config key -> the JSON types its value may have (null means unset)
_NUMBER = (int, float)
_CONFIG_KEYS = {"steps": (int,), "dt": _NUMBER, "seed": (int,), "alpha": _NUMBER,
                "retractions": (str, list), "out": (str,), "landmarks": (str,),
                "imu_log": (str,), "runs": (int,),
                "epsilons": (str,) + _NUMBER, "model_params": (dict,)}


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must contain a JSON object")
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in cfg.items():
        types = _CONFIG_KEYS[key]
        if value is not None and (type(value) is bool or not isinstance(value, types)):
            raise UsageError(f"config {path}: {key} must be "
                             f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
    return cfg


def _build_model(args):
    name = args.example
    params = dict(args.model_params)
    for key in ("dt", "alpha", "landmarks"):
        value = getattr(args, key, None)  # check-retraction takes no dt or alpha
        if value is not None:
            params[key] = read_landmarks(value) if key == "landmarks" else value
    try:
        model = make(name, **params)
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise UsageError(f"bad parameters for {name}: {exc}") from exc
    except ManifoldUkfError as exc:
        raise UsageError(str(exc)) from exc
    return model


def _retraction_names(args, model, many: bool):
    text = args.retractions
    if text is None:
        return list(model.retractions) if many else [model.default_retraction]
    parts = text.split(",") if isinstance(text, str) else map(str, text)
    names = [n.strip() for n in parts if n.strip()]
    for n in names:
        model.retraction(n)  # ValueError listing the known ones
    if not names:
        raise UsageError("no retractions selected")
    if not many and len(names) > 1:
        raise UsageError("run takes a single retraction")
    return names


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    model = _build_model(args)
    retr_name = _retraction_names(args, model, many=False)[0]
    retr = model.retraction(retr_name)

    if args.imu_log is not None:
        if model.R.shape != (3, 3):
            raise UsageError(
                "--imu-log needs a model with 3D position measurements "
                "(use the imu_gnss example)")
        times, inputs, measurements = read_imu_log(args.imu_log)
        sim = (None, inputs, measurements)
    else:
        sim = simulate(model, args.steps, args.seed)
        times = model.dt * np.arange(1, args.steps + 1)

    out = f"{model.name}_{retr_name}_estimates.csv" if args.out is None else args.out
    steps = _scored(model, retr, sim, Belief(model.initial_mean, model.initial_cov))
    _write_text(out, _estimate_lines(model, retr, steps, times))
    print(f"wrote {len(times)} estimates to {out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    model = _build_model(args)
    names = _retraction_names(args, model, many=True)
    report = benchmark(model, names, runs=args.runs, seed=args.seed, steps=args.steps)
    out = f"{model.name}_benchmark.csv" if args.out is None else args.out
    write_benchmark_csv(out, report)

    blocks = [lbl for lbl, _ in report.blocks]
    name_w = max(len(f.name) for f in report.filters)
    head = ("retraction".ljust(name_w)
            + "".join(f"  rmse_{lbl}[final]" for lbl in blocks)
            + "  mean_nees  diverged")
    print(f"{model.name}: {args.runs} runs x {args.steps} steps, seed {args.seed}, "
          f"alpha {report.alpha}")
    print(head)
    for flt in report.filters:
        cells = "".join(
            f"  {flt.rmse[lbl][-1]:>{len(f'rmse_{lbl}[final]')}.6f}"
            for lbl in blocks
        )
        avg = float(np.nanmean(flt.mean_nees)) if flt.valid_runs else math.nan
        print(flt.name.ljust(name_w) + cells
              + f"  {avg:>9.3f}  {flt.diverged:>8d}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_check_retraction(args) -> int:
    model = _build_model(args)
    names = _retraction_names(args, model, many=True)
    epsilons = tuple(float(t) for t in str(args.epsilons).split(",") if t.strip())

    all_ok = True
    for name in names:
        result = check_retraction(model.retraction(name), model.initial_mean,
                                  epsilons=epsilons)
        print(f"{model.name} / {name}:")
        for eps, residual, ok in result.residuals:
            print(f"  eps={eps:<8.1e} residual={residual:.3e}  "
                  f"{'PASS' if ok else 'FAIL'}")
        print(f"  jacobian-at-zero error={result.jacobian_error:.3e}  "
              f"{'PASS' if result.jacobian_passed else 'FAIL'}")
        all_ok = all_ok and result.passed
    return EXIT_OK if all_ok else EXIT_CONFIG


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the only place an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None:
            args = build_parser(_load_config(args.config)).parse_args(argv)
        return args.command_fn(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ManifoldUkfError as exc:  # only raised once args are parsed
        what = "filter run" if args.command == "run" else args.command
        print(f"{what} failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
