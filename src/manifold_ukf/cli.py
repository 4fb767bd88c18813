"""Command-line interface: run one filter, benchmark variants, check retractions.

Exit codes: 0 on success, 1 for usage or configuration problems, 2 when a
filter run fails numerically (divergence).

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
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import FilterStepError, ManifoldUkfError
from .models import LandmarkSet, example_names, make
from .montecarlo import benchmark, nees, run_record, simulate
from .retraction import check_retraction
from .sigma_core import filter_run

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


def write_estimates_csv(path, model, retraction, beliefs, nees_vals,
                        times) -> None:
    d = retraction.dim
    header = (["step", "t"] + list(model.state_labels)
              + [f"P{i}" for i in range(d)] + ["nees"])
    lines = [",".join(header)]
    for i, belief in enumerate(beliefs):
        vec = model.state_to_vector(belief.mean)
        row = [str(i + 1), _fmt(times[i])]
        row += [_fmt(v) for v in vec]
        row += [_fmt(v) for v in np.diag(belief.cov)]
        row.append(_fmt(nees_vals[i]))
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def _csv_lines(path):
    """(line number, cells) of each non-blank line of a comma-separated file
    whose rows all have as many cells as its header; UsageError otherwise."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, line.rstrip("\n").split(","))
                 for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise UsageError(f"{path} is empty")
    width = len(lines[0][1])
    for n, cells in lines:
        if len(cells) != width:
            raise UsageError(f"{path}, line {n}: expected {width} cells")
    return lines


def _floats(path, n, cells):
    """The cells of line n as floats, or UsageError naming the line."""
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise UsageError(f"{path}, line {n}: {exc}") from None


def read_csv_columns(path) -> Dict[str, np.ndarray]:
    """Read a comma-separated file into columns keyed by header name: float
    columns, and text columns where a cell is not a number."""
    (_, header), *body = _csv_lines(path)
    out = {}
    for j, name in enumerate(header):
        try:
            out[name] = np.array([float(r[j]) for _, r in body])
        except ValueError:
            out[name] = np.array([r[j] for _, r in body])
    return out


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
    _write_text(path, "\n".join(lines) + "\n")


def strip_runtime_column(text: str) -> str:
    """Benchmark CSV minus its wall-clock column, for byte comparisons."""
    out = []
    drop = None
    for line in text.splitlines():
        cells = line.split(",")
        if drop is None:
            drop = cells.index("wall_clock_s")
        out.append(",".join(cells[:drop] + cells[drop + 1:]))
    return "\n".join(out) + "\n"


def write_imu_log(path, times, inputs, measurements) -> None:
    """measurements maps 1-based step index to a 3-vector position fix."""
    lines = [IMU_LOG_HEADER]
    for i, (t, u) in enumerate(zip(times, inputs)):
        step = i + 1
        y = measurements.get(step)
        valid = 1 if y is not None else 0
        y = y if y is not None else np.zeros(3)
        cells = [_fmt(t)] + [_fmt(v) for v in u] + [_fmt(v) for v in y] + [str(valid)]
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def read_imu_log(path):
    """Returns (times, inputs, measurements) in filter_run's conventions;
    every row must be full and numeric."""
    (_, header), *body = _csv_lines(path)
    if header != IMU_LOG_HEADER.split(","):
        raise UsageError(f"IMU log must have header {IMU_LOG_HEADER!r}, got {header}")
    rows = np.reshape([_floats(path, n, cells) for n, cells in body], (-1, 11))
    measurements = {i + 1: row[7:10] for i, row in enumerate(rows) if row[10] != 0}
    return rows[:, 0], list(rows[:, 1:7]), measurements


def read_landmarks(path) -> LandmarkSet:
    """One landmark per line, comma-separated coordinates."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = []
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(_floats(path, n, line.split(",")))
    if not rows:
        raise UsageError(f"no landmarks found in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise UsageError("landmark rows must all have the same dimension")
    return LandmarkSet(np.array(rows))


def _write_text(path, text) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Argument handling


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through our
    # usage-error path so exit codes keep their documented meaning.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="manifold-ukf",
                     description="Sigma-point filtering benchmarks on "
                                 "Lie-group state spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("example", help="example name, e.g. one of: "
                                       + ", ".join(example_names()))
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--retractions", default=None,
                       help="comma-separated retraction names")
        p.add_argument("--config", default=None, help="JSON settings file")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--landmarks", default=None,
                       help="CSV file of landmark coordinates")

    p_run = sub.add_parser("run", help="run one filter and write estimates")
    common(p_run)
    p_run.add_argument("--imu-log", default=None,
                       help="CSV of recorded inputs and position fixes "
                            "(imu_gnss example)")

    p_bench = sub.add_parser("benchmark",
                             help="Monte-Carlo comparison of retraction variants")
    common(p_bench)
    p_bench.add_argument("--runs", type=int, default=None)
    p_bench.add_argument("--workers", type=int, default=None,
                         help="accepted and ignored: all runs of a variant "
                              "step in lockstep in one process")

    p_check = sub.add_parser("check-retraction",
                             help="verify phi / phi_inv consistency")
    common(p_check)
    p_check.add_argument("--epsilons", default=None,
                         help="comma-separated perturbation scales")

    return parser


# config key -> the JSON types its value may have (null means unset)
_NUMBER = (int, float)
_CONFIG_KEYS = {"steps": (int,), "dt": _NUMBER, "seed": (int,), "alpha": _NUMBER,
                "retractions": (str, list), "out": (str,), "landmarks": (str,),
                "imu_log": (str,), "runs": (int,), "workers": (int,),
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


def _effective(args, key, default=None):
    """Command line beats config file beats default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config", {})
    if key in cfg and cfg[key] is not None:
        return cfg[key]
    return default


def _build_model(args):
    name = args.example
    if name not in example_names():
        raise UsageError(
            f"unknown example {name!r}; registered examples: "
            + ", ".join(example_names())
        )
    params = dict(_effective(args, "model_params", {}) or {})
    dt = _effective(args, "dt")
    if dt is not None:
        params["dt"] = dt
    alpha = _effective(args, "alpha")
    if alpha is not None:
        params["alpha"] = alpha
    lm_path = _effective(args, "landmarks")
    if lm_path is not None:
        params["landmarks"] = read_landmarks(lm_path)
    try:
        model = make(name, **params)
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise UsageError(f"bad parameters for {name}: {exc}") from exc
    except (ValueError, ManifoldUkfError) as exc:
        raise UsageError(str(exc)) from exc
    if not 0.0 < model.alpha <= 1.0:
        raise UsageError(f"alpha must lie in (0, 1], got {model.alpha}")
    return model


def _retraction_names(args, model, many: bool):
    text = _effective(args, "retractions")
    if text is None:
        names = list(model.retractions)
    else:
        if isinstance(text, str):
            names = [t.strip() for t in text.split(",") if t.strip()]
        else:
            names = [str(n) for n in text]
        for n in names:
            if n not in model.retractions:
                raise UsageError(
                    f"unknown retraction {n!r} for {model.name}; choose from: "
                    + ", ".join(model.retractions)
                )
    if not names:
        raise UsageError("no retractions selected")
    if not many:
        if text is None:
            return [model.default_retraction]
        if len(names) > 1:
            raise UsageError("run takes a single retraction")
    return names


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    model = _build_model(args)
    retr_name = _retraction_names(args, model, many=False)[0]
    retr = model.retraction(retr_name)
    seed = int(_effective(args, "seed", 0))
    imu_log = _effective(args, "imu_log")

    if imu_log is not None:
        if model.R.shape != (3, 3):
            raise UsageError(
                "--imu-log needs a model with 3D position measurements "
                "(use the imu_gnss example)")
        times, inputs, measurements = read_imu_log(imu_log)
        truth = None
    else:
        steps = int(_effective(args, "steps", 100))
        try:
            truth, inputs, measurements = simulate(model, steps, seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        times = model.dt * np.arange(1, steps + 1)

    try:
        if truth is None:
            beliefs = filter_run(model, inputs, measurements, retraction=retr)
            nees_vals = np.full(len(beliefs), np.nan)
        else:
            record = run_record(model, retr, truth, inputs, measurements,
                                seed=seed)
            beliefs = record.beliefs
            nees_vals = nees(record)
    except (FilterStepError, ManifoldUkfError) as exc:
        print(f"filter run failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    out = _effective(args, "out", f"{model.name}_{retr_name}_estimates.csv")
    write_estimates_csv(out, model, retr, beliefs, nees_vals, times)
    print(f"wrote {len(beliefs)} estimates to {out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    model = _build_model(args)
    names = _retraction_names(args, model, many=True)
    seed = int(_effective(args, "seed", 0))
    steps = int(_effective(args, "steps", 100))
    runs = int(_effective(args, "runs", 50))

    try:
        report = benchmark(model, names, runs=runs, seed=seed, steps=steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except ManifoldUkfError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    out = _effective(args, "out", f"{model.name}_benchmark.csv")
    write_benchmark_csv(out, report)

    blocks = [lbl for lbl, _ in report.blocks]
    name_w = max(len(f.name) for f in report.filters)
    head = ("retraction".ljust(name_w)
            + "".join(f"  rmse_{lbl}[final]" for lbl in blocks)
            + "  mean_nees  diverged")
    print(f"{model.name}: {runs} runs x {steps} steps, seed {seed}, "
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
    eps_text = str(_effective(args, "epsilons", "1e-1,1e-2,1e-3"))
    try:
        epsilons = tuple(float(t) for t in eps_text.split(",") if t.strip())
    except ValueError as exc:
        raise UsageError(f"bad --epsilons value: {eps_text!r}") from exc
    if not epsilons:
        raise UsageError("no epsilons given")

    all_ok = True
    for name in names:
        retr = model.retraction(name)
        result = check_retraction(retr, model.initial_mean, epsilons=epsilons)
        print(f"{model.name} / {name}:")
        for eps, residual, ok in result.residuals:
            print(f"  eps={eps:<8.1e} residual={residual:.3e}  "
                  f"{'PASS' if ok else 'FAIL'}")
        print(f"  jacobian-at-zero error={result.jacobian_error:.3e}  "
              f"{'PASS' if result.jacobian_passed else 'FAIL'}")
        all_ok = all_ok and result.passed
    return EXIT_OK if all_ok else EXIT_CONFIG


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg_path = getattr(args, "config", None)
        args._config = _load_config(cfg_path) if cfg_path else {}
        if args.command == "run":
            return cmd_run(args)
        if args.command == "benchmark":
            return cmd_benchmark(args)
        return cmd_check_retraction(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FilterStepError as exc:
        print(f"filter run failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
