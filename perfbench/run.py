#!/usr/bin/env python3
"""Benchmark for manifold_ukf, run from the root of a source checkout.

    python3 perfbench/run.py --workload highdim --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: set-up time of a fresh process,
online step throughput and latency, Monte-Carlo throughput at one and two
workers, and peak memory.  Every time is scaled to a fixed machine speed
by the calibration kernel of calibrate.py, timed around each unit of timed
work, so that other load on a shared host drops out.  --trace 1 instead
runs a fixed amount of the same work once untraced and once with every
layer boundary traced, and reports per-layer counts and self times.
Either way every filter pass is checked against the reference outputs
recorded in reference.npz, and the last line of standard output is one
JSON object with the result.

The package is imported from ./src; without it the benchmark exits with
code 2 and prints no result.
"""

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads: workers=2 must mean 2 threads

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = Path.cwd() / ".bench_out"
REFERENCE = HERE / "reference.npz"
SETUP_PROBES = 5
MIN_CYCLES = 3
SEGMENT_NS = 150e6  # drive time between two runs of the calibration kernel
# Worker counts of a round of benchmark() calls.  The workers=1 call comes
# last: right after a fork pool shuts down, the next steps run slow, and the
# drive of the next cycle must not see that.
MC_WORKERS = (2, 1)
WARM_STEPS = 20
TOL = 1e-8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload, seed):
    """Median over fresh processes, each timed between two runs of the
    import gauge (calibrate.import_s) and scaled to its nominal time.  The
    caller's own import has already filled the bytecode cache, which users
    pay for once, not per run."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    before = calibrate.import_s()
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        after = calibrate.import_s()
        times.append(float(out.stdout.split()[-1])
                     * calibrate.IMPORT_NOMINAL_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Reference checks


def load_reference(prefix):
    with np.load(REFERENCE) as f:
        return {k[len(prefix):]: f[k] for k in f.files if k.startswith(prefix)}


def matches(ref, key, outputs):
    """Every output within TOL of the reference (absolute plus relative);
    divergence counts exactly; no reference entry left unchecked."""
    want = {k[len(key):] for k in ref if k.startswith(key)}
    if want != set(outputs):
        return False
    for name, got in outputs.items():
        exp = ref[key + name]
        if got.shape != exp.shape:
            return False
        if name.endswith("diverged"):
            if not np.array_equal(got, exp):
                return False
        elif not np.allclose(got, exp, rtol=TOL, atol=TOL):
            return False
    return True


class Tally:
    """Filter passes attempted and failed (raised, diverged or off the
    reference)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, passes, failed):
        self.attempted += passes
        self.failed += failed


def report_failure(what):
    print(f"FAILED: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# Work units


def run_pass(mu, model, p, ref, tally, finals, on_step=None):
    """One online pass; returns False if it raised.

    The first final belief of each pass is kept in `finals`, for the
    comparison with filter_run.
    """
    try:
        belief = wl.drive(mu, model, p.retraction, p.inputs, p.measurements,
                          on_step)
    except Exception:
        report_failure(p.key)
        tally.add(1, 1)
        return False
    finals.setdefault(p.key, belief)
    ok = matches(ref, p.key + "/", wl.drive_outputs(model, p, belief))
    if not ok:
        print(f"FAILED: {p.key} differs from the reference", file=sys.stderr)
    tally.add(1, 0 if ok else 1)
    return True


def run_mc(mu, workload, model, c, workers, ref, tally):
    """One benchmark() call; returns (wall ns, report) or None if it raised."""
    passes = workload.mc_runs * len(c.retractions)
    t0 = time.perf_counter_ns()
    try:
        report = mu.benchmark(model, list(c.retractions), runs=workload.mc_runs,
                              seed=c.seed, steps=workload.mc_steps, workers=workers)
    except Exception:
        report_failure(f"{c.key} workers={workers}")
        tally.add(passes, passes)
        return None
    elapsed = time.perf_counter_ns() - t0
    outputs = wl.mc_outputs(report)
    failed = 0
    for flt in report.filters:
        mine = {k: v for k, v in outputs.items() if k.startswith(flt.name + "/")}
        if matches(ref, f"{c.key}/{flt.name}/",
                   {k[len(flt.name) + 1:]: v for k, v in mine.items()}):
            failed += flt.diverged
        else:
            print(f"FAILED: {c.key}/{flt.name} workers={workers} differs from "
                  "the reference", file=sys.stderr)
            failed += workload.mc_runs
    tally.add(passes, failed)
    return elapsed, report


def check_drive_matches_filter_run(mu, models, passes, finals, tally):
    """Untimed: the step-by-step drive must end bit-identical to a single
    filter_run call on the same inputs."""
    for p in passes:
        if p.key not in finals:
            continue  # the drive raised, and already counts as failed
        a = finals[p.key]
        try:
            b = mu.filter_run(models[p.model_key], p.inputs, p.measurements,
                              retraction=p.retraction)[-1]
        except Exception:
            report_failure(f"{p.key} (filter_run)")
            tally.add(1, 1)
            continue
        same = (pickle.dumps(a.mean) == pickle.dumps(b.mean)
                and np.asarray(a.cov).tobytes() == np.asarray(b.cov).tobytes())
        if not same:
            print(f"FAILED: {p.key}: drive and filter_run differ",
                  file=sys.stderr)
        tally.add(1, 0 if same else 1)


# ---------------------------------------------------------------------------
# End-to-end run


def scaled_pass(mu, model, p, ref, tally, finals, gauge):
    """One drive pass, its steps timed in segments of about SEGMENT_NS with
    the calibration kernel between segments; returns each step's scaled
    time in ns, or None if the pass raised."""
    steps = []
    start = [0, 0]  # first step of the open segment, its time so far

    def on_step(ns):
        steps.append(ns)
        start[1] += ns
        if start[1] >= SEGMENT_NS or len(steps) == len(p.inputs):
            s = gauge.scale()
            for i in range(start[0], len(steps)):
                steps[i] *= s
            start[:] = [len(steps), 0]

    ok = run_pass(mu, model, p, ref, tally, finals, on_step)
    return steps if ok else None


def warm_up(mu, workload, models, passes, calls):
    """Untimed and unchecked: the first WARM_STEPS steps of every drive
    pass and one benchmark() call at each worker count, so that lazy
    set-up and the first fork pool are paid for before timing starts.  A
    failure here shows again, and is counted, in the timed cycles."""
    for p in passes:
        try:
            wl.drive(mu, models[p.model_key], p.retraction,
                     p.inputs[:WARM_STEPS], p.measurements)
        except Exception:
            pass
    c = calls[0]
    for workers in MC_WORKERS:
        try:
            mu.benchmark(models[c.model_key], list(c.retractions),
                         runs=workload.mc_runs, seed=c.seed,
                         steps=workload.mc_steps, workers=workers)
        except Exception:
            pass


def timed_run(mu, workload, seconds, models, passes, calls, ref, tally,
              finals):
    """Repeat cycles of every drive pass and every benchmark() call at one
    and two workers until `seconds` have passed, and at least MIN_CYCLES.

    Every cycle repeats identical work.  Each drive segment and each
    benchmark() call is timed between two runs of the calibration kernel
    and scaled to its nominal speed.  The drive rate divides the steps by the sum over passes of each
    pass's median scaled time, and the latency percentiles are taken over
    each step's median scaled time; a benchmark() rate divides its steps
    by the sum of each call's median scaled time.
    """
    gauge = calibrate.Gauge()
    times = {}       # unit -> scaled ns per repetition
    work = {}        # unit -> (metric, steps per repetition)
    latency = {}     # pass -> per-step scaled ns, one row per repetition

    def cycle():
        for p in passes:
            steps = scaled_pass(mu, models[p.model_key], p, ref, tally, finals,
                                gauge)
            if steps is not None:
                times.setdefault(p.key, []).append(sum(steps))
                work[p.key] = ("steps_per_s", len(steps))
                latency.setdefault(p.key, []).append(steps)
        for workers in MC_WORKERS * workload.mc_rounds:
            for c in calls:
                res = run_mc(mu, workload, models[c.model_key], c, workers,
                             ref, tally)
                s = gauge.scale()
                if res is not None:
                    unit = (c.key, workers)
                    times.setdefault(unit, []).append(res[0] * s)
                    work[unit] = (f"mc_steps_per_s.w{workers}",
                                  workload.mc_runs * len(c.retractions)
                                  * workload.mc_steps)

    warm_up(mu, workload, models, passes, calls)
    t0 = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() - t0 < seconds:
        cycle()
        cycles += 1

    steps, ns = {}, {}
    for unit, (metric, n) in work.items():
        steps[metric] = steps.get(metric, 0) + n
        ns[metric] = ns.get(metric, 0) + statistics.median(times[unit])
    metrics = {k: (steps[k] / (ns[k] / 1e9), "steps/s") for k in steps}
    profile = np.concatenate([np.median(rows, axis=0)
                              for rows in latency.values()])
    metrics["step_us.p50"] = (float(np.percentile(profile, 50)) / 1e3, "us")
    metrics["step_us.p99"] = (float(np.percentile(profile, 99)) / 1e3, "us")
    scales = calibrate.NOMINAL_NS / np.percentile(gauge.samples, [100, 50, 0])
    return metrics, {"cycles": cycles, "latency_samples": len(profile),
                     "scale_min_median_max": [round(x, 3) for x in scales],
                     "unit_ns": {str(k): v for k, v in times.items()},
                     "step_ns": latency}


# ---------------------------------------------------------------------------
# Traced run


# Which end-to-end metric each per-layer metric should move (and on which
# workload); printed next to the traced numbers.
MAPPING = (
    ("sigma_core.update", "step_us.p50 on lowdim_dense, step_us.p99 on "
     "highdim; not step_us.p50 on highdim"),
    ("models.h", "step_us.p50 on lowdim_dense, step_us.p99 on highdim"),
    ("retraction.phi.", "step_us.p50 on lowdim_dense, step_us.p99 on highdim"),
    ("sigma_core.set_weights", "steps_per_s on lowdim_dense; not highdim"),
    ("sigma_core.sigma_points", "steps_per_s on lowdim_dense; not highdim"),
    ("sigma_core.filter_run", "mc_steps_per_s.w1 (lowdim_dense most); no "
     "online metric"),
    ("models.make_s", "setup_s (pendulum table on lowdim_dense); not steps_per_s"),
    ("montecarlo.pool", "mc_steps_per_s.w2; no online metric, not .w1"),
    ("montecarlo.", "mc_steps_per_s.w1; no online metric"),
    ("trace.", "none: cost of tracing"),
    ("cost_model.", "none: the paper's predicted count"),
    ("", "steps_per_s, step_us.p50 (highdim most), mc_steps_per_s.w1"),
)

LIE_REPORTED = ("exp_so3", "log_so3", "exp_sek", "log_sek", "inverse",
                "wedge_so3", "exp_so2", "log_so2", "left_jacobian_so2")


def is_reported(metric):
    """Lie-group functions that some workload never calls are printed but
    left out of the result line, whose metrics every workload must have."""
    parts = metric.split(".")
    return parts[0] != "lie_groups" or len(parts) == 2 or parts[1] in LIE_REPORTED


def mapped(metric):
    return next(m for prefix, m in MAPPING if metric.startswith(prefix))


def cost_model(models, passes):
    """Calls per step the paper's cost model predicts for the drive:
    per propagate f = 2(d+q)+1, phi_inv = 2(d+q), phi = 2d; per update
    h = phi = 2d+1."""
    tot = {"f": 0, "phi_inv": 0, "phi": 0, "h": 0}
    steps = 0
    for p in passes:
        model = models[p.model_key]
        d = model.retraction(p.retraction).dim
        q = model.Q.shape[0] if model.Q.any() else 0
        n = len(p.inputs)
        u = sum(1 for k in p.measurements if 1 <= k <= n)
        tot["f"] += n * (2 * (d + q) + 1)
        tot["phi_inv"] += n * 2 * (d + q)
        tot["phi"] += n * 2 * d + u * (2 * d + 1)
        tot["h"] += u * (2 * d + 1)
        steps += n
    return {k: v / steps for k, v in tot.items()}


def traced_run(mu, workload, seed, models, make_s, passes, calls,
               ref, tally, finals):

    def untraced():
        t0 = time.perf_counter_ns()
        for p in passes:
            model = models[p.model_key]
            run_pass(mu, model, p, ref, tally, finals)
        for c in calls:
            run_mc(mu, workload, models[c.model_key], c, 1, ref, tally)
        return time.perf_counter_ns() - t0

    base_a = untraced()

    tracer = tracing.Tracer()
    drive_ranges, mc_ranges = [], []
    drive_ns = mc_ns = 0
    beliefs, reports = [], []
    with tracer.patched(mu):
        traced_models = {k: tracer.wrap_model(m) for k, m in models.items()}
        for p in passes:
            tracer.trace_id += 1
            lo = len(tracer)
            t0 = time.perf_counter_ns()
            try:
                beliefs.append(wl.drive(mu, traced_models[p.model_key],
                                        p.retraction, p.inputs, p.measurements))
            except Exception:
                report_failure(f"{p.key} (traced)")
                beliefs.append(None)
            drive_ns += time.perf_counter_ns() - t0
            drive_ranges.append((lo, len(tracer)))
        for c in calls:
            tracer.trace_id += 1
            lo = len(tracer)
            t0 = time.perf_counter_ns()
            try:
                reports.append(mu.benchmark(
                    traced_models[c.model_key], list(c.retractions),
                    runs=workload.mc_runs, seed=c.seed, steps=workload.mc_steps,
                    workers=1))
            except Exception:
                report_failure(f"{c.key} (traced)")
                reports.append(None)
            mc_ns += time.perf_counter_ns() - t0
            mc_ranges.append((lo, len(tracer)))
    # checked after tracing ends, so the checks leave no spans
    for p, belief in zip(passes, beliefs):
        ok = belief is not None and matches(
            ref, p.key + "/", wl.drive_outputs(models[p.model_key], p, belief))
        tally.add(1, 0 if ok else 1)
    for c, report in zip(calls, reports):
        passes_c = workload.mc_runs * len(c.retractions)
        ok = report is not None and matches(ref, c.key + "/",
                                            wl.mc_outputs(report))
        tally.add(passes_c, 0 if ok else passes_c)

    base_b = untraced()

    # pool behaviour at workers=2, untraced
    busy = wall = 0.0
    for c in calls:
        res = run_mc(mu, workload, models[c.model_key], c, 2, ref, tally)
        if res is not None:
            wall += res[0] / 1e9
            busy += sum(f.wall_clock_s for f in res[1].filters)

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{workload.name}-seed{seed}.npz")

    drive = merge([tracer.summary(lo, hi) for lo, hi in drive_ranges])
    mc = merge([tracer.summary(lo, hi) for lo, hi in mc_ranges])
    steps = sum(len(p.inputs) for p in passes)
    m = {}

    def per_call(summary, name):
        calls_, _, own = summary.get(name, (0, 0.0, 0.0))
        return calls_, (own / calls_ / 1e3 if calls_ else 0.0)

    def share(summary, prefix, wall_ns):
        return sum(v[2] for k, v in summary.items()
                   if k.startswith(prefix)) / wall_ns

    for fn in tracing.LIE:
        n, us = per_call(drive, f"lie_groups.{fn}")
        m[f"lie_groups.{fn}.calls_per_step"] = (n / steps, "calls/step")
        m[f"lie_groups.{fn}.self_us"] = (us, "us")
    m["lie_groups.self_share"] = (share(drive, "lie_groups.", drive_ns), "ratio")
    for name in ("retraction.phi", "retraction.phi_inv", "models.f", "models.h"):
        n, us = per_call(drive, name)
        m[f"{name}.calls_per_step"] = (n / steps, "calls/step")
        m[f"{name}.self_us"] = (us, "us")
    m["retraction.self_share"] = (share(drive, "retraction.", drive_ns), "ratio")
    m["models.make_s"] = (make_s, "s")
    m["models.self_share"] = (share(drive, "models.", drive_ns), "ratio")
    for fn in ("propagate", "update", "sigma_points", "set_weights"):
        n, us = per_call(drive, f"sigma_core.{fn}")
        m[f"sigma_core.{fn}.calls_per_step"] = (n / steps, "calls/step")
        m[f"sigma_core.{fn}.self_us"] = (us, "us")
        if fn in ("propagate", "update"):
            m[f"sigma_core.{fn}.incl_share"] = (
                drive.get(f"sigma_core.{fn}", (0, 0.0, 0.0))[1] / drive_ns,
                "ratio")
    m["sigma_core.filter_run.self_us"] = (per_call(mc, "sigma_core.filter_run")[1],
                                          "us")
    m["sigma_core.self_share"] = (share(drive, "sigma_core.", drive_ns), "ratio")
    m["montecarlo.simulate.self_us_per_step"] = (
        per_call(mc, "montecarlo.simulate")[1] / workload.mc_steps, "us/step")
    m["montecarlo.run_record.self_us"] = (per_call(mc, "montecarlo.run_record")[1],
                                          "us")
    m["montecarlo.nees.self_us"] = (per_call(mc, "montecarlo.nees")[1], "us")
    m["montecarlo.benchmark.serial_s"] = (
        per_call(mc, "montecarlo.benchmark")[1] / 1e6, "s")
    m["montecarlo.pool.efficiency"] = (busy / (2 * wall), "ratio")
    m["montecarlo.pool.idle_s"] = (2 * wall - busy, "s")
    task_b, result_b = pool_bytes(workload, models, calls)
    m["montecarlo.pool.task_bytes"] = (task_b, "B")
    m["montecarlo.pool.result_bytes"] = (result_b, "B")
    m["trace.overhead"] = ((drive_ns + mc_ns) / ((base_a + base_b) / 2) - 1,
                           "ratio")
    for k, v in cost_model(models, passes).items():
        layer = "models" if k in ("f", "h") else "retraction"
        m[f"cost_model.{layer}.{k}.calls_per_step"] = (v, "calls/step")
    return m, {"drive_steps": steps, "spans": len(tracer)}


def merge(summaries):
    out = {}
    for s in summaries:
        for k, (n, incl, own) in s.items():
            a = out.get(k, (0, 0.0, 0.0))
            out[k] = (a[0] + n, a[1] + incl, a[2] + own)
    return out


def pool_bytes(workload, models, calls):
    """Computed, not measured: pickled size per run of the task benchmark()
    sends to a worker and of the per-run result it gets back (one
    (errors, nees, diverged, seconds) tuple per retraction)."""
    task = result = 0
    for c in calls:
        model = models[c.model_key]
        retrs = [model.retraction(r) for r in c.retractions]
        steps = workload.mc_steps
        task += len(pickle.dumps((model, retrs, steps, c.seed, model.alpha)))
        result += len(pickle.dumps([
            (np.zeros((steps, r.dim)), np.zeros(steps), False, 0.0)
            for r in retrs]))
    return task / len(calls), result / len(calls)


# ---------------------------------------------------------------------------


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so that benchmark()'s worker pool
    # and a running set-up probe are shut down and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "manifold_ukf" / "__init__.py").is_file():
        print(f"error: no manifold_ukf package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE.name}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    import manifold_ukf as mu
    setup_s = None if args.trace else measure_setup(workload.name, args.seed)

    t0 = time.perf_counter()
    models = wl.build_models(workload, args.seed, mu)
    make_s = time.perf_counter() - t0
    passes, calls = wl.build_inputs(workload, args.seed, models, mu)
    ref = load_reference(f"{workload.name}/{wl.slot_of(args.seed)}/")
    tally = Tally()
    finals = {}

    if args.trace:
        metrics, info = traced_run(mu, workload, args.seed,
                                   models, make_s, passes, calls, ref, tally,
                                   finals)
    else:
        metrics, info = timed_run(mu, workload, args.seconds, models,
                                  passes, calls, ref, tally, finals)
        metrics["setup_s"] = (setup_s, "s")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mib"] = (rss, "MiB")
    check_drive_matches_filter_run(mu, models, passes, finals, tally)

    env = environment()
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"workload {workload.name}  seed {args.seed} (input set "
          f"{wl.slot_of(args.seed)} of {wl.SLOTS}, held-out seed "
          f"{wl.HELD_OUT_SEED})  trace {args.trace}")
    print("env " + json.dumps(env))
    print("run " + json.dumps({k: v for k, v in info.items()
                               if k not in ("unit_ns", "step_ns")}))
    print(f"failed_frac {failed_frac} ratio  ({tally.failed} of "
          f"{tally.attempted} passes)")
    width = max(len(k) for k in metrics)
    for name in sorted(metrics):
        value, unit = metrics[name]
        line = f"  {name:<{width}}  {value:>14.6g} {unit}"
        predicted = metrics.get("cost_model." + name)
        if predicted:
            line += f" (cost model: {predicted[0]:.6g})"
        if args.trace:
            line += f"   -> {mapped(name)}"
        print(line)

    reported = {k: v for k, v in metrics.items() if is_reported(k)}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": env, "run": info, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in reported.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
