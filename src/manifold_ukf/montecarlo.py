"""Monte-Carlo simulation and benchmarking of filter variants.

simulate() draws one ground-truth trajectory plus measurements from a
counter-based generator (Philox), fully determined by an integer seed.
benchmark() repeats that over independent per-run seeds and feeds the same
simulated data to every retraction variant (common random numbers), then
aggregates RMSE per tangent block, mean NEES and divergence counts.

Runs are independent, so they can execute in worker processes; results are
reduced in run order either way, which keeps every reported number
bit-identical between serial and parallel execution.  Wall-clock times are
the only nondeterministic outputs and are reported separately.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import multiprocessing

import numpy as np
import scipy.stats

from .errors import ManifoldUkfError, SingularCovariance
from .retraction import Retraction
from .sigma_core import Belief, filter_run

DIVERGENCE_NEES = 1e6


def _psd_sqrt(M) -> np.ndarray:
    """Symmetric square-root factor; tolerates semidefinite inputs."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return M.reshape(0, 0)
    if not M.any():
        return np.zeros_like(M)
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    if float(vals.min()) < -1e-9:
        raise ValueError("noise covariance has an eigenvalue below -1e-9")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def simulate(model, steps: int, seed: int):
    """Sample one trajectory of the model.

    Returns (truth, inputs, measurements): truth has steps + 1 states
    starting at the initial one, inputs has one vector per step, and
    measurements maps 1-based step indices to noisy observations on the
    model's schedule.  Identical arguments give identical output, whatever
    the platform's default RNG does.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    Lq = _psd_sqrt(model.Q)
    Lr = _psd_sqrt(model.R)
    q = Lq.shape[0]
    p = Lr.shape[0]
    state = model.initial_truth
    truth = [state]
    inputs = []
    measurements: Dict[int, np.ndarray] = {}
    for n in range(1, steps + 1):
        u = model.input_profile(n)
        w = Lq @ rng.standard_normal(q) if q else np.zeros(0)
        state = model.f(state, u, w)
        if n % 1000 == 0:
            state = model.renormalize(state)
        truth.append(state)
        inputs.append(u)
        if n % model.measure_every == 0:
            measurements[n] = model.h(state) + Lr @ rng.standard_normal(p)
    return truth, inputs, measurements


@dataclass(frozen=True)
class RunRecord:
    """One filter pass against its simulated truth.

    errors[n] is phi_inv at the estimate of the true state after step n + 1,
    i.e. the tangent-space estimation error in the filter's own coordinates.
    """

    seed: int
    truth: list
    beliefs: List[Belief]
    errors: np.ndarray


def run_record(model, retraction, truth, inputs, measurements,
               alpha: Optional[float] = None, seed: int = 0) -> RunRecord:
    retr = retraction if isinstance(retraction, Retraction) else model.retraction(retraction)
    beliefs = filter_run(model, inputs, measurements, retraction=retr, alpha=alpha)
    errors = np.array(
        [retr.phi_inv(b.mean, t) for b, t in zip(beliefs, truth[1:])]
    )
    return RunRecord(seed, truth[1:], beliefs, errors)


def nees(record: RunRecord) -> np.ndarray:
    """Normalized estimation error squared, one value per step."""
    if not record.beliefs:
        return np.empty(0)
    covs = np.array([b.cov for b in record.beliefs])
    errors = record.errors
    try:
        sol = np.linalg.solve(covs, errors[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for i, cov in enumerate(covs):  # name the first singular step
            try:
                np.linalg.solve(cov, errors[i])
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance(
                    f"singular covariance at step {i + 1}") from exc
        raise
    return np.einsum("ij,ij->i", errors, sol)


def nees_band(dim: int, runs: int, lower: float = 0.025,
              upper: float = 0.975) -> Tuple[float, float]:
    """Chi-square interval for the mean NEES of `runs` independent runs."""
    dof = dim * runs
    return (
        float(scipy.stats.chi2.ppf(lower, dof)) / runs,
        float(scipy.stats.chi2.ppf(upper, dof)) / runs,
    )


@dataclass(frozen=True)
class FilterReport:
    """Aggregated metrics for one retraction variant."""

    name: str
    rmse: Dict[str, np.ndarray]        # per block: (steps,) over valid runs
    mean_nees: np.ndarray              # (steps,)
    diverged: int
    valid_runs: int
    wall_clock_s: float

    def final_rmse(self, block: str) -> float:
        return float(self.rmse[block][-1])


@dataclass(frozen=True)
class BenchmarkReport:
    model: str
    steps: int
    dt: float
    runs: int
    seed: int
    alpha: float
    times: np.ndarray
    blocks: Tuple[Tuple[str, int], ...]
    filters: Tuple[FilterReport, ...]


def _run_one(task):
    """Simulate one seed and run every filter variant on the same data."""
    model, retractions, steps, run_seed, alpha = task
    truth, inputs, measurements = simulate(model, steps, run_seed)
    results = []
    for retr in retractions:
        t0 = time.perf_counter()
        try:
            record = run_record(model, retr, truth, inputs, measurements,
                                alpha=alpha, seed=run_seed)
            nees_vals = nees(record)
            bad = (not np.isfinite(record.errors).all()
                   or not np.isfinite(nees_vals).all()
                   or float(nees_vals.max()) > DIVERGENCE_NEES)
            if bad:
                results.append((None, None, True, time.perf_counter() - t0))
            else:
                results.append((record.errors, nees_vals, False,
                                time.perf_counter() - t0))
        except ManifoldUkfError:
            results.append((None, None, True, time.perf_counter() - t0))
    return results


def resolve_workers(workers: Optional[int], runs: int) -> int:
    """Worker count: explicit argument, else UKFM_THREADS, else one per CPU.

    Zero means auto.  The result is clamped to [1, runs].
    """
    if workers is None:
        env = os.environ.get("UKFM_THREADS", "").strip()
        workers = int(env) if env else 0
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    return max(1, min(workers, max(runs, 1)))


def benchmark(model, retractions: Sequence[Union[str, Retraction]], runs: int,
              seed: int, steps: int = 100, alpha: Optional[float] = None,
              workers: Optional[int] = None) -> BenchmarkReport:
    """Compare retraction variants over `runs` independent simulations.

    Every variant sees the same simulated truth and measurements within a
    run.  Diverged runs (non-finite errors, NEES beyond 1e6, or a numerical
    failure inside the filter) are counted and excluded from RMSE / NEES
    aggregates.  All reported metrics depend only on (model, retractions,
    runs, seed, steps, alpha), not on the worker count.
    """
    if runs < 1:
        raise ValueError(f"runs must be positive, got {runs}")
    retrs = [r if isinstance(r, Retraction) else model.retraction(r)
             for r in retractions]
    if not retrs:
        raise ValueError("need at least one retraction to benchmark")
    labels = tuple(lbl for lbl, _ in retrs[0].blocks)
    for r in retrs[1:]:
        if tuple(lbl for lbl, _ in r.blocks) != labels:
            raise ValueError("retraction variants must share block labels")
    blocks = retrs[0].blocks
    if alpha is None:
        alpha = model.alpha

    run_seeds = [int(s.generate_state(1)[0])
                 for s in np.random.SeedSequence(seed).spawn(runs)]
    tasks = [(model, retrs, steps, rs, alpha) for rs in run_seeds]

    n_workers = resolve_workers(workers, runs)
    parallel = n_workers > 1 and _forkable(tasks[0])
    if parallel:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            per_run = list(pool.map(_run_one, tasks))
    else:
        per_run = [_run_one(t) for t in tasks]

    filters = []
    for i, retr in enumerate(retrs):
        outs = [per_run[r][i] for r in range(runs)]
        wall = sum(o[3] for o in outs)
        good_errors = [o[0] for o in outs if not o[2]]
        good_nees = [o[1] for o in outs if not o[2]]
        diverged = runs - len(good_errors)
        slices = retr.block_slices()
        if good_errors:
            E = np.array(good_errors)       # (valid, steps, dim)
            N = np.array(good_nees)         # (valid, steps)
            rmse = {
                lbl: np.sqrt(np.mean(np.sum(E[:, :, slices[lbl]] ** 2, axis=2),
                                     axis=0))
                for lbl, _ in retr.blocks
            }
            mean_nees = N.mean(axis=0)
        else:
            rmse = {lbl: np.full(steps, np.nan) for lbl, _ in retr.blocks}
            mean_nees = np.full(steps, np.nan)
        filters.append(FilterReport(
            name=retr.name, rmse=rmse, mean_nees=mean_nees,
            diverged=diverged, valid_runs=runs - diverged, wall_clock_s=wall,
        ))

    return BenchmarkReport(
        model=model.name, steps=steps, dt=model.dt, runs=runs, seed=seed,
        alpha=alpha, times=model.dt * np.arange(1, steps + 1),
        blocks=blocks, filters=tuple(filters),
    )


def _forkable(task) -> bool:
    if not hasattr(os, "fork"):
        return False
    try:
        pickle.dumps(task)
        return True
    except Exception:
        return False
