"""Monte-Carlo simulation and benchmarking of filter variants.

simulate() draws a ground-truth trajectory plus measurements from a
counter-based generator (Philox), fully determined by an integer seed, or
one per seed of a sequence.  benchmark() draws them for independent per-run
seeds and feeds the same simulated data to every retraction variant (common
random numbers), then aggregates RMSE per tangent block, mean NEES and
divergence counts.

All runs step in lockstep.  Every state is one ndarray, so a stack of runs
is np.stack of their states and run r is index r.  simulate() steps every
run's truth through one f, one h and one renormalize call per step.  Each
variant then filters all runs in one pass: the belief carries a run axis,
so each sigma-point call serves every run at once.  The pass is a stream of
beliefs, reduced every _CHUNK steps to errors and NEES and then dropped, so
memory grows with runs x steps x state size, plus one chunk of beliefs.
Each run's numbers are bit-identical to a pass of that run alone.  If the
lockstep pass raises, the variant is run again one run at a time, on that
run's slice of the simulation, so that only the failing runs count as
diverged.  Wall-clock times are the only nondeterministic outputs and are
reported separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.special

from .errors import ManifoldUkfError, SingularCovariance
from .retraction import Retraction
from .sigma_core import _RENORM_EVERY, Belief, _filter_steps, filter_run

DIVERGENCE_NEES = 1e6
_CHUNK = 128  # steps of beliefs a lockstep pass buffers per reduction


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


def simulate(model, steps: int, seed):
    """Sample one trajectory of the model per seed, all runs stepping together.

    With one int seed, returns (truth, inputs, measurements): truth has
    steps + 1 states starting at the initial one, inputs has one vector per
    step, and measurements maps 1-based step indices to noisy observations
    on the model's schedule.  Identical arguments give identical output,
    whatever the platform's default RNG does.

    With a sequence of seeds, every truth is a (runs, ...) stack of states
    and every measurement a (runs, p) array, and all runs share one f, one h
    and one renormalize call per step.  Each run draws all its noise in one
    standard_normal call from its own Philox generator and slices it in step
    order: step n's process noise, then its measurement noise when one is
    due.  Run r is bit-identical to simulate(model, steps, seed[r]).
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    Lq = _psd_sqrt(model.Q)
    Lr = _psd_sqrt(model.R)
    q = Lq.shape[0]
    p = Lr.shape[0]
    lead = np.shape(seed)
    draws = steps * q + steps // model.measure_every * p
    keys = seed if lead else [seed]
    z = np.array([np.random.Generator(np.random.Philox(key=s))
                  .standard_normal(draws) for s in keys])
    at = 0

    def noise(L):
        """L @ z per run for the next L.shape[0] draws of every run."""
        nonlocal at
        k = L.shape[0]
        out = np.array([L @ zr for zr in z[:, at:at + k]]).reshape(lead + (k,))
        at += k
        return out

    state = model.initial_truth if not lead else np.stack(
        [model.initial_truth] * lead[0])
    truth = [state]
    inputs = []
    measurements: Dict[int, np.ndarray] = {}
    for n in range(1, steps + 1):
        u = model.input_profile(n)
        state = model.f(state, u, noise(Lq))
        if n % _RENORM_EVERY == 0:
            state = model.renormalize(state)
        truth.append(state)
        inputs.append(u)
        if n % model.measure_every == 0:
            measurements[n] = model.h(state) + noise(Lr)
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
               seed: int = 0) -> RunRecord:
    """Filter one simulation; every step's error comes from one phi_inv call."""
    retr = model.retraction(retraction)
    beliefs = filter_run(model, inputs, measurements, retraction=retr)
    errors = retr.phi_inv(np.stack([b.mean for b in beliefs]), np.stack(truth[1:]))
    return RunRecord(seed, truth[1:], beliefs,
                     np.ascontiguousarray(errors, dtype=float))


def nees(record: RunRecord) -> np.ndarray:
    """Normalized estimation error squared, one value per step (and run)."""
    if not record.beliefs:
        return np.empty(0)
    return _nees(np.array([b.cov for b in record.beliefs]), record.errors, 1)


def _nees(covs, errors, first: int) -> np.ndarray:
    """errors^T covs^-1 errors over a stack of steps, the first of which is
    step `first`; a singular covariance raises SingularCovariance naming
    its step."""
    try:
        sol = np.linalg.solve(covs, errors[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for i, cov in enumerate(covs):  # name the first singular step
            try:
                np.linalg.solve(cov, errors[i][..., None])
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance(
                    f"singular covariance at step {first + i}") from exc
        raise
    return np.einsum("...j,...j->...", errors, sol)


def nees_band(dim: int, runs: int) -> Tuple[float, float]:
    """95% interval for the mean NEES of `runs` independent runs: the 2.5%
    and 97.5% quantiles of chi-square with dim * runs degrees of freedom,
    over runs.  The quantile is 2 gammaincinv(dof / 2, p), as scipy.stats
    computes it, without importing scipy.stats."""
    half_dof = dim * runs / 2
    return tuple(2 * float(scipy.special.gammaincinv(half_dof, p)) / runs
                 for p in (0.025, 0.975))


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


def _lockstep(model, retr, sim, alpha):
    """Filter the lockstep simulation `sim` (from simulate with a sequence
    of seeds) in one pass; per run its (errors, nees), or None if it
    diverged.  Raises what the pass raises.

    Every _CHUNK steps the buffered means go through one phi_inv call
    against the truth stack and their NEES through one batched solve; then
    the beliefs are dropped, so the pass holds one chunk of them.
    """
    truth, inputs, measurements = sim
    runs = len(truth[0])
    cov = np.asarray(model.initial_cov, dtype=float)
    initial = Belief(np.stack([model.initial_mean] * runs),
                     np.broadcast_to(cov, (runs,) + cov.shape))
    steps = len(inputs)
    errors = np.empty((steps, runs, retr.dim))  # C-contiguous, as NEES needs
    values = np.empty((steps, runs))
    chunk = []

    def reduce(end):
        start = end - len(chunk)
        errors[start:end] = retr.phi_inv(np.stack([b.mean for b in chunk]),
                                         np.stack(truth[start + 1:end + 1]))
        values[start:end] = _nees(np.array([b.cov for b in chunk]),
                                  errors[start:end], start + 1)
        chunk.clear()

    for step, belief in _filter_steps(model, inputs, measurements, retr,
                                      alpha, initial):
        chunk.append(belief)
        if len(chunk) == _CHUNK:
            reduce(step)
    if chunk:
        reduce(steps)
    out = []
    for r in range(runs):
        e, v = errors[:, r], values[:, r]
        bad = (not np.isfinite(e).all() or not np.isfinite(v).all()
               or float(v.max()) > DIVERGENCE_NEES)
        out.append(None if bad else (e, v))
    return out


def _outcomes(model, retr, sim):
    """Per run (errors, nees) or None: all runs in lockstep, or, if that
    pass raises, one run at a time on its slice of the simulation, so that
    only the failing runs diverge."""
    try:
        return _lockstep(model, retr, sim, model.alpha)
    except ManifoldUkfError:
        pass
    truth, inputs, measurements = sim
    out = []
    for r in range(len(truth[0])):
        one = np.s_[r:r + 1]
        try:
            out += _lockstep(model, retr, (
                [s[one] for s in truth], inputs,
                {n: y[one] for n, y in measurements.items()}), model.alpha)
        except ManifoldUkfError:
            out.append(None)
    return out


def benchmark(model, retractions: Sequence[Union[str, Retraction]], runs: int,
              seed: int, steps: int = 100,
              workers: Optional[int] = None) -> BenchmarkReport:
    """Compare retraction variants over `runs` independent simulations.

    Every variant sees the same simulated truth and measurements within a
    run.  Diverged runs (non-finite errors, NEES beyond 1e6, or a numerical
    failure inside the filter) are counted and excluded from RMSE / NEES
    aggregates.  All reported metrics depend only on (model, retractions,
    runs, seed, steps); the sigma-point spread is model.alpha.  `workers` is
    accepted and has no effect: the runs of a variant share one lockstep
    pass in this process.
    """
    if runs < 1:
        raise ValueError(f"runs must be positive, got {runs}")
    retrs = [model.retraction(r) for r in retractions]
    if not retrs:
        raise ValueError("need at least one retraction to benchmark")
    labels = tuple(lbl for lbl, _ in retrs[0].blocks)
    for r in retrs[1:]:
        if tuple(lbl for lbl, _ in r.blocks) != labels:
            raise ValueError("retraction variants must share block labels")
    blocks = retrs[0].blocks

    run_seeds = [int(s.generate_state(1)[0])
                 for s in np.random.SeedSequence(seed).spawn(runs)]
    sim = simulate(model, steps, run_seeds)

    filters = []
    for retr in retrs:
        t0 = time.perf_counter()
        good = [o for o in _outcomes(model, retr, sim) if o is not None]
        wall = time.perf_counter() - t0
        diverged = runs - len(good)
        slices = retr.block_slices()
        if good:
            E = np.array([e for e, _ in good])  # (valid, steps, dim)
            N = np.array([v for _, v in good])  # (valid, steps)
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
        alpha=model.alpha, times=model.dt * np.arange(1, steps + 1),
        blocks=blocks, filters=tuple(filters),
    )

