"""Monte-Carlo simulation and benchmarking of filter variants.

simulate() draws one ground-truth trajectory plus measurements from a
counter-based generator (Philox), fully determined by an integer seed.
benchmark() repeats that over independent per-run seeds and feeds the same
simulated data to every retraction variant (common random numbers), then
aggregates RMSE per tangent block, mean NEES and divergence counts.

All runs of one variant step in lockstep through a single filter pass: the
belief carries a run axis, so each sigma-point call serves every run at
once, and each run's numbers are bit-identical to a pass of that run alone.
If the lockstep pass raises, the variant is run again one run at a time, so
that only the failing runs count as diverged.  Wall-clock times are the
only nondeterministic outputs and are reported separately.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.stats

from .errors import ManifoldUkfError, SingularCovariance
from .retraction import Retraction
from .sigma_core import _RENORM_EVERY, Belief, filter_run

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
        if n % _RENORM_EVERY == 0:
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
    A lockstep pass over several runs has per-step states and beliefs with a
    run axis and errors of shape (steps, runs, dim).
    """

    seed: int
    truth: list
    beliefs: List[Belief]
    errors: np.ndarray


def _stack(states):
    """A list of states as one stack along a new axis 0; dataclass states
    (MixedState) field by field."""
    first = states[0]
    if dataclasses.is_dataclass(first):
        return type(first)(*(_stack([getattr(s, f.name) for s in states])
                             for f in dataclasses.fields(first)))
    return np.stack(states)


def run_record(model, retraction, truth, inputs, measurements,
               alpha: Optional[float] = None, seed: int = 0,
               initial: Optional[Belief] = None) -> RunRecord:
    """Filter one simulation, or a lockstep stack of them when `initial`
    holds a stack of means and covariances with a run axis, and map every
    step's error in one phi_inv call."""
    retr = model.retraction(retraction)
    beliefs = filter_run(model, inputs, measurements, retraction=retr,
                         alpha=alpha, initial=initial)
    errors = retr.phi_inv(_stack([b.mean for b in beliefs]), _stack(truth[1:]))
    return RunRecord(seed, truth[1:], beliefs,
                     np.ascontiguousarray(errors, dtype=float))


def nees(record: RunRecord) -> np.ndarray:
    """Normalized estimation error squared, one value per step (and run)."""
    if not record.beliefs:
        return np.empty(0)
    covs = np.array([b.cov for b in record.beliefs])
    errors = record.errors
    try:
        sol = np.linalg.solve(covs, errors[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for i, cov in enumerate(covs):  # name the first singular step
            try:
                np.linalg.solve(cov, errors[i][..., None])
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance(
                    f"singular covariance at step {i + 1}") from exc
        raise
    return np.einsum("...j,...j->...", errors, sol)


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


def _lockstep(model, retr, sims, alpha):
    """Filter the simulations `sims` in one lockstep pass; per run its
    (errors, nees), or None if it diverged.  Raises what the pass raises."""
    truth = [_stack(states) for states in zip(*(t for t, _, _ in sims))]
    # inputs depend on the step alone, so every run shares the first's
    inputs = sims[0][1]
    measurements = {n: np.stack([m[n] for _, _, m in sims]) for n in sims[0][2]}
    cov = np.asarray(model.initial_cov, dtype=float)
    initial = Belief(_stack([model.initial_mean] * len(sims)),
                     np.broadcast_to(cov, (len(sims),) + cov.shape))
    record = run_record(model, retr, truth, inputs, measurements, alpha=alpha,
                        initial=initial)
    nees_vals = nees(record)
    out = []
    for r in range(len(sims)):
        errors, values = record.errors[:, r], nees_vals[:, r]
        bad = (not np.isfinite(errors).all() or not np.isfinite(values).all()
               or float(values.max()) > DIVERGENCE_NEES)
        out.append(None if bad else (errors, values))
    return out


def _outcomes(model, retr, sims, alpha):
    """Per run (errors, nees) or None: all runs in lockstep, or, if that
    pass raises, one run at a time so that only the failing runs diverge."""
    try:
        return _lockstep(model, retr, sims, alpha)
    except ManifoldUkfError:
        pass
    out = []
    for sim in sims:
        try:
            out += _lockstep(model, retr, [sim], alpha)
        except ManifoldUkfError:
            out.append(None)
    return out


def benchmark(model, retractions: Sequence[Union[str, Retraction]], runs: int,
              seed: int, steps: int = 100, alpha: Optional[float] = None,
              workers: Optional[int] = None) -> BenchmarkReport:
    """Compare retraction variants over `runs` independent simulations.

    Every variant sees the same simulated truth and measurements within a
    run.  Diverged runs (non-finite errors, NEES beyond 1e6, or a numerical
    failure inside the filter) are counted and excluded from RMSE / NEES
    aggregates.  All reported metrics depend only on (model, retractions,
    runs, seed, steps, alpha).  `workers` is accepted and has no effect:
    the runs of a variant share one lockstep pass in this process.
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
    if alpha is None:
        alpha = model.alpha

    run_seeds = [int(s.generate_state(1)[0])
                 for s in np.random.SeedSequence(seed).spawn(runs)]
    sims = [simulate(model, steps, rs) for rs in run_seeds]

    filters = []
    for retr in retrs:
        t0 = time.perf_counter()
        good = [o for o in _outcomes(model, retr, sims, alpha) if o is not None]
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
        alpha=alpha, times=model.dt * np.arange(1, steps + 1),
        blocks=blocks, filters=tuple(filters),
    )

