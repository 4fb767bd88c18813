"""Monte-Carlo simulation and benchmarking of filter variants.

simulate() draws a ground-truth trajectory plus measurements from a
counter-based generator (Philox), fully determined by an integer seed, or
one per seed of a sequence, with each kind of noise (process, measurement)
scaled for every step and run in one stacked matvec.  benchmark() draws them
for independent per-run seeds and feeds the same simulated data to every
retraction variant (common random numbers), then aggregates RMSE per
tangent block, mean NEES and divergence counts.

All runs step in lockstep.  Every state is one ndarray, so a stack of runs
is one array and run r is index r, and every simulated or reduced quantity
is one array: the truth is (steps + 1, runs, ...), the inputs (steps, m),
the errors (steps, runs, dim) and the NEES (steps, runs).  simulate() steps
every run's truth through one f, one h and one renormalize call per step.
Each variant then filters all runs in one pass: the belief carries a run
axis, so each sigma-point call serves every run at once.  The pass is a
stream of beliefs, reduced every _CHUNK steps to errors and NEES and then
dropped (_scored, whose per-step stream `cli run` consumes too), so memory
grows with runs x steps x state size, plus one chunk of beliefs.
Each run's numbers are bit-identical to a pass of that run alone.  If the
lockstep pass raises, the variant is run again one run at a time, on that
run's column of the simulation, so that only the failing runs count as
diverged.  Wall-clock times are the only nondeterministic outputs and are
reported separately.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import lie_groups as lie
from .errors import ManifoldUkfError, SingularCovariance
from .retraction import Retraction, _psd_sqrt
from .sigma_core import _RENORM_EVERY, Belief, _filter_steps, _solve, filter_run

DIVERGENCE_NEES = 1e6
_CHUNK = 128  # steps of beliefs a lockstep pass buffers per reduction


def simulate(model, steps: int, seed):
    """Sample one trajectory of the model per seed, all runs stepping together.

    With one seed, an int >= 0, returns (truth, inputs, measurements): truth
    is one (steps + 1, ...) array of states, row 0 the initial one, inputs
    is model.inputs(steps) as returned, the (steps, m) array whose row n - 1
    drives step n, and measurements maps 1-based step indices to noisy
    observations on the model's schedule.  Identical arguments give
    identical output, whatever the platform's default RNG does.

    With a sequence of seeds, truth is (steps + 1, runs, ...), row n the
    stack of every run's state after step n, every measurement is a (runs,
    p) array, and all runs share one f, one h and one renormalize call per
    step.  Each run draws all its noise in one standard_normal call from its
    own Philox generator and slices it in step order: step n's process
    noise, then its measurement noise when one is due, both scaled before
    the loop.  Run r is bit-identical to simulate(model, steps, seed[r]).
    """
    steps = lie._check_int(steps, "steps")
    Lq = _psd_sqrt(model.Q)
    Lr = _psd_sqrt(model.R)
    q = Lq.shape[0]
    p = Lr.shape[0]
    try:
        lead = np.shape(seed)
    except ValueError:
        raise ValueError(f"seed must be an int >= 0 or a sequence of them, got {seed!r}") from None
    every = model.measure_every
    draws = steps * q + steps // every * p
    keys = [lie._check_int(s, "seed", 0) for s in (seed if lead else [seed])]
    z = np.array([np.random.Generator(np.random.Philox(key=s))
                  .standard_normal(draws) for s in keys])
    # L @ z for every step and run, one matmul per kind of noise with the
    # draws as columns: each run's own L @ z_r to the bit (z @ L.T is not)
    i = np.arange(steps)
    first = i * q + i // every * p  # step i + 1's first draw
    w_q, w_r = [np.matmul(L, z[:, at[:, None] + np.arange(len(L))].swapaxes(0, 1)[..., None])
                [..., 0].reshape(at.shape + lead + (len(L),))
                for L, at in ((Lq, first), (Lr, first[every - 1::every] + q))]

    state = model.initial_truth if not lead else np.stack(
        [model.initial_truth] * lead[0])
    truth = np.empty((steps + 1,) + np.shape(state))
    truth[0] = state
    inputs = model.inputs(steps)
    measurements: Dict[int, np.ndarray] = {}
    for n, u in enumerate(inputs, start=1):
        state = model.f(state, u, w_q[n - 1])
        if n % _RENORM_EVERY == 0:
            state = model.renormalize(state)
        truth[n] = state
        if n % every == 0:
            measurements[n] = model.h(state) + w_r[n // every - 1]
    return truth, inputs, measurements


@dataclass(frozen=True)
class RunRecord:
    """One filter pass against its simulated truth.

    errors[n] is phi_inv at the estimate of the true state after step n + 1,
    i.e. the tangent-space estimation error in the filter's own coordinates.
    """

    beliefs: List[Belief]
    errors: np.ndarray


def run_record(model, retraction, truth, inputs, measurements) -> RunRecord:
    """Filter one simulation; every step's error comes from one phi_inv call."""
    retr = model.retraction(retraction)
    beliefs = filter_run(model, inputs, measurements, retraction=retr)
    errors = retr.phi_inv(np.stack([b.mean for b in beliefs]), truth[1:])
    return RunRecord(beliefs, np.ascontiguousarray(errors, dtype=float))


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
        sol = _solve(covs, errors[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for i, cov in enumerate(covs):  # name the first singular step
            try:
                np.linalg.solve(cov, errors[i][..., None])
            except np.linalg.LinAlgError as exc:
                raise SingularCovariance(
                    f"singular covariance at step {first + i}") from exc
        raise
    return np.einsum("...j,...j->...", errors, sol)


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
    runs: int
    seed: int
    alpha: float
    times: np.ndarray
    blocks: Tuple[Tuple[str, int], ...]
    filters: Tuple[FilterReport, ...]


def _scored(model, retr, sim, initial):
    """The filter pass from `initial` over sim = (truth, inputs,
    measurements): yields (belief, errors, nees) per step.  The steps are
    reduced one chunk of up to _CHUNK at a time: a chunk's means go through
    one phi_inv call against the truth and their NEES through one batched
    solve; with truth None (a recorded log) both are NaN.  A chunk's list of
    beliefs is released before its steps are yielded, so the pass holds one
    chunk.
    """
    truth, inputs, measurements = sim
    stream = _filter_steps(model, inputs, measurements, retr, initial)
    first = 1
    while beliefs := list(itertools.islice(stream, _CHUNK)):
        end = first + len(beliefs)
        if truth is None:
            errors = np.full((len(beliefs),) + beliefs[0].cov.shape[:-1],
                             np.nan)
            values = np.full(errors.shape[:-1], np.nan)
        else:  # C-contiguous, as NEES needs
            errors = np.ascontiguousarray(retr.phi_inv(
                np.stack([b.mean for b in beliefs]), truth[first:end]),
                dtype=float)
            values = _nees(np.array([b.cov for b in beliefs]), errors, first)
        steps = zip(beliefs, errors, values)
        del beliefs  # the zip drops the list once it has run through it
        yield from steps
        first = end


def _outcomes(model, retr, sim):
    """The (steps, runs, dim) errors and (steps, runs) NEES of the lockstep
    simulation `sim` (from simulate with a sequence of seeds), from one pass
    of _scored over all runs or, if that pass raises, from one pass per run
    on its column of the simulation, a run that raises on its own reading
    NaN."""
    truth, inputs, measurements = sim
    runs = truth.shape[1]
    cov = np.asarray(model.initial_cov, dtype=float)
    errors = np.empty((len(inputs), runs, retr.dim))
    values = np.empty((len(inputs), runs))
    for cols in [np.s_[:]] + [np.s_[r:r + 1] for r in range(runs)]:
        part = (truth[:, cols], inputs, {k: y[cols] for k, y in measurements.items()})
        n = part[0].shape[1]
        initial = Belief(np.stack([model.initial_mean] * n),
                         np.broadcast_to(cov, (n,) + cov.shape))
        try:
            for i, (_, e, v) in enumerate(_scored(model, retr, part, initial)):
                errors[i, cols], values[i, cols] = e, v
            if cols == np.s_[:]:
                break  # the lockstep pass went through: no reruns
        except ManifoldUkfError:
            errors[:, cols] = values[:, cols] = np.nan
    return errors, values


def benchmark(model, retractions: Sequence[Union[str, Retraction]], runs: int,
              seed: int, steps: int = 100,
              workers: Optional[int] = None) -> BenchmarkReport:
    """Compare retraction variants over `runs` independent simulations.

    Every variant sees the same simulated truth and measurements within a
    run.  Diverged runs (non-finite errors, NEES beyond 1e6, or a numerical
    failure inside the filter) are counted and excluded from RMSE / NEES
    aggregates, NaN if no run is valid.  All reported metrics depend only on
    (model, retractions, runs, seed >= 0, steps); the sigma-point spread is
    model.alpha.  `workers` is accepted and has no effect: the runs of a
    variant share one lockstep pass in this process.
    """
    runs, seed = lie._check_int(runs, "runs"), lie._check_int(seed, "seed", 0)
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
        errors, values = _outcomes(model, retr, sim)
        wall = time.perf_counter() - t0
        good = (np.isfinite(errors).all(axis=(0, 2))
                & (values.max(axis=0) <= DIVERGENCE_NEES))  # so does a NaN NEES
        valid = int(good.sum())
        E = errors.transpose(1, 0, 2)[good]  # (valid, steps, dim)
        with np.errstate(invalid="ignore"):  # no valid run: 0 / 0 is NaN
            rmse = {lbl: np.sqrt(np.add.reduce(np.sum(E[..., span] ** 2, axis=2), 0) / valid)
                    for lbl, span in retr.block_slices().items()}
            mean_nees = np.add.reduce(values.T[good], axis=0) / valid
        filters.append(FilterReport(
            name=retr.name, rmse=rmse, mean_nees=mean_nees,
            diverged=runs - valid, valid_runs=valid, wall_clock_s=wall,
        ))

    return BenchmarkReport(
        model=model.name, steps=steps, runs=runs, seed=seed,
        alpha=model.alpha, times=model.dt * np.arange(1, steps + 1),
        blocks=blocks, filters=tuple(filters),
    )

