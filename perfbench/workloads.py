"""Workload definitions for the manifold_ukf benchmark.

A workload is a set of filter configurations.  Every workload is measured
the same two ways, so every end-to-end metric applies to every workload:

* online drive: one caller sends propagate/update one step at a time, in the
  order filter_run uses, and times each step (closed loop, one process);
* Monte-Carlo: benchmark() over the workload's models, once at workers=1 and
  once at workers=2 (closed loop: the next call starts when the last returns).

Inputs come only from the workload seed.  The reference outputs stored next
to this file were recorded for SLOTS input sets, so seeds that agree modulo
SLOTS give the same inputs; HELD_OUT_SEED is a slot kept out of tuning, for
confirming claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

import numpy as np

SLOTS = 12
HELD_OUT_SEED = 11
RENORM_EVERY = 1000  # filter_run's default; the drive must match it bit for bit


@dataclass(frozen=True)
class ModelConfig:
    name: str
    measure_every: int = 0        # 0 keeps the model's default schedule
    random_landmarks: int = 0     # slam2d: landmark count drawn from the seed


@dataclass(frozen=True)
class Workload:
    name: str
    models: Tuple[ModelConfig, ...]
    drive: Tuple[Tuple[str, str], ...]      # (model key, retraction) per pass
    # passes x pass_steps >= 1000, so that the p99 of the per-step latency
    # profile has at least 10 steps beyond it
    pass_steps: int
    mc: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (model key, retractions)
    mc_runs: int
    mc_steps: int
    # rounds of benchmark() calls per cycle, at each worker count; a call
    # is one opaque unit between two gauge samples, so its scaled time is
    # less exact than a drive pass's, and where the drive is the dear part
    # of a cycle, calls get more repetitions than passes
    mc_rounds: int


_HIGHDIM_MODELS = (
    ModelConfig("imu_gnss"),
    ModelConfig("inertial_nav"),
    ModelConfig("slam2d", random_landmarks=16),
)
_LOWDIM_MODELS = (
    ModelConfig("attitude3d", measure_every=1),
    ModelConfig("localization2d", measure_every=1),
    ModelConfig("pendulum_s2", measure_every=1),
)
_NAV_FAMILIES = ("se23_left", "se23_right", "so3xr6")

WORKLOADS = {
    w.name: w for w in (
        # Large d: propagate's sequential sigma-point loop is over 90% of a
        # step, so per-call costs in lie_groups, retraction and f dominate.
        # The Monte-Carlo calls include the acceptance-criterion-4 set:
        # inertial_nav under all three of its retraction families.
        Workload(
            name="highdim",
            models=_HIGHDIM_MODELS,
            drive=(("imu_gnss", "mixed_right"), ("inertial_nav", "se23_right"),
                   ("slam2d", "mixed_right")),
            pass_steps=334,
            mc=(("imu_gnss", ("mixed_right",)), ("slam2d", ("mixed_right",)),
                ("inertial_nav", _NAV_FAMILIES)),
            mc_runs=2,
            mc_steps=50,
            mc_rounds=2,
        ),
        # d=3 with an update every step: few propagations, so the update
        # path and fixed per-step costs weigh most; pendulum_s2's input table
        # makes make() the largest part of setup_s.
        Workload(
            name="lowdim_dense",
            models=_LOWDIM_MODELS,
            drive=(("attitude3d", "so3_left"), ("localization2d", "se2_left"),
                   ("pendulum_s2", "so3_right")),
            pass_steps=334,
            mc=(("attitude3d", ("so3_left",)), ("localization2d", ("se2_left",)),
                ("pendulum_s2", ("so3_right",))),
            mc_runs=4,
            mc_steps=100,
            mc_rounds=1,
        ),
    )
}


def slot_of(seed: int) -> int:
    return int(seed) % SLOTS


def _seeds(slot: int):
    """Independent integer seeds for one input set, in a fixed order."""
    for child in np.random.SeedSequence([0x6D756B66, slot]).spawn(64):
        yield int(child.generate_state(1)[0])


def landmark_map(slot: int, count: int) -> np.ndarray:
    """Landmarks scattered around the default slam2d turn (radius 3.3 m)."""
    rng = np.random.Generator(np.random.Philox(key=next(_seeds(slot))))
    return np.column_stack([rng.uniform(-6.0, 6.0, count),
                            rng.uniform(-3.0, 9.0, count)])


def build_models(workload: Workload, seed: int, mu):
    """make() every model of the workload; this is what setup_s times."""
    slot = slot_of(seed)
    out = {}
    for cfg in workload.models:
        params = {}
        if cfg.measure_every:
            params["measure_every"] = cfg.measure_every
        if cfg.random_landmarks:
            params["landmarks"] = mu.LandmarkSet(
                landmark_map(slot, cfg.random_landmarks))
        out[cfg.name] = mu.make(cfg.name, **params)
    return out


@dataclass(frozen=True)
class DrivePass:
    key: str            # reference key
    model_key: str
    retraction: str
    truth_final: object
    inputs: list
    measurements: dict


@dataclass(frozen=True)
class McCall:
    key: str
    model_key: str
    retractions: Tuple[str, ...]
    seed: int


def build_inputs(workload: Workload, seed: int, models, mu):
    """Drive passes (simulated inputs and measurements) and Monte-Carlo calls."""
    seeds = _seeds(slot_of(seed))
    next(seeds)  # the landmark map's
    passes = []
    for model_key, retr in workload.drive:
        truth, inputs, meas = mu.simulate(models[model_key], workload.pass_steps,
                                          next(seeds))
        passes.append(DrivePass(f"drive/{model_key}/{retr}", model_key, retr,
                                truth[-1], inputs, meas))
    calls = [McCall(f"mc/{model_key}", model_key, retrs, next(seeds))
             for model_key, retrs in workload.mc]
    return passes, calls


def drive(mu, model, retraction, inputs, measurements, on_step=None):
    """Step the filter one call at a time, exactly as filter_run does.

    With on_step given, calls it after each step with the step's latency in
    ns (propagate, its update if one is scheduled, and renormalization when
    due); its own time is not part of any step.
    """
    clock = time.perf_counter_ns
    retr = model.retraction(retraction)
    alpha = model.alpha
    belief = mu.Belief(model.initial_mean, model.initial_cov)
    for step, omega in enumerate(inputs, start=1):
        t0 = clock()
        belief = mu.propagate(belief, omega, model.f, model.Q, retr, alpha)
        y = measurements.get(step)
        if y is not None:
            belief = mu.update(belief, y, model.h, model.R, retr, alpha)
        if step % RENORM_EVERY == 0:
            belief = mu.Belief(model.renormalize(belief.mean), belief.cov)
        if on_step is not None:
            on_step(clock() - t0)
    return belief


def drive_outputs(model, p: DrivePass, belief):
    """What the reference stores for a pass: the final mean as its tangent
    offset from the simulated final truth, and the final covariance."""
    retr = model.retraction(p.retraction)
    return {
        "offset": np.asarray(retr.phi_inv(p.truth_final, belief.mean), dtype=float),
        "cov": np.asarray(belief.cov, dtype=float),
    }


def mc_outputs(report):
    """What the reference stores for a benchmark() call."""
    out = {}
    for flt in report.filters:
        for block, curve in flt.rmse.items():
            out[f"{flt.name}/rmse/{block}"] = np.asarray(curve, dtype=float)
        out[f"{flt.name}/nees"] = np.asarray(flt.mean_nees, dtype=float)
        out[f"{flt.name}/diverged"] = np.array([flt.diverged])
    return out
