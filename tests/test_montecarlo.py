"""Simulation determinism, metric aggregation and benchmark reproducibility."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from manifold_ukf import montecarlo
from manifold_ukf.errors import (
    FilterStepError,
    NonPSDCovariance,
    NotARotation,
    SingularCovariance,
)
from manifold_ukf.models import ModelSpec, example_names, make
from manifold_ukf.montecarlo import (
    DIVERGENCE_NEES,
    RunRecord,
    _psd_sqrt,
    _scored,
    benchmark,
    nees,
    run_record,
    simulate,
)
from manifold_ukf.retraction import Retraction, additive_retraction
from manifold_ukf.sigma_core import Belief, filter_run

from oracles import nees_band, simulate_per_run


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic():
    model = make("localization2d")
    t1, u1, m1 = simulate(model, 40, seed=7)
    t2, u2, m2 = simulate(model, 40, seed=7)
    assert len(t1) == 41 and len(u1) == 40
    for a, b in zip(t1, t2):
        assert np.array_equal(a, b)
    assert m1.keys() == m2.keys()
    for k in m1:
        assert np.array_equal(m1[k], m2[k])


def test_simulate_seed_changes_output():
    model = make("localization2d")
    t1, _, _ = simulate(model, 40, seed=7)
    t2, _, _ = simulate(model, 40, seed=8)
    assert not np.array_equal(t1[-1], t2[-1])


def test_simulate_noise_free_measurements_match_h():
    model = make("localization2d", odo_std=(0.0, 0.0, 0.0), gnss_std=0.0)
    truth, _, measurements = simulate(model, 30, seed=3)
    assert set(measurements) == {10, 20, 30}
    for n, y in measurements.items():
        assert np.array_equal(y, model.h(truth[n]))


def test_simulate_measurement_schedule():
    model = make("attitude3d", measure_every=7)
    _, _, measurements = simulate(model, 30, seed=0)
    assert sorted(measurements) == [7, 14, 21, 28]


def _simulation_model(name, every):
    model = _full_noise_linear_model() if name == "linear3" else make(name)
    return dataclasses.replace(model, measure_every=every)


@pytest.mark.parametrize("seed", [5, [7], [1, 2, 3]], ids=["int", "one-seed", "three-seeds"])
@pytest.mark.parametrize("every, steps", [(1, 7), (3, 11), (6, 4), (4, 1002)])
@pytest.mark.parametrize("name", [*example_names(), "linear3"])
def test_simulate_equals_its_per_run_noise_loop(name, every, steps, seed):
    """The stacked draws give each step and run the noise of the per-run
    L @ z_r loop, bit for bit: measure_every 1 and > 1, a step count that is
    not a multiple of it, fewer steps than it (no measurement) and a run
    across step 1000, where the truth is renormalized."""
    model = _simulation_model(name, every)
    truth, inputs, measurements = simulate(model, steps, seed)
    ref_truth, ref_inputs, ref_measurements = simulate_per_run(model, steps, seed)
    assert truth.shape == ref_truth.shape and truth.tobytes() == ref_truth.tobytes()
    assert inputs.tobytes() == ref_inputs.tobytes()
    assert list(measurements) == list(ref_measurements) == list(range(every, steps + 1, every))
    for n, y in measurements.items():
        assert y.shape == ref_measurements[n].shape
        assert y.tobytes() == ref_measurements[n].tobytes()


@pytest.mark.parametrize("name", example_names())
def test_simulate_is_a_prefix_of_a_longer_simulate(name):
    """Each run draws its noise in step order and the inputs are one
    sequence, so a shorter simulation is the start of a longer one."""
    model = make(name)
    truth, inputs, measurements = simulate(model, 30, 5)
    long_truth, long_inputs, long_measurements = simulate(model, 60, 5)
    assert np.array_equal(truth, long_truth[:31])
    assert np.array_equal(inputs, long_inputs[:30])
    assert measurements.keys() == {n for n in long_measurements if n <= 30}
    for n, y in measurements.items():
        assert np.array_equal(y, long_measurements[n])


# ---------------------------------------------------------------------------
# NEES


def _toy_record(errors, covs):
    beliefs = [Belief(np.zeros(2), P) for P in covs]
    return RunRecord(beliefs, np.asarray(errors, dtype=float))


def test_nees_identity_covariance():
    rec = _toy_record([[1.0, 0.0], [3.0, 4.0]], [np.eye(2), np.eye(2)])
    assert np.allclose(nees(rec), [1.0, 25.0], atol=1e-14)
    assert nees(_toy_record(np.empty((0, 2)), [])).shape == (0,)  # no steps


def test_nees_scales_with_covariance():
    rec = _toy_record([[2.0, 0.0]], [np.diag([4.0, 1.0])])
    assert abs(nees(rec)[0] - 1.0) < 1e-14


def test_nees_singular_covariance():
    rec = _toy_record([[1.0, 1.0]], [np.zeros((2, 2))])
    with pytest.raises(SingularCovariance):
        nees(rec)


def test_nees_names_first_singular_step():
    covs = [np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2))]
    rec = _toy_record([[1.0, 0.0]] * 3, covs)
    with pytest.raises(SingularCovariance, match="at step 2$"):
        nees(rec)


def test_nees_matches_per_step_solve():
    rng = np.random.Generator(np.random.Philox(key=5))
    A = rng.standard_normal((6, 3, 3))
    covs = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(3)
    errors = rng.standard_normal((6, 3))
    expected = [e @ np.linalg.solve(P, e) for e, P in zip(errors, covs)]
    assert np.abs(nees(_toy_record(errors, covs)) - expected).max() < 1e-12


def test_simulate_and_benchmark_reject_nonpositive_steps():
    model = make("attitude3d")
    with pytest.raises(ValueError, match="steps must be positive"):
        simulate(model, 0, seed=0)
    with pytest.raises(ValueError, match="steps must be positive"):
        benchmark(model, ["so3_left"], runs=2, seed=0, steps=-1, workers=1)


@pytest.mark.parametrize("count", [2.5, 2.0, True, np.True_, "3", None])
def test_simulate_and_benchmark_take_counts_as_ints_only(count):
    """Not numpy's raw TypeError, a float truncated or True run as one step."""
    model = make("attitude3d")
    with pytest.raises(ValueError, match="^steps must be positive"):
        simulate(model, count, seed=0)
    with pytest.raises(ValueError, match="^steps must be positive"):
        benchmark(model, ["so3_left"], runs=2, seed=0, steps=count)
    with pytest.raises(ValueError, match="^runs must be positive"):
        benchmark(model, ["so3_left"], runs=count, seed=0, steps=3)
    truth, inputs, _ = simulate(model, np.int64(3), seed=0)
    assert truth.shape[0] == 4 and len(inputs) == 3


def test_nees_band_brackets_dimension():
    lo, hi = nees_band(3, 100)
    assert lo < 3.0 < hi
    lo2, hi2 = nees_band(3, 1000)
    assert lo < lo2 < 3.0 < hi2 < hi  # more runs, tighter band


def test_nees_band_is_the_chi_square_quantiles():
    import scipy.stats
    for dim in (1, 2, 3, 9, 11, 15, 131):
        for runs in (1, 2, 7, 20, 50, 100, 1000):
            assert nees_band(dim, runs) == tuple(
                float(scipy.stats.chi2.ppf(p, dim * runs)) / runs
                for p in (0.025, 0.975))


def test_import_does_not_load_scipy_stats():
    """Nor any other part of scipy, at import or later: a fresh process
    that filters with an update every step and runs a benchmark ends with
    no scipy module loaded, so a lazy import would fail this too."""
    code = """
import sys
import manifold_ukf as mu
model = mu.make("attitude3d", measure_every=1)
truth, inputs, measurements = mu.simulate(model, 20, 0)
mu.filter_run(model, inputs, measurements)
mu.benchmark(model, ["so3_left"], runs=2, seed=0, steps=20)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# benchmark aggregation


def test_benchmark_single_run_reduces_to_run_record():
    model = make("localization2d")
    report = benchmark(model, ["se2_left"], runs=1, seed=11, steps=30,
                       workers=1)
    run_seed = int(np.random.SeedSequence(11).spawn(1)[0].generate_state(1)[0])
    truth, inputs, measurements = simulate(model, 30, run_seed)
    rec = run_record(model, "se2_left", truth, inputs, measurements)
    flt = report.filters[0]
    slices = model.retraction("se2_left").block_slices()
    for lbl, sl in slices.items():
        expected = np.sqrt(np.sum(rec.errors[:, sl] ** 2, axis=1))
        assert np.array_equal(flt.rmse[lbl], expected)
    assert np.array_equal(flt.mean_nees, nees(rec))
    assert flt.diverged == 0 and flt.valid_runs == 1


def test_benchmark_identical_variants_identical_columns():
    model = make("localization2d")
    retr = model.retraction("se2_right")
    clone = Retraction(name="se2_right_clone", dim=retr.dim, phi=retr.phi,
                       phi_inv=retr.phi_inv, blocks=retr.blocks)
    report = benchmark(model, [retr, clone], runs=3, seed=5, steps=25,
                       workers=1)
    a, b = report.filters
    assert a.name != b.name
    for lbl in a.rmse:
        assert np.array_equal(a.rmse[lbl], b.rmse[lbl])
    assert np.array_equal(a.mean_nees, b.mean_nees)
    assert (a.diverged, a.valid_runs) == (b.diverged, b.valid_runs)


def test_benchmark_serial_parallel_identical():
    model = make("localization2d")
    kwargs = dict(runs=2, seed=9, steps=25)
    serial = benchmark(model, ["se2_left", "se2_right"], workers=1, **kwargs)
    parallel = benchmark(model, ["se2_left", "se2_right"], workers=2, **kwargs)
    for fs, fp in zip(serial.filters, parallel.filters):
        for lbl in fs.rmse:
            assert np.array_equal(fs.rmse[lbl], fp.rmse[lbl])
        assert np.array_equal(fs.mean_nees, fp.mean_nees)
        assert fs.diverged == fp.diverged


def test_benchmark_divergent_variant_counted_and_excluded():
    model = make("localization2d")
    good = model.retraction("se2_left")

    def exploding_phi_inv(ref, state):
        raise NonPSDCovariance("forced failure")

    bad = Retraction(name="broken", dim=good.dim, phi=good.phi,
                     phi_inv=exploding_phi_inv, blocks=good.blocks)
    report = benchmark(model, [good, bad], runs=2, seed=1, steps=10, workers=1)
    ok, broken = report.filters
    assert ok.diverged == 0 and ok.valid_runs == 2
    assert broken.diverged == 2 and broken.valid_runs == 0
    assert all(np.isnan(broken.rmse[lbl]).all() for lbl in broken.rmse)
    assert np.isnan(broken.mean_nees).all()
    # the healthy variant's numbers are unaffected by the broken one
    alone = benchmark(model, [good], runs=2, seed=1, steps=10, workers=1)
    for lbl in ok.rmse:
        assert np.array_equal(ok.rmse[lbl], alone.filters[0].rmse[lbl])


def test_benchmark_counts_linalg_error_as_divergence():
    model = make("localization2d")
    good = model.retraction("se2_left")

    def singular_phi(state, xi):
        raise np.linalg.LinAlgError("singular matrix")

    bad = Retraction(name="singular", dim=good.dim, phi=singular_phi,
                     phi_inv=good.phi_inv, blocks=good.blocks)
    report = benchmark(model, [good, bad], runs=2, seed=1, steps=10, workers=1)
    ok, broken = report.filters
    assert ok.diverged == 0 and ok.valid_runs == 2
    assert broken.diverged == 2 and broken.valid_runs == 0


def test_benchmark_report_metadata():
    model = make("localization2d", dt=0.2)
    report = benchmark(model, ["se2_left"], runs=1, seed=0, steps=8, workers=1)
    assert report.model == "localization2d"
    assert report.steps == 8 and report.runs == 1 and report.seed == 0
    assert np.allclose(report.times, 0.2 * np.arange(1, 9), atol=1e-15)
    assert report.blocks == (("rot", 1), ("pos", 2))
    assert report.filters[0].wall_clock_s > 0.0


def test_benchmark_rejects_bad_arguments():
    model = make("localization2d")
    with pytest.raises(ValueError):
        benchmark(model, ["se2_left"], runs=0, seed=0)
    with pytest.raises(ValueError):
        benchmark(model, [], runs=1, seed=0)
    mismatched = Retraction(
        name="other_blocks", dim=3,
        phi=model.retraction("se2_left").phi,
        phi_inv=model.retraction("se2_left").phi_inv,
    )
    with pytest.raises(ValueError):
        benchmark(model, ["se2_left", mismatched], runs=1, seed=0)


def test_benchmark_distinct_variants_differ():
    model = make("inertial_nav")
    report = benchmark(model, ["se23_right", "so3xr6"], runs=2, seed=4,
                       steps=20, workers=1)
    a, b = report.filters
    assert not np.array_equal(a.rmse["pos"], b.rmse["pos"])


# ---------------------------------------------------------------------------
# lockstep runs


def _run_seeds(seed, runs):
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(runs)]


def _lockstep(model, retr, sim):
    """The (steps, runs, dim) errors and (steps, runs) NEES of one pass of
    _scored over every run of the lockstep simulation `sim`; raises what the
    pass raises."""
    runs = sim[0].shape[1]
    cov = np.asarray(model.initial_cov, dtype=float)
    initial = Belief(np.stack([model.initial_mean] * runs),
                     np.broadcast_to(cov, (runs,) + cov.shape))
    _, errors, values = zip(*_scored(model, retr, sim, initial))
    return np.array(errors), np.array(values)


def _aggregate(model, retr, records):
    """benchmark()'s RMSE and mean NEES over one-run records."""
    E = np.array([rec.errors for rec in records])
    rmse = {lbl: np.sqrt(np.mean(np.sum(E[:, :, sl] ** 2, axis=2), axis=0))
            for lbl, sl in model.retraction(retr).block_slices().items()}
    return rmse, np.array([nees(rec) for rec in records]).mean(axis=0)


def _assert_report_matches(flt, rmse, mean_nees):
    for lbl in rmse:
        assert np.array_equal(flt.rmse[lbl], rmse[lbl])
    assert np.array_equal(flt.mean_nees, mean_nees)


PAIRS = [(name, retr) for name in example_names()
         for retr in sorted(make(name).retractions)]


@pytest.mark.parametrize("name,retr", PAIRS)
def test_lockstep_runs_equal_single_runs(name, retr):
    """Per-run errors and NEES of a lockstep pass, and benchmark()'s
    aggregates, equal one-run records bit for bit."""
    model = make(name)
    sims = [simulate(model, 30, s) for s in _run_seeds(7, 3)]
    records = [run_record(model, retr, *sim) for sim in sims]
    errors, values = _lockstep(model, model.retraction(retr),
                               simulate(model, 30, _run_seeds(7, 3)))
    for r, rec in enumerate(records):
        assert np.array_equal(errors[:, r], rec.errors)
        assert np.array_equal(values[:, r], nees(rec))
    report = benchmark(model, [retr], runs=3, seed=7, steps=30)
    assert report.filters[0].diverged == 0
    _assert_report_matches(report.filters[0], *_aggregate(model, retr, records))


def test_benchmark_one_failing_run_diverges_alone():
    """A callable that raises on one run's data fails the lockstep pass; the
    rerun one run at a time counts that run alone as diverged."""
    model = make("localization2d")
    good = model.retraction("se2_left")
    sims = [simulate(model, 20, s) for s in _run_seeds(5, 3)]
    marker = sims[1][0][-1]  # run 1's final true state

    def picky_phi_inv(ref, state):
        if np.all(np.asarray(state) == marker, axis=(-2, -1)).any():
            raise NonPSDCovariance("forced failure on run 1")
        return good.phi_inv(ref, state)

    picky = Retraction(name="picky", dim=good.dim, phi=good.phi,
                       phi_inv=picky_phi_inv, blocks=good.blocks)
    report = benchmark(model, [good, picky], runs=3, seed=5, steps=20)
    ok, flt = report.filters
    assert (ok.diverged, flt.diverged, flt.valid_runs) == (0, 1, 2)
    records = [run_record(model, good, *sims[r]) for r in (0, 2)]
    _assert_report_matches(flt, *_aggregate(model, "se2_left", records))


@pytest.mark.parametrize("kind", ["scaled", "reflected", "nan"])
@pytest.mark.parametrize("name,d", [("attitude3d", 3), ("localization2d", 2)])
def test_bad_state_from_f_diverges_its_run_alone(name, d, kind):
    """f turns run 1's new mean at step 7 into a non-rotation: the lockstep
    pass of _scored fails at step 7 with NotARotation, and benchmark()
    counts run 1 alone as diverged."""
    model = make(name, measure_every=2)
    retr = model.retraction()
    seeds = _run_seeds(5, 3)
    sims = [simulate(model, 10, s) for s in seeds]
    marker = filter_run(model, *sims[1][1:])[5].mean  # run 1 entering step 7

    def f(state, omega, w):
        out = np.array(model.f(state, omega, w))
        # the zero-noise image of run 1's mean makes its new mean
        hit = (np.all(np.asarray(state) == marker, axis=(-2, -1))
               & ~np.any(w, axis=-1))
        if kind == "scaled":
            out[hit, :d, :d] *= 1.01
        elif kind == "reflected":
            out[hit, d - 1, :] *= -1.0
        else:
            out[hit, :d, :d] = np.nan
        return out

    bad = dataclasses.replace(model, f=f)
    with pytest.raises(FilterStepError) as exc_info:
        _lockstep(bad, retr, simulate(bad, 10, seeds))
    assert exc_info.value.step == 7
    assert isinstance(exc_info.value.cause, NotARotation)
    flt = benchmark(bad, [retr], runs=3, seed=5, steps=10).filters[0]
    assert (flt.diverged, flt.valid_runs) == (1, 2)
    records = [run_record(model, retr, *sims[r]) for r in (0, 2)]
    _assert_report_matches(flt, *_aggregate(model, retr.name, records))


def test_benchmark_long_run_matches_filter_run():
    """1000 steps cross the renormalization step of the stacked means."""
    model = make("attitude3d")
    report = benchmark(model, ["so3_left"], runs=2, seed=3, steps=1000)
    records = [run_record(model, "so3_left", *simulate(model, 1000, s))
               for s in _run_seeds(3, 2)]
    assert report.filters[0].diverged == 0
    _assert_report_matches(report.filters[0],
                           *_aggregate(model, "so3_left", records))


# ---------------------------------------------------------------------------
# lockstep simulation


def _assert_lockstep_simulation_is_simulate(model, steps, seeds):
    truth, inputs, measurements = simulate(model, steps, seeds)
    for r, seed in enumerate(seeds):
        t1, u1, m1 = simulate(model, steps, seed)
        assert len(truth) == len(t1) == steps + 1
        for stack, state in zip(truth, t1):
            assert np.array_equal(stack[r], state)
        assert len(inputs) == len(u1)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, u1))
        assert measurements.keys() == m1.keys()
        for n, y in m1.items():
            assert np.array_equal(measurements[n][r], y)


def _full_noise_linear_model():
    """Three states, two measurements, full non-diagonal F, Q and R.  f and
    h take one matrix-vector product per state, so that each run of a stack
    rounds as it does alone (a (runs, 3) @ (3, 3) product does not)."""
    F = np.array([[1.0, 0.1, 0.02], [-0.05, 0.98, 0.1], [0.01, -0.1, 0.97]])
    H = np.array([[1.0, 0.3, -0.2], [0.1, -0.4, 1.0]])
    A = np.array([[0.3, 0.1, -0.2], [0.05, 0.2, 0.1], [-0.1, 0.15, 0.25]])
    B = np.array([[0.5, 0.2], [-0.1, 0.3]])
    retr = additive_retraction(3)
    return ModelSpec(
        name="linear3", f=lambda x, u, w: (F @ x[..., None])[..., 0] + u + w,
        h=lambda x: (H @ x[..., None])[..., 0],
        Q=A @ A.T, R=B @ B.T, dt=1.0, retractions={"additive": retr},
        default_retraction="additive", initial_truth=np.array([1.0, -2.0, 0.5]),
        initial_mean=np.zeros(3), initial_cov=np.eye(3),
        inputs=lambda steps: np.array([[0.01 * n, 0.0, -0.02]
                                       for n in range(1, steps + 1)]),
        measure_every=3)


@pytest.mark.parametrize("name", example_names())
def test_lockstep_simulation_equals_simulate(name):
    _assert_lockstep_simulation_is_simulate(make(name), 60, _run_seeds(2, 3))


def test_lockstep_simulation_full_noise_linear_model():
    model = _full_noise_linear_model()
    assert np.count_nonzero(model.Q) == 9 and np.count_nonzero(model.R) == 4
    _assert_lockstep_simulation_is_simulate(model, 50, _run_seeds(4, 3))


def test_lockstep_simulation_crosses_renormalization():
    _assert_lockstep_simulation_is_simulate(make("attitude3d"), 1005,
                                            _run_seeds(6, 2))


def test_lockstep_simulation_without_measurements():
    model = make("imu_gnss")
    steps = model.measure_every - 1
    _assert_lockstep_simulation_is_simulate(model, steps, _run_seeds(8, 3))
    assert simulate(model, steps, _run_seeds(8, 3))[2] == {}
    report = benchmark(model, ["mixed_right"], runs=3, seed=8, steps=steps)
    assert report.filters[0].diverged == 0


# ---------------------------------------------------------------------------
# streaming reduction


@pytest.mark.parametrize("name,retr", PAIRS)
def test_lockstep_chunks_equal_single_runs(monkeypatch, name, retr):
    """Chunk boundaries inside the run leave every run's errors and NEES
    bit-identical to its one-run record."""
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    model = make(name)
    seeds = _run_seeds(3, 2)
    errors, values = _lockstep(model, model.retraction(retr),
                               simulate(model, 30, seeds))
    assert np.isfinite(errors).all() and (values <= DIVERGENCE_NEES).all()
    for r, seed in enumerate(seeds):
        rec = run_record(model, retr, *simulate(model, 30, seed))
        assert np.array_equal(errors[:, r], rec.errors)
        assert np.array_equal(values[:, r], nees(rec))


def test_run_failing_in_second_chunk_diverges_alone(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 7)
    model = make("localization2d")
    good = model.retraction("se2_left")
    seeds = _run_seeds(5, 3)
    marker = simulate(model, 20, seeds)[0][10][1]  # run 1, step 10

    def picky_phi_inv(ref, state):
        if np.all(np.asarray(state) == marker, axis=(-2, -1)).any():
            raise NonPSDCovariance("forced failure on run 1")
        return good.phi_inv(ref, state)

    picky = Retraction(name="picky", dim=good.dim, phi=good.phi,
                       phi_inv=picky_phi_inv, blocks=good.blocks)
    report = benchmark(model, [good, picky], runs=3, seed=5, steps=20)
    ok, flt = report.filters
    assert (ok.diverged, flt.diverged, flt.valid_runs) == (0, 1, 2)
    records = [run_record(model, good, *simulate(model, 20, seeds[r]))
               for r in (0, 2)]
    _assert_report_matches(flt, *_aggregate(model, "se2_left", records))


def test_benchmark_memory_does_not_grow_with_beliefs():
    """Only one chunk of beliefs is alive at a time: 20 runs x 400 steps of
    imu_gnss stay well below the 40 MiB that keeping every belief takes,
    and below the 18.5 MiB of two live chunks (one is about 5 MiB)."""
    model = make("imu_gnss")
    tracemalloc.start()
    try:
        benchmark(model, ["mixed_right"], runs=20, steps=400, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_simulate_holds_one_array_per_quantity():
    """A 2,000-step imu_gnss simulation holds its truth (31 floats a step),
    inputs (6 a step) and one fix every 20 steps as arrays: under 350 B
    per step, of which 296 are the truth and input data."""
    model = make("imu_gnss")
    steps = 2000
    tracemalloc.start()
    try:
        sim = simulate(model, steps, 0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sim[0]) == steps + 1
    assert held <= 350 * steps


# ---------------------------------------------------------------------------
# helpers


def test_psd_sqrt_reconstructs():
    rng = np.random.Generator(np.random.Philox(key=2))
    A = rng.standard_normal((4, 4))
    M = A @ A.T
    L = _psd_sqrt(M)
    assert np.abs(L @ L.T - M).max() < 1e-12
    assert np.array_equal(_psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))
    assert _psd_sqrt(np.zeros((0, 0))).shape == (0, 0)
    for bad in (np.diag([1.0, -1.0]), np.ones((2, 3)), np.diag([1.0, np.nan]),
                np.diag([np.inf, 1.0]), np.array([[1.0, 0.1], [0.0, 1.0]])):
        with pytest.raises(NonPSDCovariance):
            _psd_sqrt(bad)

