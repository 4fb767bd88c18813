"""Acceptance checks for the package's shipped guarantees.

One test per guarantee; each prints a single PASS/FAIL line (visible with
pytest -s, and mirrored by the -v verdict) and enforces both the stated
tolerance and, where one applies, a wall-clock budget.
"""

import time

import numpy as np

from manifold_ukf import lie_groups as lie
from manifold_ukf.cli import main
from manifold_ukf.models import (
    ModelSpec,
    augment_landmark,
    example_names,
    make,
)
from manifold_ukf.montecarlo import benchmark, simulate
from manifold_ukf.retraction import (
    _mixed_parts,
    additive_retraction,
    covariance_retrieval,
    mixed_state,
)
from manifold_ukf.sigma_core import Belief, filter_run

from fileformats import strip_runtime_column
from oracles import kf_run, matrix_exp_series, nees_band, wedge_sek


def _verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _linear_model(name="linear2"):
    """Two-state constant-velocity problem with position measurements."""
    F = np.array([[1.0, 1.0], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q = np.array([[0.01, 0.005], [0.005, 0.02]])
    R = np.array([[0.25]])
    retr = additive_retraction(2)
    params = {"F": F, "H": H}

    def f(state, omega, w):
        return state @ params["F"].T + w

    def h(state):
        return state @ params["H"].T

    return ModelSpec(
        name=name, f=f, h=h, Q=Q, R=R, dt=1.0,
        retractions={"additive": retr}, default_retraction="additive",
        initial_truth=np.array([0.0, 1.0]),
        initial_mean=np.array([0.0, 1.0]),
        initial_cov=np.diag([1.0, 0.5]),
        inputs=lambda steps: np.zeros((steps, 2)),
        state_labels=("x0", "x1"),
        state_to_vector=lambda s: s,
    ), F, H


def test_criterion_1_linear_kalman_equivalence():
    t0 = time.perf_counter()
    model, F, H = _linear_model()
    steps = 200
    truth, inputs, measurements = simulate(model, steps, seed=0)
    beliefs = filter_run(model, inputs, measurements)
    oracle = kf_run(model.initial_mean, model.initial_cov, F, model.Q, H,
                    model.R, [np.zeros(2)] * steps, measurements)
    mean_err = max(np.abs(b.mean - x).max() for b, (x, _) in zip(beliefs, oracle))
    cov_err = max(np.abs(b.cov - P).max() for b, (_, P) in zip(beliefs, oracle))
    elapsed = time.perf_counter() - t0
    ok = mean_err <= 1e-8 and cov_err <= 1e-8 and elapsed < 1.0
    _verdict(ok, "criterion 1: sigma-point filter matches the closed-form "
                 f"Kalman trace over {steps} steps (mean err {mean_err:.2e}, "
                 f"cov err {cov_err:.2e}, {elapsed:.2f} s < 1 s)")


def test_criterion_2_lie_round_trips():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=77))
    groups = {"so3": (3, 0), "se2": (2, 1), "se3": (3, 1), "se23": (3, 2)}
    worst_rt = 0.0
    worst_series = 0.0
    for d, k in groups.values():
        r = lie.rot_dim(d)
        for _ in range(1000):
            rot = rng.standard_normal(r)
            nrm = np.linalg.norm(rot)
            if nrm > 0:
                rot *= rng.uniform(0.0, np.pi - 0.011) / nrm
            xi = np.concatenate([rot, rng.standard_normal(d * k)])
            X = lie.exp_sek(xi, d, k)
            worst_rt = max(worst_rt,
                           float(np.linalg.norm(lie.log_sek(X, d) - xi)))
            series = matrix_exp_series(wedge_sek(xi, d, k), terms=30)
            worst_series = max(worst_series, float(np.abs(X - series).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-9 and worst_series <= 1e-10 and elapsed < 5.0
    _verdict(ok, "criterion 2: 1000 exp/log round-trips per group within "
                 f"1e-9 (worst {worst_rt:.2e}) and exp matches the 30-term "
                 f"series within 1e-10 (worst {worst_series:.2e}, "
                 f"{elapsed:.2f} s < 5 s)")


def test_criterion_3_retraction_validation(capsys):
    codes = {name: main(["check-retraction", name]) for name in example_names()}
    capsys.readouterr()  # the per-variant lines are the command's own output
    ok = all(code == 0 for code in codes.values())
    failed = [n for n, c in codes.items() if c != 0]
    _verdict(ok, "criterion 3: every built-in retraction passes the "
                 "inverse-pair (1e-10) and Jacobian-at-zero (1e-6) checks"
                 + (f"; failed: {failed}" if failed else ""))


def test_criterion_4_inertial_nav_retraction_ordering():
    t0 = time.perf_counter()
    model = make("inertial_nav")  # 45 degree heading and 1 m position offset
    report = benchmark(model, ["se23_right", "so3xr6"], runs=50, seed=0,
                       steps=100)
    right, comp = report.filters
    mean_right = float(np.mean(right.rmse["pos"]))
    mean_comp = float(np.mean(comp.rmse["pos"]))
    elapsed = time.perf_counter() - t0
    ok = (mean_right < mean_comp
          and right.diverged <= comp.diverged
          and elapsed < 60.0)
    _verdict(ok, "criterion 4: right-group position RMSE over the first 10 s "
                 f"beats the componentwise variant ({mean_right:.3f} < "
                 f"{mean_comp:.3f}, diverged {right.diverged} <= "
                 f"{comp.diverged}, {elapsed:.1f} s < 60 s)")


def test_criterion_5_nees_consistency_band():
    t0 = time.perf_counter()
    model, _, _ = _linear_model()
    steps = 60
    report = benchmark(model, ["additive"], runs=200, seed=1, steps=steps,
                       workers=1)
    flt = report.filters[0]
    lo, hi = nees_band(2, 200)
    inside = np.mean((flt.mean_nees >= lo) & (flt.mean_nees <= hi))
    elapsed = time.perf_counter() - t0
    ok = flt.diverged == 0 and inside >= 0.9 and elapsed < 30.0
    _verdict(ok, "criterion 5: 200-run mean NEES stays in the 95% chi-square "
                 f"band [{lo:.3f}, {hi:.3f}] at {inside:.0%} of {steps} steps "
                 f"(need >= 90%, {elapsed:.1f} s < 30 s)")


def test_criterion_6_sphere_constraint():
    model = make("pendulum_s2")
    steps = 10_000
    truth, inputs, measurements = simulate(model, steps, seed=3)
    beliefs = filter_run(model, inputs, measurements)
    lever = np.array([0.0, 0.0, 1.0])
    worst_norm = 0.0
    worst_kernel = 0.0
    for belief in beliefs:
        x, spread = covariance_retrieval(belief.mean, lever, belief.cov)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(x)) - 1.0))
        worst_kernel = max(worst_kernel, float(np.abs(spread @ x).max()))
    ok = worst_norm <= 1e-12 and worst_kernel <= 1e-10
    _verdict(ok, f"criterion 6: over {steps} filtered steps the estimated "
                 f"direction stays unit (worst {worst_norm:.2e} <= 1e-12) and "
                 "the retrieved covariance annihilates it (worst "
                 f"{worst_kernel:.2e} <= 1e-10)")


def test_criterion_7_slam_augmentation_invariants():
    model = make("slam2d")
    retr = model.retraction()
    rng = np.random.Generator(np.random.Philox(key=21))
    A = rng.standard_normal((11, 11))
    P = A @ A.T + 0.2 * np.eye(11)
    pose = lie.exp_sek(np.array([0.6, 1.5, -0.5]), 2, 1)
    belief = Belief(mixed_state(pose, _mixed_parts(3, model.initial_mean)[1]), P)
    R2 = 0.05 ** 2 * np.eye(2)
    ya, yb = np.array([2.0, -1.0]), np.array([-0.5, 3.0])

    ab = augment_landmark(augment_landmark(belief, ya, retr, R2), yb, retr, R2)
    ba = augment_landmark(augment_landmark(belief, yb, retr, R2), ya, retr, R2)
    block_err = float(np.abs(ab.cov[:11, :11] - ba.cov[:11, :11]).max())

    one = augment_landmark(belief, ya, retr, R2)
    rt_err = float(np.abs(model.h(one.mean)[-2:] - ya).max())  # new one last

    ok = block_err <= 1e-12 and rt_err <= 1e-10
    _verdict(ok, "criterion 7: augmentation order leaves prior covariance "
                 f"blocks unchanged ({block_err:.2e} <= 1e-12) and a new "
                 f"landmark reproduces its measurement ({rt_err:.2e} <= 1e-10)")


def test_criterion_8_benchmark_determinism(tmp_path):
    args = ["benchmark", "localization2d", "--runs", "3", "--steps", "12",
            "--seed", "7"]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    codes = [
        main(args + ["--workers", "1", "--out", str(paths[0])]),
        main(args + ["--workers", "1", "--out", str(paths[1])]),
        main(args + ["--workers", "2", "--out", str(paths[2])]),
    ]
    texts = [strip_runtime_column(p.read_text(encoding="utf-8")) for p in paths]
    ok = (codes == [0, 0, 0] and texts[0] == texts[1] and texts[0] == texts[2])
    _verdict(ok, "criterion 8: repeated benchmark invocations are "
                 "byte-identical outside the runtime column, serial and "
                 "parallel alike")
