"""Example-problem tests: dynamics, observations, augmentation, registry."""

import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from manifold_ukf import lie_groups as lie
from manifold_ukf import models
from manifold_ukf.errors import (
    DimensionMismatch,
    InvalidAlpha,
    NonFiniteState,
    NonPSDCovariance,
)
from manifold_ukf.models import LandmarkSet, ModelSpec, augment_landmark, make
from manifold_ukf.retraction import _mixed_parts, mixed_state
from manifold_ukf.sigma_core import Belief, propagate, update

from oracles import matrix_exp_series

RNG = np.random.Generator(np.random.Philox(key=1234))


# ---------------------------------------------------------------------------
# localization2d


def test_localization2d_zero_odometry_fixed():
    model = make("localization2d")
    state = lie.exp_sek(np.array([0.4, 1.0, -2.0]), 2, 1)
    out = model.f(state, np.zeros(3), np.zeros(3))
    assert np.abs(out - state).max() < 1e-15


def test_localization2d_straight_line():
    model = make("localization2d", speed=1.5, yaw_rate=0.0)
    v_dt = 1.5 * model.dt
    state = np.eye(3)
    n = 20
    for u in model.inputs(n):
        state = model.f(state, u, np.zeros(3))
    assert np.abs(state[:2, 2] - np.array([n * v_dt, 0.0])).max() < 1e-12
    assert np.abs(state[:2, :2] - np.eye(2)).max() < 1e-15


def test_localization2d_h_identity_pose():
    model = make("localization2d")
    assert np.array_equal(model.h(np.eye(3)), np.zeros(2))


# ---------------------------------------------------------------------------
# attitude3d


def test_attitude3d_zero_rate_fixed():
    model = make("attitude3d")
    C = lie.exp_so3(np.array([0.3, -0.2, 0.9]))
    out = model.f(C, np.zeros(3), np.zeros(3))
    assert np.abs(out - C).max() < 1e-15


def test_attitude3d_h_at_identity():
    model = make("attitude3d")
    y = model.h(np.eye(3))
    assert np.allclose(y[:3], models.GRAVITY, atol=1e-15)
    assert abs(np.linalg.norm(y[3:]) - 1.0) < 1e-12


def test_attitude3d_constant_rate_integration():
    model = make("attitude3d", dt=0.02)
    rate = np.array([0.0, 0.0, 0.7])
    C = np.eye(3)
    n = 50
    for _ in range(n):
        C = model.f(C, rate, np.zeros(3))
    T = n * model.dt
    oracle = matrix_exp_series(lie.wedge_so3(rate * T))
    assert np.abs(C - oracle).max() < 1e-10


# ---------------------------------------------------------------------------
# inertial_nav


def test_inertial_nav_stationary():
    model = make("inertial_nav")
    C = lie.exp_so3(np.array([0.2, 0.1, -0.5]))
    state = np.eye(5)
    state[:3, :3] = C
    state[:3, 4] = np.array([1.0, 2.0, 3.0])
    u = np.concatenate([np.zeros(3), -C.T @ models.GRAVITY])
    out = model.f(state, u, np.zeros(6))
    assert np.abs(out - state).max() < 1e-14


def test_inertial_nav_landmark_at_position_observes_zero():
    state = np.eye(5)
    state[:3, 4] = np.array([4.0, -1.0, 2.0])
    model = make("inertial_nav", landmarks=LandmarkSet(state[:3, 4][None, :]))
    assert np.abs(model.h(state)).max() < 1e-15


def test_inertial_nav_free_fall():
    model = make("inertial_nav", dt=0.01)
    state = np.eye(5)  # at rest, level
    state[:3, 3] = 0.0
    n = 100
    u = np.zeros(6)  # no rotation, no specific force: free fall
    for _ in range(n):
        state = model.f(state, u, np.zeros(6))
    t = n * model.dt
    expected_p = 0.5 * models.GRAVITY * t * t
    # explicit-Euler position integration lags by O(dt) per unit time
    tol = 0.5 * np.abs(models.GRAVITY) * t * model.dt + 1e-12
    assert (np.abs(state[:3, 4] - expected_p) <= tol).all()
    assert np.abs(state[:3, 3] - models.GRAVITY * t).max() < 1e-12


def test_inertial_nav_profile_is_exact_circle():
    # the nominal IMU inputs integrate to a level constant-rate turn
    model = make("inertial_nav", speed=4.0, yaw_rate=0.3)
    state = model.initial_truth
    for u in model.inputs(100):
        state = model.f(state, u, np.zeros(6))
    psi = 0.3 * 100 * model.dt
    C_expected = lie.exp_so3(np.array([0.0, 0.0, psi]))
    v_expected = C_expected @ np.array([4.0, 0.0, 0.0])
    assert np.abs(state[:3, :3] - C_expected).max() < 1e-10
    assert np.abs(state[:3, 3] - v_expected).max() < 1e-10
    assert abs(state[2, 4]) < 1e-12  # stays level


def test_inertial_nav_initial_offset():
    model = make("inertial_nav")
    rel = model.initial_mean[:3, :3].T @ model.initial_truth[:3, :3]
    assert abs(np.linalg.norm(lie.log_so3(rel)) - math.pi / 4) < 1e-12
    dp = model.initial_mean[:3, 4] - model.initial_truth[:3, 4]
    assert abs(np.linalg.norm(dp) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# slam2d and augmentation


def test_slam2d_augment_identity_pose():
    model = make("slam2d")
    belief = Belief(model.initial_mean, model.initial_cov)
    retr = model.retraction()
    out = augment_landmark(belief, np.array([1.0, 0.0]), retr,
                           0.05 ** 2 * np.eye(2))
    assert np.allclose(out.mean[-2:], np.array([1.0, 0.0]), atol=1e-12)
    d = retr.dim
    assert out.cov.shape == (d + 2, d + 2)


def test_slam2d_augment_keeps_existing_block_bit_identical():
    model = make("slam2d")
    A = RNG.standard_normal((11, 11))
    P = A @ A.T + 0.1 * np.eye(11)
    pose = lie.exp_sek(np.array([0.5, 1.0, 2.0]), 2, 1)
    belief = Belief(mixed_state(pose, _mixed_parts(3, model.initial_mean)[1]), P)
    out = augment_landmark(belief, np.array([0.7, -0.2]), model.retraction(),
                           0.01 * np.eye(2))
    assert np.array_equal(out.cov[:11, :11], P)
    assert np.array_equal(_mixed_parts(3, out.mean)[0], pose)


def test_slam2d_augment_forward_observation_roundtrip():
    model = make("slam2d")
    pose = lie.exp_sek(np.array([-0.8, 2.0, 1.0]), 2, 1)
    belief = Belief(mixed_state(pose, _mixed_parts(3, model.initial_mean)[1]),
                    model.initial_cov)
    y = np.array([1.3, -0.4])
    for side in ("mixed_left", "mixed_right"):
        out = augment_landmark(belief, y, model.retraction(side),
                               0.01 * np.eye(2))
        # h observes every landmark in the state, the new one last
        back = model.h(out.mean)[-2:]
        assert np.abs(back - y).max() < 1e-10


def test_slam2d_augment_order_insensitive():
    model = make("slam2d")
    A = RNG.standard_normal((11, 11))
    P = A @ A.T + 0.2 * np.eye(11)
    pose = lie.exp_sek(np.array([0.3, -1.0, 0.5]), 2, 1)
    belief = Belief(mixed_state(pose, _mixed_parts(3, model.initial_mean)[1]), P)
    retr = model.retraction()
    R2 = 0.01 * np.eye(2)
    ya, yb = np.array([1.0, 0.5]), np.array([-0.5, 2.0])
    ab = augment_landmark(augment_landmark(belief, ya, retr, R2), yb, retr, R2)
    ba = augment_landmark(augment_landmark(belief, yb, retr, R2), ya, retr, R2)
    # original block unchanged either way
    assert np.abs(ab.cov[:11, :11] - ba.cov[:11, :11]).max() <= 1e-12
    # each landmark's own block does not depend on the other augmentation
    blk_a_first = ab.cov[11:13, 11:13]
    blk_a_second = ba.cov[13:15, 13:15]
    assert np.abs(blk_a_first - blk_a_second).max() <= 1e-12


@pytest.mark.parametrize("y_new,obs_cov,error", [
    ((1.0, 0.0), [0.01, 0.01], NonPSDCovariance),  # a vector, not (2, 2)
    ((1.0, 0.0), [[math.nan, 0.0], [0.0, 0.01]], NonPSDCovariance),
    ((1.0, 0.0), [[0.01, 0.0], [0.0, -0.01]], NonPSDCovariance),
    ((math.nan, 0.0), np.eye(2), NonFiniteState),
], ids=["cov-vector", "cov-nan", "cov-not-psd", "y-nan"])
def test_slam2d_augment_rejects_a_bad_observation(y_new, obs_cov, error):
    model = make("slam2d")
    with pytest.raises(error):
        augment_landmark(Belief(model.initial_mean, model.initial_cov), y_new,
                         model.retraction(), obs_cov)


def test_slam2d_augmented_belief_keeps_filtering():
    """propagate and update size their sigma points from the belief, so a
    state grown twice past the retraction's 11 dimensions still filters."""
    model = make("slam2d")
    retr = model.retraction()
    R2 = 0.05 ** 2 * np.eye(2)
    belief = Belief(model.initial_mean, model.initial_cov)
    for y in (np.array([1.0, 0.5]), np.array([-0.5, 2.0])):
        belief = augment_landmark(belief, y, retr, R2)
    R = 0.05 ** 2 * np.eye(12)  # all six landmarks observed
    for u in model.inputs(5):
        belief = propagate(belief, u, model.f, model.Q, retr, model.alpha)
        y = model.h(belief.mean) + 0.01 * RNG.standard_normal(12)
        belief = update(belief, y, model.h, R, retr, model.alpha)
    assert belief.cov.shape == (15, 15)
    assert np.isfinite(belief.cov).all()
    assert np.array_equal(belief.cov, belief.cov.T)


def _keeps_moved(model, retr, n=8):
    """Whether f keeps the declaration retr.moved = a at the model's mean.
    On states phi(mean, xi) with xi zero on the first a coordinates, f's
    image must have f(mean)'s moving part bit for bit, which phi_inv at the
    new mean maps to exact zeros, and must copy the state's tail, so that
    the tail coordinates at the new mean are the state's at the mean to the
    bit; with the mean and a noise vector, the image's tail must be the
    mean's."""
    a, d, q = retr.moved, retr.dim, model.Q.shape[0]
    mean, u = model.initial_mean, model.inputs(1)[0]
    xi = RNG.standard_normal((n, d))
    xi[:, :a] = 0.0
    states = retr.phi(mean, xi)
    ws = RNG.standard_normal((n, q)) * np.sqrt(np.diag(model.Q))
    new_mean = model.f(mean, u, np.zeros(q))
    moved = retr.phi_inv(new_mean, model.f(states, u, np.zeros(q)))
    noisy = retr.phi_inv(new_mean, model.f(mean, u, ws))
    return (not moved[:, :a].any()
            and np.array_equal(moved[:, a:], retr.phi_inv(mean, states)[:, a:])
            and not noisy[:, a:].any())


MOVED = [(name, rname) for name in models.example_names()
         for rname, retr in make(name).retractions.items()
         if retr.moved is not None]


@pytest.mark.parametrize("name, rname", MOVED)
def test_declared_moved_coordinates_are_all_that_f_moves(name, rname):
    for params in ({}, {"landmarks": LandmarkSet(RNG.uniform(-5, 5, (6, 2)))}):
        model = make(name, **params)
        assert _keeps_moved(model, model.retraction(rname)), params


@pytest.mark.parametrize("name, rname, moved", [
    ("slam2d", "mixed_right", 1),      # f moves the position too
    ("imu_gnss", "mixed_right", 9),    # f reads the biases
    ("inertial_nav", "se23_left", 6),  # f moves the position with the velocity
])
def test_a_false_moved_declaration_fails_the_contract(name, rname, moved):
    model = make(name)
    retr = dataclasses.replace(model.retraction(rname), moved=moved)
    assert not _keeps_moved(model, retr)


def test_slam2d_observation_consistency():
    """h stacks C^T (l_i - p), every landmark in the body frame."""
    model = make("slam2d")
    truth = model.initial_truth
    pose, landmarks = _mixed_parts(3, truth)
    C, p = pose[:2, :2], pose[:2, 2]
    bodies = [C.T @ (lm - p) for lm in landmarks.reshape(-1, 2)]
    assert np.abs(model.h(truth) - np.concatenate(bodies)).max() < 1e-14


@pytest.mark.parametrize("name, width, wanted", [("slam2d", 3, "2D"),
                                                 ("inertial_nav", 2, "3D")],
                         ids=["slam2d", "inertial_nav"])
def test_landmarks_of_another_width_are_rejected(name, width, wanted):
    with pytest.raises(DimensionMismatch, match=f"^{name} landmarks must be {wanted}$"):
        make(name, landmarks=LandmarkSet(np.zeros((2, width))))


# ---------------------------------------------------------------------------
# imu_gnss


def test_imu_gnss_reduces_to_inertial_nav_with_zero_bias():
    nav = make("inertial_nav")
    fused = make("imu_gnss", dt=nav.dt)
    pose = nav.initial_truth
    state = mixed_state(pose, np.zeros(6))
    for u in fused.inputs(29):
        pose = nav.f(pose, u, np.zeros(6))
        state = fused.f(state, u, np.zeros(12))
    group, euclid = _mixed_parts(5, state)
    assert np.array_equal(group, pose)
    assert np.array_equal(euclid, np.zeros(6))


def test_imu_gnss_is_inertial_nav_on_bias_corrected_inputs():
    """With biases b, imu_gnss's f is inertial_nav's f on u - b with the
    first six noise entries, and the biases walk by the last six, bit for
    bit over a stack of states, inputs and noise."""
    imu = make("imu_gnss")
    nav = make("inertial_nav", dt=imu.dt)
    poses = np.stack([lie.exp_sek(0.5 * RNG.standard_normal(9), 3, 2) for _ in range(7)])
    b = 0.1 * RNG.standard_normal((7, 6))
    u = imu.inputs(7) + 0.1 * RNG.standard_normal((7, 6))
    w = RNG.standard_normal((7, 12)) * np.sqrt(np.diag(imu.Q))
    assert np.array_equal(imu.f(mixed_state(poses, b), u, w),
                          mixed_state(nav.f(poses, u - b, w[..., :6]), b + w[..., 6:]))


def test_imu_gnss_constant_gyro_bias_drift():
    model = make("imu_gnss")
    bg = np.array([0.05, -0.02, 0.03])
    state = mixed_state(np.eye(5), np.concatenate([bg, np.zeros(3)]))
    n = 40
    u = np.zeros(6)
    u[3:] = -models.GRAVITY  # hold velocity at zero to isolate the rotation
    for _ in range(n):
        state = model.f(state, u, np.zeros(12))
    T = n * model.dt
    oracle = matrix_exp_series(lie.wedge_so3(-bg * T))
    assert np.abs(_mixed_parts(5, state)[0][:3, :3] - oracle).max() < 1e-10


def test_imu_gnss_h_depends_only_on_position():
    model = make("imu_gnss")
    pose = np.eye(5)
    pose[:3, :3] = lie.exp_so3(np.array([0.2, 0.3, -0.1]))
    pose[:3, 3] = np.array([1.0, -2.0, 0.5])
    pose[:3, 4] = np.array([10.0, 20.0, -5.0])
    bias = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    state = mixed_state(pose, bias)
    y0 = model.h(state)
    assert np.array_equal(y0, pose[:3, 4])
    eps = 1e-6
    # perturb rotation, velocity and biases componentwise: h must not move
    for build in (
        lambda: mixed_state(_with_rot(pose, eps), bias),
        lambda: mixed_state(_with_vel(pose, eps), bias),
        lambda: mixed_state(pose, bias + eps),
    ):
        assert np.array_equal(model.h(build()), y0)


def _with_rot(pose, eps):
    out = pose.copy()
    out[:3, :3] = pose[:3, :3] @ lie.exp_so3(np.array([eps, 0.0, 0.0]))
    return out


def _with_vel(pose, eps):
    out = pose.copy()
    out[:3, 3] = pose[:3, 3] + eps
    return out


# ---------------------------------------------------------------------------
# pendulum_s2


def test_pendulum_zero_rate_zero_noise_fixed():
    model = make("pendulum_s2")
    R = lie.exp_so3(np.array([0.4, 0.0, 0.2]))
    out = model.f(R, np.zeros(3), np.zeros(3))
    assert np.abs(out - R).max() < 1e-15


def test_pendulum_observation_at_identity():
    model = make("pendulum_s2")
    assert np.array_equal(model.h(np.eye(3)), np.zeros(2))


def test_pendulum_direction_norm_preserved_under_noise():
    model = make("pendulum_s2")
    lever = np.array([0.0, 0.0, 1.0])
    rng = np.random.Generator(np.random.Philox(key=17))
    R = model.initial_truth
    for u in model.inputs(199):
        w = 0.01 * rng.standard_normal(3)
        R = model.f(R, u, w)
        assert abs(np.linalg.norm(R @ lever) - 1.0) < 1e-12


def test_pendulum_profile_oscillates():
    model = make("pendulum_s2", tilt=0.5)
    lever = np.array([0.0, 0.0, 1.0])
    R = model.initial_truth
    zs = []
    for u in model.inputs(399):
        R = model.f(R, u, np.zeros(3))
        zs.append((R @ lever)[2])
    zs = np.array(zs)
    # swings away from and back toward the rest direction
    assert zs.min() < math.cos(0.45)
    assert zs.max() > math.cos(0.15)


@pytest.mark.parametrize("tilt,steps", [(0.7, 20000), (0.0, 10)])
def test_pendulum_rate_table_matches_matrix_recurrence(tilt, steps):
    # the same semi-implicit integration, each step rotating x by a 3x3
    # exp_so3 matrix; tilt 0 keeps every step in the small-angle branch
    dt, g_over_l = 0.01, 9.81
    model = make("pendulum_s2", dt=dt, tilt=tilt)
    table = model.inputs(steps)
    e3 = np.array([0.0, 0.0, 1.0])
    x = lie.exp_so3(np.array([tilt, 0.0, 0.0])) @ e3
    omega = np.zeros(3)
    expected = np.empty((steps, 3))
    for n in range(steps):
        omega = omega + dt * g_over_l * np.cross(x, e3)
        x = lie.exp_so3(omega * dt) @ x
        expected[n] = omega
    assert np.abs(table - expected).max() <= 1e-10


# ---------------------------------------------------------------------------
# registry and spec plumbing


def test_make_unknown_example():
    with pytest.raises(ValueError) as exc_info:
        make("not_a_model")
    assert "localization2d" in str(exc_info.value)


def test_model_retraction_lookup():
    model = make("attitude3d")
    assert model.retraction().name == model.default_retraction
    with pytest.raises(ValueError):
        model.retraction("nope")


def test_state_vector_matches_labels():
    for name in models.example_names():
        model = make(name)
        vec = model.state_to_vector(model.initial_mean)
        assert vec.shape == (len(model.state_labels),), name


@pytest.mark.parametrize("name, n, pose_vector", [
    ("slam2d", 3, models._se2_state_vector),
    ("imu_gnss", 5, models._extended_pose_state_vector)])
def test_mixed_state_vector_is_the_pose_vector_then_the_tail(name, n, pose_vector):
    model = make(name)
    retr = model.retraction()
    xi = 0.3 * np.random.Generator(np.random.Philox(key=26)).standard_normal(retr.dim)
    for state in (model.initial_truth, retr.phi(model.initial_truth, xi)):
        want = np.concatenate([pose_vector(state[:n * n].reshape(n, n)), state[n * n:]])
        assert np.array_equal(model.state_to_vector(state), want)


def test_alpha_is_a_spec_field_that_make_sets():
    """No factory takes alpha; make(name, alpha=a) is the default spec with
    alpha replaced, field for field, and an explicit None or bool is still
    checked."""
    for name, factory in models._FACTORIES.items():
        assert "alpha" not in inspect.signature(factory).parameters, name
        spec, ref = make(name, alpha=0.3), dataclasses.replace(make(name), alpha=0.3)
        for field in dataclasses.fields(ModelSpec):
            assert (pickle.dumps(getattr(spec, field.name))
                    == pickle.dumps(getattr(ref, field.name))), (name, field.name)
    for alpha in (None, True, np.bool_(True)):  # a bool is not the number 1
        with pytest.raises(InvalidAlpha):
            make("attitude3d", alpha=alpha)


@pytest.mark.parametrize("field, value", [
    ("dt", True), ("dt", np.True_), ("dt", "0.1"), ("dt", None),
    ("measure_every", True)])
def test_spec_rejects_a_bool_or_a_non_number(field, value):
    """ValueError naming the field, not True taken as 1 or a TypeError from
    the comparison."""
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(make("localization2d"), **{field: value})


@pytest.mark.parametrize("name,m", [
    ("localization2d", 3), ("attitude3d", 3), ("inertial_nav", 6),
    ("slam2d", 3), ("imu_gnss", 6), ("pendulum_s2", 3)])
def test_inputs_is_a_prefix_of_longer_inputs(name, m):
    model = make(name)
    short, long = model.inputs(25), model.inputs(50)
    assert short.shape == (25, m) and long.shape == (50, m)
    assert np.array_equal(short, long[:25])


def test_pendulum_inputs_past_twenty_thousand_steps():
    inputs = make("pendulum_s2").inputs(20_001)
    assert inputs.shape == (20_001, 3) and np.isfinite(inputs).all()


def test_dynamics_deterministic():
    for name in models.example_names():
        model = make(name)
        u = model.inputs(1)[0]
        w = np.zeros(model.Q.shape[0])
        a = model.f(model.initial_truth, u, w)
        b = model.f(model.initial_truth, u, w)
        assert np.array_equal(a, b)


def test_specs_pickle_bit_equal():
    # perfbench --trace 1 pickles every spec to size its task (pool_bytes),
    # so pin picklability and bit-equal behaviour here
    for name in models.example_names():
        model = make(name)
        clone = pickle.loads(pickle.dumps(model))
        x = model.initial_truth
        u = model.inputs(1)[0]
        w = np.zeros(model.Q.shape[0])
        for a, b in (
            (model.f(x, u, w), clone.f(x, u, w)),
            (model.h(x), clone.h(x)),
            (u, clone.inputs(1)[0]),
            (model.state_to_vector(x), clone.state_to_vector(x)),
            (model.renormalize(x), clone.renormalize(x)),
        ):
            assert np.array_equal(b, a), name


def test_truth_rotation_stays_orthonormal_long_run():
    from manifold_ukf.montecarlo import simulate

    model = make("pendulum_s2")
    truth, _, _ = simulate(model, 5000, seed=2)
    C = truth[-1]
    assert np.abs(C.T @ C - np.eye(3)).max() < 1e-9


def test_landmark_set_validation():
    with pytest.raises(ValueError):
        LandmarkSet(np.zeros((0, 3)))
    assert len(LandmarkSet([[1.0, 2.0]])) == 1


@pytest.mark.parametrize("points, error", [
    ([[np.nan, 1.0]], NonFiniteState),
    ([[np.inf, 1.0, 2.0]], NonFiniteState),
    ("abc", DimensionMismatch),
    (np.zeros((2, 2, 2)), DimensionMismatch),
    ([1.0, 2.0], DimensionMismatch),
], ids=["nan", "inf", "string", "3-d", "1-d"])
def test_landmark_set_rejects_points_that_are_not_finite_rows(points, error):
    """Before any factory sees them, as the command line's reader does."""
    with pytest.raises(error, match="^landmarks"):
        LandmarkSet(points)
