"""Example estimation problems, each packaged as a ModelSpec.

A ModelSpec bundles dynamics f(state, input, noise), observation h(state),
noise covariances, the candidate retractions, the input sequence driving the
nominal trajectory, and the initial truth / belief.  Every callable is a
module-level function, with its parameters bound positionally by
functools.partial.

Noise magnitudes, trajectory shapes and initial covariances below are
configuration defaults, not physical constants; factories take keyword
overrides for all of them.

Conventions shared by the inertial problems: world frame with gravity
along -z, body-frame inputs, states stored as extended-pose embeddings
with columns (rotation, velocity, position).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Mapping, Optional, Tuple, Union

import numpy as np

from . import lie_groups as lie
from .errors import DimensionMismatch, NonFiniteState
from .retraction import (
    Retraction,
    _mixed_parts,
    _pose_join,
    _pose_parts,
    _psd_sqrt,
    componentwise_so3_r6,
    group_retraction,
    mixed_retraction,
    mixed_state,
)
from .sigma_core import Belief, _check_alpha

GRAVITY = np.array([0.0, 0.0, -9.81])


def _identity(state):
    return state


def _omega(omega, width: int) -> np.ndarray:
    """A built-in f's input as a float array, or DimensionMismatch naming
    omega if it is not numeric or not (..., width)."""
    omega = lie._floats(omega, "omega")
    if omega.shape[-1:] != (width,):
        raise DimensionMismatch(f"omega must be (..., {width}), got {omega.shape}")
    return omega


@dataclass(frozen=True)
class ModelSpec:
    """One estimation problem: dynamics, observation, noise, retractions.

    A state is one float ndarray: a matrix, a vector or a flat mixed state
    (retraction.mixed_state), so a stack of states is one array.

    f(state, input, noise) and h(state) broadcast over leading axes,
    because the filter passes all its sigma points in one call: f gets a
    stack of N states together with a stack of N noise vectors and pairs
    them row by row (a single state or noise vector broadcasts against a
    stack; the built-in f's pair a stack of N inputs row by row too).  Per
    step f sees N = 1 + 2(a + q) points (the mean, the 2a retracted state
    points, then the mean with each of the 2q noise points), where a is the
    retraction's `moved` count, d by default, which gives the paper's
    1 + 2(d + q); h sees the 1 + 2d points of the mean and its retracted
    points.  A retraction that declares moved = a binds f to a contract
    (see Retraction): f copies the state past the first a tangent
    coordinates bit for bit and its image on them does not depend on it;
    slam2d's declare a = 3, the pose.  benchmark() steps all its runs in
    lockstep, so there f sees a (1 + 2(a + q), runs, ...) stack with the
    noise as (1 + 2(a + q), 1, q) and h a (1 + 2d, runs, ...) stack in the
    filter, both see (runs, ...) stacks in the simulation, and renormalize
    a (runs, ...) stack of states.  A run there is bit-identical to the run
    alone if f and h compute each state of a stack as alone, as
    (F @ state[..., None])[..., 0] does; state @ F.T may round differently.
    inputs(steps) returns the (steps, m) input sequence, row n - 1 driving
    step n; every run shares it.  state_to_vector maps a single state.

    A ModelSpec checks itself when it is made: dt must be a finite number
    > 0 and alpha lie in (0, 1] (ValueError, InvalidAlpha), measure_every
    be an int >= 1 (ValueError; a bool is neither a dt nor a measure_every),
    and Q, R and initial_cov be finite, square, symmetric positive
    semidefinite matrices (NonPSDCovariance).
    """

    name: str
    f: Callable[[Any, np.ndarray, np.ndarray], Any]
    h: Callable[[Any], np.ndarray]
    Q: np.ndarray
    R: np.ndarray
    dt: float
    retractions: Mapping[str, Retraction]
    default_retraction: str
    initial_truth: Any
    initial_mean: Any
    initial_cov: np.ndarray
    inputs: Callable[[int], np.ndarray]
    measure_every: int = 1
    alpha: float = 1.0
    state_labels: Tuple[str, ...] = ()
    state_to_vector: Optional[Callable[[Any], np.ndarray]] = None
    renormalize: Callable[[Any], Any] = _identity

    def __post_init__(self):
        _check_alpha(self.alpha)
        try:  # a str or None does not compare with a number
            bad_dt = isinstance(self.dt, (bool, np.bool_)) or not 0.0 < self.dt < math.inf
        except TypeError:
            bad_dt = True
        if bad_dt:
            raise ValueError(f"{self.name}: dt must be a finite number > 0, "
                             f"got {self.dt!r}")
        for what in ("Q", "R", "initial_cov"):
            _psd_sqrt(getattr(self, what), f"{self.name} {what}")
        every = self.measure_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError(f"measure_every must be an int >= 1, got {every!r}")

    def retraction(self, name: Union[str, Retraction, None] = None) -> Retraction:
        """The retraction registered under name (None: the default one); a
        Retraction is returned as given."""
        if isinstance(name, Retraction):
            return name
        key = name or self.default_retraction
        try:
            return self.retractions[key]
        except KeyError:
            known = ", ".join(sorted(self.retractions))
            raise ValueError(
                f"unknown retraction {key!r} for {self.name}; choose from: {known}"
            ) from None


def _renormalize_rotation_block(d, state):
    """Project the d x d rotation block of each state back onto SO(d)."""
    out = state.copy()
    out[..., :d, :d] = lie.polar_project(state[..., :d, :d])
    return out


def _renormalize_mixed(n, d, state):
    """The same on the n x n group block of flat mixed states."""
    group, euclid = _mixed_parts(n, state)
    return mixed_state(_renormalize_rotation_block(d, group), euclid)


def _mixed_state_vector(n, pose_vector, state):
    """pose_vector of the n x n group block of a flat mixed state, then its tail."""
    pose, tail = _mixed_parts(n, state)
    return np.concatenate([pose_vector(pose), tail])


@dataclass(frozen=True)
class LandmarkSet:
    """Known landmark positions, one per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = lie._floats(self.points, "landmarks")
        if pts.ndim != 2:
            raise DimensionMismatch(f"landmarks must be (n, dim), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise NonFiniteState("landmarks must be finite")
        if pts.shape[0] == 0:
            raise ValueError("landmark set must not be empty")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# 2D localization: SE(2) pose from odometry increments and position fixes


def _se2_odometry(state, omega, w):
    """Pose composed with the exponential of the noisy body increment."""
    return state @ lie.exp_sek(_omega(omega, 3) + w, 2, 1)


def _se2_position(state):
    return state[..., :2, 2].copy()


def _constant_turn_odometry(dt, speed, yaw_rate, steps):
    """Constant forward speed and yaw rate, expressed as per-step increments."""
    return np.tile(np.array([yaw_rate * dt, speed * dt, 0.0]), (steps, 1))


def _se2_state_vector(state):
    return np.array(
        [math.atan2(state[1, 0], state[0, 0]), state[0, 2], state[1, 2]]
    )


def localization2d(dt: float = 0.1, speed: float = 1.0, yaw_rate: float = 0.3,
                   odo_std=(0.01, 0.02, 0.01), gnss_std: float = 0.1,
                   measure_every: int = 10) -> ModelSpec:
    """Planar unicycle with odometry increments and sparse position fixes.

    odo_std is the per-step standard deviation of the (heading, along-track,
    cross-track) increment noise.
    """
    odo_std = np.asarray(odo_std, dtype=float)
    return ModelSpec(
        name="localization2d",
        f=_se2_odometry,
        h=_se2_position,
        Q=np.diag(odo_std ** 2),
        R=gnss_std ** 2 * np.eye(2),
        dt=dt,
        retractions={r.name: r for r in (group_retraction(2, 1, "left"),
                                         group_retraction(2, 1, "right"))},
        default_retraction="se2_left",
        initial_truth=np.eye(3),
        initial_mean=np.eye(3),
        initial_cov=np.diag([0.05 ** 2, 0.1 ** 2, 0.1 ** 2]),
        inputs=partial(_constant_turn_odometry, dt, speed, yaw_rate),
        measure_every=measure_every,
        state_labels=("theta", "x", "y"),
        state_to_vector=_se2_state_vector,
        renormalize=partial(_renormalize_rotation_block, 2),
    )


# ---------------------------------------------------------------------------
# 3D attitude: SO(3) from gyro rates and gravity + magnetometer directions


def _gyro_dynamics(dt, state, omega, w):
    return state @ lie.exp_so3((_omega(omega, 3) + w) * dt)


def _body_field_observation(gravity, mag_field, state):
    """World-fixed reference vectors observed in the body frame (v @ C is C^T v)."""
    return np.concatenate([gravity @ state, mag_field @ state], axis=-1)


def _tumble_rates(dt, steps):
    """Smooth rates exercising all three axes; step n is at time n dt."""
    a = 0.4
    rates = np.empty((steps, 3))
    for n in range(steps):
        t = (n + 1) * dt
        rates[n] = (a * math.sin(0.9 * t), 0.7 * a * math.cos(0.6 * t),
                    0.5 * a * math.sin(0.4 * t + 1.0))
    return rates


def _euler_zyx(C):
    pitch = -math.asin(max(-1.0, min(1.0, C[2, 0])))
    return np.array(
        [math.atan2(C[2, 1], C[2, 2]), pitch, math.atan2(C[1, 0], C[0, 0])]
    )


def attitude3d(dt: float = 0.01, gyro_std: float = 0.01,
               accel_obs_std: float = 0.3, mag_obs_std: float = 0.05,
               measure_every: int = 20) -> ModelSpec:
    """Attitude from integrated gyro rates with vector-direction updates.

    gyro_std is the continuous-time rate noise density (rad/s/sqrt(Hz)); the
    per-sample rate variance is gyro_std^2 / dt.
    """
    mag_field = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    return ModelSpec(
        name="attitude3d",
        f=partial(_gyro_dynamics, dt),
        h=partial(_body_field_observation, GRAVITY, mag_field),
        Q=(gyro_std ** 2 / dt) * np.eye(3),
        R=np.diag([accel_obs_std ** 2] * 3 + [mag_obs_std ** 2] * 3),
        dt=dt,
        retractions={r.name: r for r in (group_retraction(3, 0, "left"),
                                         group_retraction(3, 0, "right"))},
        default_retraction="so3_left",
        initial_truth=np.eye(3),
        initial_mean=np.eye(3),
        initial_cov=0.1 ** 2 * np.eye(3),
        inputs=partial(_tumble_rates, dt),
        measure_every=measure_every,
        state_labels=("roll", "pitch", "yaw"),
        state_to_vector=_euler_zyx,
        renormalize=partial(_renormalize_rotation_block, 3),
    )


# ---------------------------------------------------------------------------
# 3D inertial navigation: extended pose from IMU and body-frame landmarks


def _inertial_nav_dynamics(dt, gravity, state, omega, w):
    """Strapdown step of extended poses (rotation, velocity, position).
    Inputs stack body-frame gyro rates and specific force; noise adds to both."""
    omega = _omega(omega, 6)
    gyro, acc = omega[..., :3] + w[..., :3], omega[..., 3:6] + w[..., 3:6]
    C, v, p = _pose_parts(state)
    return _pose_join(C @ lie.exp_so3(gyro * dt),
                      v + ((C @ acc[..., None])[..., 0] + gravity) * dt, p + v * dt)


def _in_body(C, p, points):
    """World points, one per row, in the body frame of each pose (C, p),
    flattened per pose (v @ C is C^T v)."""
    body = (points - p[..., None, :]) @ C
    return body.reshape(body.shape[:-2] + (-1,))


def _body_landmark_observation(landmarks, state):
    """Known world landmarks seen in the body frame, stacked."""
    return _in_body(state[..., :3, :3], state[..., :3, 4], landmarks)


def _coordinated_turn_imu(dt, speed, yaw_rate, gravity, steps):
    """IMU inputs whose noise-free integration is an exact level circle.

    The accelerometer term compensates gravity and supplies the centripetal
    acceleration of the discrete-time turn, so f reproduces the trajectory
    with zero noise.
    """
    c = math.cos(yaw_rate * dt)
    s = math.sin(yaw_rate * dt)
    acc = np.array([(c - 1.0) * speed / dt, s * speed / dt, 0.0]) - gravity
    return np.tile(np.array([0.0, 0.0, yaw_rate, acc[0], acc[1], acc[2]]),
                   (steps, 1))


def _extended_pose_state_vector(state):
    return np.concatenate([_euler_zyx(state[:3, :3]), state[:3, 3], state[:3, 4]])


_DEFAULT_NAV_LANDMARKS = LandmarkSet(
    np.array([[15.0, 5.0, 2.0], [-12.0, 15.0, -3.0], [5.0, 25.0, 1.0]])
)


def inertial_nav(dt: float = 0.1, speed: float = 4.0, yaw_rate: float = 0.3,
                 gyro_std: float = 0.01, accel_std: float = 0.05,
                 obs_std: float = 0.1, landmarks: LandmarkSet = _DEFAULT_NAV_LANDMARKS,
                 measure_every: int = 5, heading_error: float = math.pi / 4,
                 position_error=(1.0, 0.0, 0.0)) -> ModelSpec:
    """IMU dead reckoning with body-frame landmark fixes on a level turn.

    The initial belief is deliberately wrong by heading_error about z and
    position_error in the world frame, with an initial covariance sized to
    cover both; this makes the large-error transient the interesting part.
    """
    if landmarks.points.shape[1] != 3:
        raise DimensionMismatch("inertial_nav landmarks must be 3D")
    m = len(landmarks)
    initial_truth = np.eye(5)
    initial_truth[:3, 3] = np.array([speed, 0.0, 0.0])
    initial_mean = initial_truth.copy()
    initial_mean[:3, :3] = lie.exp_so3(np.array([0.0, 0.0, heading_error]))
    initial_mean[:3, 4] = initial_truth[:3, 4] + np.asarray(position_error, dtype=float)
    return ModelSpec(
        name="inertial_nav",
        f=partial(_inertial_nav_dynamics, dt, GRAVITY),
        h=partial(_body_landmark_observation, landmarks.points),
        Q=np.diag([gyro_std ** 2 / dt] * 3 + [accel_std ** 2 / dt] * 3),
        R=obs_std ** 2 * np.eye(3 * m),
        dt=dt,
        retractions={r.name: r for r in (group_retraction(3, 2, "left"),
                                         group_retraction(3, 2, "right"),
                                         componentwise_so3_r6())},
        default_retraction="se23_right",
        initial_truth=initial_truth,
        initial_mean=initial_mean,
        initial_cov=np.diag(
            [0.1 ** 2, 0.1 ** 2, heading_error ** 2,
             0.3 ** 2, 0.3 ** 2, 0.1 ** 2,
             1.0, 1.0, 0.1 ** 2]
        ),
        inputs=partial(_coordinated_turn_imu, dt, speed, yaw_rate, GRAVITY),
        measure_every=measure_every,
        state_labels=("roll", "pitch", "yaw", "vx", "vy", "vz", "px", "py", "pz"),
        state_to_vector=_extended_pose_state_vector,
        renormalize=partial(_renormalize_rotation_block, 3),
    )


# ---------------------------------------------------------------------------
# 2D SLAM: SE(2) pose plus landmark estimates in one state


def _slam_dynamics(state, omega, w):
    """Odometry on the pose block; landmarks are static."""
    pose, landmarks = _mixed_parts(3, state)
    pose = _se2_odometry(pose, omega, w)
    if pose.shape[:-2] != landmarks.shape[:-1]:  # one state, a stack of noise
        landmarks = np.broadcast_to(landmarks, pose.shape[:-2] + landmarks.shape[-1:])
    return mixed_state(pose, landmarks)


def _slam_observation(state):
    """All landmark estimates observed in the body frame, stacked."""
    pose, landmarks = _mixed_parts(3, state)
    return _in_body(pose[..., :2, :2], pose[..., :2, 2],
                    landmarks.reshape(landmarks.shape[:-1] + (-1, 2)))


_DEFAULT_SLAM_LANDMARKS = LandmarkSet(
    np.array([[2.0, 1.0], [4.0, 4.0], [0.0, 5.0], [-2.0, 2.0]])
)


def slam2d(dt: float = 0.1, speed: float = 1.0, yaw_rate: float = 0.3,
           odo_std=(0.01, 0.02, 0.01), obs_std: float = 0.05,
           landmarks: LandmarkSet = _DEFAULT_SLAM_LANDMARKS,
           measure_every: int = 5) -> ModelSpec:
    """Planar SLAM with all landmarks in the state and relative observations."""
    if landmarks.points.shape[1] != 2:
        raise DimensionMismatch("slam2d landmarks must be 2D")
    m = len(landmarks)
    flat = landmarks.points.reshape(-1)
    initial_truth = mixed_state(np.eye(3), flat)
    labels = ("theta", "x", "y") + tuple(
        f"l{i}{ax}" for i in range(m) for ax in ("x", "y")
    )
    return ModelSpec(
        name="slam2d",
        f=_slam_dynamics,
        h=_slam_observation,
        Q=np.diag(np.asarray(odo_std, dtype=float) ** 2),
        R=obs_std ** 2 * np.eye(2 * m),
        dt=dt,
        # f moves the pose and copies the landmarks: propagate samples the
        # 3 pose coordinates only
        retractions={r.name: replace(r, moved=3) for r in (
            mixed_retraction(2, 1, 2 * m, "left", "landmarks"),
            mixed_retraction(2, 1, 2 * m, "right", "landmarks"))},
        default_retraction="mixed_right",
        initial_truth=initial_truth,
        initial_mean=initial_truth.copy(),
        initial_cov=np.diag([0.05 ** 2, 0.1 ** 2, 0.1 ** 2] + [0.1 ** 2] * (2 * m)),
        inputs=partial(_constant_turn_odometry, dt, speed, yaw_rate),
        measure_every=measure_every,
        state_labels=labels,
        state_to_vector=partial(_mixed_state_vector, 3, _se2_state_vector),
        renormalize=partial(_renormalize_mixed, 3, 2),
    )


def augment_landmark(belief: Belief, y_new, retraction: Retraction,
                     obs_cov) -> Belief:
    """Append a newly observed landmark to a SLAM belief.

    The landmark mean comes from the inverse observation at the current pose
    estimate; the covariance gains a row/column from the linearized pose
    dependence (finite differences through the belief's own retraction, so
    left and right conventions are both handled) plus the rotated
    measurement noise.  Existing covariance entries are copied unchanged.
    y_new must be a finite (2,) vector and obs_cov a (2, 2) covariance.
    """
    y_new, obs_cov = lie._floats(y_new, "y_new"), lie._floats(obs_cov, "obs_cov")
    if y_new.shape != (2,):
        raise DimensionMismatch(f"y_new must be a (2,) vector, got {y_new.shape}")
    if not np.isfinite(y_new).all():
        raise NonFiniteState("y_new must be finite")
    _psd_sqrt(obs_cov, "obs_cov")
    if obs_cov.shape != (2, 2):
        raise DimensionMismatch(f"obs_cov must be (2, 2), got {obs_cov.shape}")
    state, P = belief.mean, belief.cov
    # size from the belief, not the retraction: repeated augmentation grows
    # the state past the dimension the retraction was built for, and the
    # mixed-retraction maps adapt to whatever Euclidean tail the state has
    d_old = P.shape[-1]
    if P.shape != (d_old, d_old) or np.shape(state) != (d_old + 6,):
        raise DimensionMismatch(f"belief must be one flat (d + 6,) state with a (d, d) "
                                f"cov, got {np.shape(state)} and {P.shape}")
    pose = _mixed_parts(3, state)[0]
    C = pose[:2, :2]
    l_new = pose[:2, 2] + C @ y_new
    # only the pose coordinates move the new landmark: central differences
    # over the offsets +-E in one phi call
    eps = 1e-6
    E = eps * np.eye(d_old)[:3]
    poses = _mixed_parts(3, retraction.phi(state, np.concatenate([E, -E])))[0]
    lms = poses[:, :2, 2] + poses[:, :2, :2] @ y_new
    G = np.zeros((2, d_old))
    G[:, :3] = ((lms[:3] - lms[3:]) / (2.0 * eps)).T

    cross = G @ P  # (2, d_old)
    block = cross @ G.T + C @ obs_cov @ C.T
    P_aug = np.block([[P, cross.T], [cross, 0.5 * (block + block.T)]])

    # the landmarks are the tail of the flat state: append the new one
    return Belief(np.concatenate([state, l_new]), P_aug)


# ---------------------------------------------------------------------------
# IMU + GNSS fusion: extended pose plus gyro and accelerometer biases


def _biased_imu_dynamics(dt, gravity, state, omega, w):
    """inertial_nav's f on bias-corrected inputs; biases random-walk.

    Noise vector: (gyro white, accel white, gyro bias walk, accel bias walk).
    """
    pose, bias = _mixed_parts(5, state)
    pose = _inertial_nav_dynamics(dt, gravity, pose, _omega(omega, 6) - bias, w[..., :6])
    bias = bias + w[..., 6:12]
    if pose.shape[:-2] != bias.shape[:-1]:  # one state and noise, a stack of inputs
        bias = np.broadcast_to(bias, pose.shape[:-2] + (6,))
    return mixed_state(pose, bias)


def _mixed_position(state):
    return _mixed_parts(5, state)[0][..., :3, 4].copy()


def imu_gnss(dt: float = 0.05, speed: float = 4.0, yaw_rate: float = 0.3,
             gyro_std: float = 0.01, accel_std: float = 0.05,
             gyro_walk: float = 1e-4, accel_walk: float = 1e-3,
             gnss_std: float = 0.3, measure_every: int = 20,
             true_gyro_bias=(0.02, -0.01, 0.015),
             true_accel_bias=(0.05, -0.1, 0.08)) -> ModelSpec:
    """GNSS-aided inertial navigation with IMU biases in the state.

    The truth starts with nonzero biases while the belief starts at zero
    bias, so the filter has to estimate them from position fixes alone.
    """
    pose0 = np.eye(5)
    pose0[:3, 3] = np.array([speed, 0.0, 0.0])
    truth = mixed_state(
        pose0, np.concatenate([np.asarray(true_gyro_bias, dtype=float),
                               np.asarray(true_accel_bias, dtype=float)])
    )
    mean = mixed_state(pose0, np.zeros(6))
    return ModelSpec(
        name="imu_gnss",
        f=partial(_biased_imu_dynamics, dt, GRAVITY),
        h=_mixed_position,
        Q=np.diag(
            [gyro_std ** 2 / dt] * 3 + [accel_std ** 2 / dt] * 3
            + [gyro_walk ** 2 * dt] * 3 + [accel_walk ** 2 * dt] * 3
        ),
        R=gnss_std ** 2 * np.eye(3),
        dt=dt,
        retractions={r.name: r for r in (mixed_retraction(3, 2, 6, "left", "bias"),
                                         mixed_retraction(3, 2, 6, "right", "bias"))},
        default_retraction="mixed_right",
        initial_truth=truth,
        initial_mean=mean,
        initial_cov=np.diag(
            [0.05 ** 2] * 3 + [0.1 ** 2] * 3 + [0.5 ** 2] * 3
            + [0.05 ** 2] * 3 + [0.2 ** 2] * 3
        ),
        inputs=partial(_coordinated_turn_imu, dt, speed, yaw_rate, GRAVITY),
        measure_every=measure_every,
        state_labels=(
            "roll", "pitch", "yaw", "vx", "vy", "vz", "px", "py", "pz",
            "bgx", "bgy", "bgz", "bax", "bay", "baz",
        ),
        state_to_vector=partial(_mixed_state_vector, 5, _extended_pose_state_vector),
        renormalize=partial(_renormalize_mixed, 5, 3),
    )


# ---------------------------------------------------------------------------
# Spherical pendulum: a unit vector tracked through its rotation lift


def _lifted_sphere_dynamics(dt, state, omega, w):
    """World-frame rotation increment with a rotation-vector noise factor."""
    return lie.exp_so3(_omega(omega, 3) * dt) @ lie.exp_so3(w) @ state


def _sphere_point(lever, state):
    return state @ lever


def _sphere_plane_observation(lever, state):
    """First two world coordinates of the sphere point."""
    return _sphere_point(lever, state)[..., :2]


def _rotate(w, v):
    """exp_so3(w) @ v as v + a (w x v) + b w x (w x v), in plain floats;
    b = 2 sin^2(t/2) / t^2 needs no small-angle branch."""
    (wx, wy, wz), (vx, vy, vz) = w, v
    t = math.sqrt(wx * wx + wy * wy + wz * wz)
    a, b = (math.sin(t) / t, 2.0 * (math.sin(0.5 * t) / t) ** 2) if t else (1.0, 0.5)
    cx, cy, cz = wy * vz - wz * vy, wz * vx - wx * vz, wx * vy - wy * vx
    return (vx + a * cx + b * (wy * cz - wz * cy), vy + a * cy + b * (wz * cx - wx * cz),
            vz + a * cz + b * (wx * cy - wy * cx))


def _pendulum_rates(dt, tilt, length, gravity_mag, steps):
    """Semi-implicit integration of a spherical pendulum about its rest point.

    The frame is chosen with gravity along +z so the rest direction is +e3
    (the lever default); the tilt is applied about the x axis.  The loop is
    sequential, so it runs on plain floats rather than 3x3 arrays.
    """
    k = dt * (gravity_mag / length)
    x = _rotate((tilt, 0.0, 0.0), (0.0, 0.0, 1.0))
    wx = wy = 0.0
    table = np.empty((steps, 3))
    for n in range(steps):
        # x cross e3 = (x_y, -x_x, 0)
        wx, wy = wx + k * x[1], wy - k * x[0]
        x = _rotate((wx * dt, wy * dt, 0.0), x)
        table[n] = wx, wy, 0.0
    return table


def pendulum_s2(dt: float = 0.01, tilt: float = 0.7, length: float = 1.0,
                gravity_mag: float = 9.81, step_noise_std: float = 0.005,
                obs_std: float = 0.02, measure_every: int = 10) -> ModelSpec:
    """Spherical pendulum direction estimated through its rotation lift.

    The state is the lifting rotation R with the pendulum direction R @ e3;
    observations are the two horizontal coordinates of the direction.
    """
    lever = np.array([0.0, 0.0, 1.0])
    R0 = lie.exp_so3(np.array([tilt, 0.0, 0.0]))
    return ModelSpec(
        name="pendulum_s2",
        f=partial(_lifted_sphere_dynamics, dt),
        h=partial(_sphere_plane_observation, lever),
        Q=step_noise_std ** 2 * np.eye(3),
        R=obs_std ** 2 * np.eye(2),
        dt=dt,
        retractions={r.name: r for r in (group_retraction(3, 0, "left"),
                                         group_retraction(3, 0, "right"))},
        default_retraction="so3_right",
        initial_truth=R0,
        initial_mean=R0.copy(),
        initial_cov=0.1 ** 2 * np.eye(3),
        inputs=partial(_pendulum_rates, dt, tilt, length, gravity_mag),
        measure_every=measure_every,
        state_labels=("x", "y", "z"),
        state_to_vector=partial(_sphere_point, lever),
        renormalize=partial(_renormalize_rotation_block, 3),
    )


# ---------------------------------------------------------------------------
# Registry


_FACTORIES = {
    "localization2d": localization2d,
    "attitude3d": attitude3d,
    "inertial_nav": inertial_nav,
    "slam2d": slam2d,
    "imu_gnss": imu_gnss,
    "pendulum_s2": pendulum_s2,
}


def example_names():
    return tuple(sorted(_FACTORIES))


def make(name: str, **params) -> ModelSpec:
    """Build a registered example by name with keyword overrides; alpha is a
    ModelSpec field, which make sets on the spec the factory builds."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(example_names())
        raise ValueError(f"unknown example {name!r}; choose from: {known}") from None
    model = factory(**{key: value for key, value in params.items() if key != "alpha"})
    return replace(model, alpha=params["alpha"]) if "alpha" in params else model
