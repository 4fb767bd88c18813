"""Sigma-point filter core, generic over a retraction.

The belief is (mean, P) with P a covariance over tangent coordinates at the
mean.  Propagation pushes sigma points through the dynamics and maps them
back through phi_inv at the new mean; process noise gets its own set of
sigma points, weighted apart from the state's, so the state and noise
dimensions are never augmented into one covariance.  The update applies a
standard unscented correction to the measurement moments and retracts the
correction vector onto the state.

All sigma points of a step go through each of phi, f, phi_inv and h in one
call: propagate stacks the 2d state points and the 2q noise points into one
(2d + 2q)-row batch, so per step f runs twice (once at the mean) and phi
and phi_inv once each.  The callables must broadcast over a leading batch
axis, f over a state stack and a noise stack together (see ModelSpec and
Retraction); an output that is constant over the batch is broadcast to it.

A belief may also carry leading run axes: cov (..., d, d) holds the
covariances of independent runs and the mean broadcasts to them (one shared
state, or one per run).  The sigma axis then comes first, so the callables
see (2(d + q), ..., ·) stacks and every run of a Monte-Carlo batch shares
each call.  Each run's numbers are bit-identical to its run alone.

Weights follow the scaled unscented transform with kappa = 0 and beta = 2;
the spread alpha in (0, 1] is the only knob, set on the model (ModelSpec.alpha)
and passed to propagate and update.  The mean point reuses the plain
mean weight while its covariance term uses w_m + (1 - alpha^2 + beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Union

import numpy as np
import scipy.linalg

from .errors import (
    CholeskyFailure,
    DimensionMismatch,
    FilterStepError,
    InvalidAlpha,
    ManifoldUkfError,
    SingularInnovationCovariance,
)
from .retraction import Retraction, _rows

_JITTER_REL = 1e-9
_JITTER_ABS = 1e-12
_RENORM_EVERY = 1000
# LAPACK's Cholesky factor and solve, as scipy.linalg.cho_factor / cho_solve
# call them, without their per-call checks
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"),
                                               (np.empty(0),))


@dataclass(frozen=True)
class SigmaWeights:
    """Scaled unscented-transform weights for dimension n and spread alpha."""

    n: int
    alpha: float
    lam: float
    w_m: float
    w_0c: float
    w_j: float


def set_weights(n: int, alpha: float) -> SigmaWeights:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1], got {alpha}")
    return _weights(int(n), alpha)


@lru_cache(maxsize=64)
def _weights(n: int, alpha: float) -> SigmaWeights:
    lam = alpha * alpha * n - n
    denom = n + lam
    w_m = lam / denom
    w_j = 0.5 / denom
    w_0c = w_m + 3.0 - alpha * alpha  # + (1 - alpha^2 + beta) with beta = 2
    return SigmaWeights(n, alpha, lam, w_m, w_0c, w_j)


def sigma_points(P, lam: float) -> np.ndarray:
    """The 2n symmetric sigma points +-col_i(sqrt((lam + n) P)).

    P may be a stack (..., n, n); the result is (2n, ..., n), sigma axis
    first.  A failed Cholesky gets one retry with diagonal jitter scaled to
    trace(P), on the failing covariances of a stack only; if that also fails
    the covariance is declared broken.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[-1]
    scale = lam + n
    if scale <= 0.0:
        raise ValueError(f"lam + n must be positive, got {scale}")
    try:
        L = np.linalg.cholesky(scale * P)
    except np.linalg.LinAlgError:
        L = np.empty(P.shape)
        for i in np.ndindex(P.shape[:-2]):
            L[i] = _jittered_cholesky(P[i], scale)
    Lt = L.transpose((-1,) + tuple(range(L.ndim - 1)))
    return np.concatenate([Lt, -Lt])


def _jittered_cholesky(P, scale):
    """Cholesky factor of scale * P for one covariance; one retry with
    jitter."""
    try:
        return np.linalg.cholesky(scale * P)
    except np.linalg.LinAlgError:
        pass
    n = P.shape[0]
    delta = _JITTER_REL * float(np.trace(P)) / n
    if delta <= 0.0:
        delta = _JITTER_ABS
    try:
        return np.linalg.cholesky(scale * (P + delta * np.eye(n)))
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(
            f"covariance not factorizable even with jitter {delta:.3e}"
        ) from exc


@lru_cache(maxsize=64)
def _noise_points(Q_bytes: bytes, shape: tuple, lam: float) -> np.ndarray:
    """Read-only sigma_points(Q, lam) of the noise covariance Q with these
    bytes and shape: propagate reuses them while Q keeps its values."""
    points = sigma_points(np.frombuffer(Q_bytes).reshape(shape), lam)
    points.flags.writeable = False
    return points


def _gram(a, b) -> np.ndarray:
    """sum_i a_i^T b_i over the sigma axis 0: (N, ..., m) x (N, ..., k) ->
    (..., m, k); a.T @ b for 2-D inputs, at its cost and to the bit."""
    return np.matmul(a, b, axes=[(-1, 0), (0, -1), (-2, -1)])


@dataclass(frozen=True)
class Belief:
    """State estimate: a mean point and a tangent-space covariance.

    cov may be a stack (..., d, d), one covariance per run; mean is then one
    state shared by every run or a stack of states with those leading axes.
    """

    mean: Any
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.cov.shape[-1]


def propagate(belief: Belief, omega, f: Callable, Q, retraction: Retraction,
              alpha: float) -> Belief:
    """One prediction step.

    The new mean is the unnoisy image of the old mean.  State uncertainty is
    re-expressed at the new mean by pushing the 2d state sigma points through
    f with zero noise; process noise contributes through its own 2q sigma
    points drawn from Q and pushed through f at the old mean.  Both sets go
    through one phi, one f and one phi_inv call as a single stack: states
    phi(mean, [xis; 0]) with noise [0; ws], so the noise rows see the mean
    itself (phi(mean, 0) == mean).  With Q all zero the stack has only the
    2d state rows.  The mean sigma point maps to zero by construction and
    drops out of both sums.  On a belief with run axes the stack is
    (2d + 2q, ..., ·) and the noise points (2d + 2q, 1, ..., q).

    d is the belief's dimension, not the retraction's, so a state grown at
    runtime (augment_landmark) keeps filtering; a width the retraction's
    factors cannot take raises DimensionMismatch.
    """
    Q = np.asarray(Q, dtype=float)
    d = belief.dim
    q = Q.shape[0]
    mean_new = f(belief.mean, omega, np.zeros(q))

    w_d = set_weights(d, alpha)
    xis = sigma_points(belief.cov, w_d.lam)
    lead = xis.shape[1:-1]
    ones = (1,) * len(lead)  # noise is the same for every run
    noise = np.zeros((2 * d,) + ones + (q,))
    noisy = Q.any()
    if noisy:
        w_q = set_weights(q, alpha)
        xis = np.concatenate([xis, np.zeros((2 * q,) + lead + (d,))])
        noise = np.concatenate([noise, _noise_points(
            Q.tobytes(), Q.shape, w_q.lam).reshape((2 * q,) + ones + (q,))])
    imgs = _rows(retraction.phi_inv(
        mean_new, f(retraction.phi(belief.mean, xis), omega, noise)),
        xis.shape[:-1], d)
    state_imgs, noise_imgs = imgs[:2 * d], imgs[2 * d:]
    cov = w_d.w_j * _gram(state_imgs, state_imgs)
    if noisy:
        cov = cov + w_q.w_j * _gram(noise_imgs, noise_imgs)

    return Belief(mean_new, 0.5 * (cov + cov.swapaxes(-1, -2)))


def update(belief: Belief, y, h: Callable, R, retraction: Retraction,
           alpha: float) -> Belief:
    """One measurement update.

    Sigma points live in the tangent space at the current mean; the Kalman
    gain maps innovation to a tangent correction which is retracted onto the
    state.  The covariance update P - K S K^T keeps the existing tangent
    coordinates.  On a belief with run axes, y holds one measurement per
    run, (..., p).  As in propagate, the sigma points take the belief's
    dimension.
    """
    y = np.asarray(y, dtype=float)
    R = np.asarray(R, dtype=float)
    if y.shape[-1:] != R.shape[:1]:
        raise DimensionMismatch(
            f"measurement shape {y.shape} does not match R of shape {R.shape}")
    d = belief.dim
    w = set_weights(d, alpha)
    xis = sigma_points(belief.cov, w.lam)
    lead = xis.shape[1:-1]

    # row 0 is the mean itself: phi(mean, 0) == mean
    points = retraction.phi(
        belief.mean, np.concatenate([np.zeros((1,) + lead + (d,)), xis]))
    y_all = _rows(h(points), (2 * d + 1,) + lead, R.shape[0])
    y0, ys = y_all[0], y_all[1:]

    y_bar = w.w_m * y0 + w.w_j * ys.sum(axis=0)
    dy0 = y0 - y_bar
    dys = ys - y_bar
    S = (w.w_0c * (dy0[..., :, None] * dy0[..., None, :])
         + w.w_j * _gram(dys, dys) + R)
    K = _gain(S, w.w_j * _gram(xis, dys))

    mean_new = retraction.phi(belief.mean, (K @ (y - y_bar)[..., None])[..., 0])
    cov = belief.cov - K @ S @ K.swapaxes(-1, -2)
    return Belief(mean_new, 0.5 * (cov + cov.swapaxes(-1, -2)))


def _gain(S, P_xy) -> np.ndarray:
    """Kalman gain P_xy S^-1 through the Cholesky factor of S, per element
    of a stack."""
    K = np.empty(P_xy.shape)
    for i in np.ndindex(S.shape[:-2]):
        factor, info = _POTRF(S[i])
        if info != 0:
            raise SingularInnovationCovariance(
                "innovation covariance is not positive definite")
        K[i] = _POTRS(factor, P_xy[i].T)[0].T
    return K


MeasurementSchedule = Union[None, Mapping[int, Any], Iterable]


def _as_schedule(measurements: MeasurementSchedule) -> dict:
    if measurements is None:
        return {}
    if isinstance(measurements, Mapping):
        return {int(k): v for k, v in measurements.items()}
    return {int(step): y for step, y in measurements}


def filter_run(model, inputs, measurements: MeasurementSchedule = None, *,
               retraction=None):
    """Run the full recursion over an input sequence.

    inputs[n-1] drives step n (1-based); measurements map step indices to
    measurement vectors and trigger an update right after that step's
    prediction.  Returns one Belief per step.  Any numerical failure, a
    LinAlgError from inside f or h or a measurement of the wrong length
    included, is re-raised as FilterStepError carrying the step index.
    retraction is whatever model.retraction() accepts; the sigma-point
    spread is model.alpha.

    The rotation block of the mean is re-orthonormalized every 1000 steps,
    as simulate() does with the truth; this guards long runs against drift
    and never moves the mean by more than floating-point dust.

    This is the list of _filter_steps, which yields each step's belief as
    it is made; benchmark() consumes that stream and keeps no belief past
    its reduction.
    """
    return [belief for _, belief in _filter_steps(
        model, inputs, measurements, model.retraction(retraction), model.alpha,
        Belief(model.initial_mean, model.initial_cov))]


def _filter_steps(model, inputs, measurements: MeasurementSchedule,
                  retr: Retraction, alpha: float, belief: Belief):
    """Yield (step, belief) after each step of filter_run's recursion from
    the initial belief, with its FilterStepError step attribution."""
    schedule = _as_schedule(measurements)
    step = 0
    try:
        for step, omega in enumerate(inputs, start=1):
            belief = propagate(belief, omega, model.f, model.Q, retr, alpha)
            if step in schedule:
                belief = update(belief, schedule[step], model.h, model.R,
                                retr, alpha)
            if step % _RENORM_EVERY == 0:
                belief = Belief(model.renormalize(belief.mean), belief.cov)
            yield step, belief
    except (ManifoldUkfError, np.linalg.LinAlgError) as exc:
        raise FilterStepError(step, exc) from exc
