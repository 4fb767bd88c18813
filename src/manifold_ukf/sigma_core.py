"""Sigma-point filter core, generic over a retraction.

The belief is (mean, P) with P a covariance over tangent coordinates at the
mean.  Propagation pushes sigma points through the dynamics and maps them
back through phi_inv at the new mean; process noise gets its own set of
sigma points, weighted apart from the state's, so the state and noise
dimensions are never augmented into one covariance.  The update applies a
standard unscented correction to the measurement moments and retracts the
correction vector onto the state.  The gain factors the innovation
covariance by Cholesky only to check that it is positive definite, and
takes the gain from one LU solve.  All of the package's linear algebra is
numpy's, so a filter process loads one BLAS library.

All sigma points of a step go through each of phi, f, phi_inv and h in one
call, and phi only where it moves a point.  propagate pushes the paper's
1 + 2(d + q) points through f as one stack: the mean, the 2d retracted
state points phi(mean, xi_j), then 2q copies of the mean paired with the
noise points; phi maps the 2d offsets and phi_inv the 2(d + q) images.
update pushes the mean and its 2d retracted points through h as one
(1 + 2d)-row stack.  The callables must broadcast over a leading batch
axis, f over a state stack and a noise stack together (see ModelSpec and
Retraction); an output that is constant over the batch is broadcast to it.

A belief may also carry leading run axes: cov (..., d, d) holds the
covariances of independent runs and the mean broadcasts to them (one shared
state, or one per run).  The sigma axis then comes first, so the callables
see (1 + 2(d + q), ..., ·) stacks and every run of a Monte-Carlo batch
shares each call.  Each run's numbers are bit-identical to its run alone.

Weights follow the scaled unscented transform with kappa = 0 and beta = 2;
the spread alpha in (0, 1] is the only knob, set on the model (ModelSpec.alpha)
and passed to propagate and update.  The mean point reuses the plain
mean weight while its covariance term uses w_m + (1 - alpha^2 + beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional

import numpy as np

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
    return _weights(int(n), _check_alpha(alpha))


def _check_alpha(alpha) -> float:
    """alpha as a float, or InvalidAlpha if it is not a number in (0, 1]."""
    try:
        value = float(alpha)
    except (TypeError, ValueError):
        value = float("nan")
    if not 0.0 < value <= 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1], got {alpha}")
    return value


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
def _noise_points(Q_bytes: bytes, shape: tuple, lam: float, head: int,
                  run_axes: int) -> np.ndarray:
    """Read-only noise stack of the noise covariance Q with these bytes and
    shape: `head` zero rows, then sigma_points(Q, lam) unless Q is all zero
    (lam is then unused), each row shaped (1,) * run_axes + (q,) so that
    every run shares it.  propagate reuses it while Q keeps its values."""
    Q = np.frombuffer(Q_bytes).reshape(shape)
    points = sigma_points(Q, lam) if Q.any() else np.empty((0, shape[0]))
    stack = np.zeros((head + len(points),) + (1,) * run_axes + shape[:1])
    stack.reshape(len(stack), -1)[head:] = points
    stack.flags.writeable = False
    return stack


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

    f sees the paper's 1 + 2(d + q) points in one call: the mean with zero
    noise, whose image is the new mean; the 2d state sigma points
    phi(mean, xi_j) with zero noise, which re-express the state uncertainty
    at the new mean; and the mean itself with each of the 2q noise sigma
    points drawn from Q.  So phi runs on the 2d offsets only and phi_inv on
    the other 2d + 2q images; the mean's own image would map to zero, so it
    is left out of phi_inv and of both sums.  With Q all zero the stack has
    only the 1 + 2d zero-noise rows.  On a belief with run axes the state
    stack is (1 + 2(d + q), ..., ·), the noise stack (1 + 2(d + q), 1, ...,
    q), and the new mean one state per run.  The new mean is a copy, so a
    belief does not keep f's whole output alive.

    d is the belief's dimension, not the retraction's, so a state grown at
    runtime (augment_landmark) keeps filtering; a width the retraction's
    factors cannot take raises DimensionMismatch.
    """
    Q = np.asarray(Q, dtype=float)
    d = belief.dim
    w_d = set_weights(d, alpha)
    xis = sigma_points(belief.cov, w_d.lam)
    lead = xis.shape[1:-1]
    noisy = Q.any()
    w_q = set_weights(Q.shape[0], alpha) if noisy else None
    noise = _noise_points(Q.tobytes(), Q.shape, w_q.lam if noisy else 0.0,
                          1 + 2 * d, len(lead))
    offsets = retraction.phi(belief.mean, xis)
    states = np.empty((len(noise),) + offsets.shape[1:])
    states[0] = belief.mean
    states[1:1 + 2 * d] = offsets
    states[1 + 2 * d:] = belief.mean
    out = _rows(f(states, omega, noise), states.shape[:-1], states.shape[-1])
    mean_new = out[0].copy()
    imgs = _rows(retraction.phi_inv(mean_new, out[1:]),
                 (len(out) - 1,) + lead, d)
    state_imgs, noise_imgs = imgs[:2 * d], imgs[2 * d:]
    cov = w_d.w_j * _gram(state_imgs, state_imgs)
    if noisy:
        cov = cov + w_q.w_j * _gram(noise_imgs, noise_imgs)

    return Belief(mean_new, 0.5 * (cov + cov.swapaxes(-1, -2)))


def update(belief: Belief, y, h: Callable, R, retraction: Retraction,
           alpha: float) -> Belief:
    """One measurement update.

    Sigma points live in the tangent space at the current mean; h sees the
    paper's 1 + 2d points in one call, the mean itself in row 0 and then
    phi(mean, xi_j), so phi runs on the 2d offsets only (and once more on
    the correction).  The Kalman gain maps innovation to a tangent
    correction which is retracted onto the state.  The covariance update
    P - K S K^T keeps the existing tangent coordinates.  On a belief with
    run axes, y holds one measurement per run, (..., p), and h sees a
    (1 + 2d, ..., ·) stack.  As in propagate, the sigma points take the
    belief's dimension.
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

    offsets = retraction.phi(belief.mean, xis)
    points = np.empty((1 + 2 * d,) + offsets.shape[1:])
    points[0] = belief.mean
    points[1:] = offsets
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
    """Kalman gain P_xy S^-1, for one S or per element of a stack, as a
    C-contiguous array.  The Cholesky factorization of S is only the
    positive-definiteness check: numpy has no Cholesky solve, and one LU
    solve on S costs less than two solves on the factor."""
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovariance(
            "innovation covariance is not positive definite") from exc
    K = np.linalg.solve(S, P_xy.swapaxes(-1, -2)).swapaxes(-1, -2)
    return np.ascontiguousarray(K)


def filter_run(model, inputs, measurements: Optional[Mapping[int, Any]] = None,
               *, retraction=None):
    """Run the full recursion over an input sequence.

    inputs[n-1] drives step n (1-based); measurements, a mapping or None,
    map step indices to measurement vectors and trigger an update right
    after that step's prediction.  Returns one Belief per step.  Any
    numerical failure, a LinAlgError from inside f or h or a measurement of
    the wrong length included, is re-raised as FilterStepError carrying the
    step index.
    retraction is whatever model.retraction() accepts; the sigma-point
    spread is model.alpha.

    The rotation block of the mean is re-orthonormalized every 1000 steps,
    as simulate() does with the truth; this guards long runs against drift
    and never moves the mean by more than floating-point dust.

    This is the list of _filter_steps, which yields each step's belief as
    it is made; benchmark() and the run command consume that stream in
    chunks (montecarlo._scored) and keep no belief past its chunk.
    """
    return list(_filter_steps(model, inputs, measurements,
                              model.retraction(retraction),
                              Belief(model.initial_mean, model.initial_cov)))


def _filter_steps(model, inputs, measurements: Optional[Mapping[int, Any]],
                  retr: Retraction, belief: Belief):
    """Yield the belief after each step of filter_run's recursion from the
    initial belief, with its FilterStepError step attribution."""
    schedule = measurements or {}
    step = 0
    try:
        for step, omega in enumerate(inputs, start=1):
            belief = propagate(belief, omega, model.f, model.Q, retr, model.alpha)
            if step in schedule:
                belief = update(belief, schedule[step], model.h, model.R,
                                retr, model.alpha)
            if step % _RENORM_EVERY == 0:
                belief = Belief(model.renormalize(belief.mean), belief.cov)
            yield belief
    except (ManifoldUkfError, np.linalg.LinAlgError) as exc:
        raise FilterStepError(step, exc) from exc
