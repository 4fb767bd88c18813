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
numpy's, so a filter process loads one BLAS library.  A step's Cholesky and
solves call the LAPACK gufuncs of numpy's wrappers (numpy.linalg._umath_linalg,
private API pinned by test_sigma_core) under _lapack: the same bits and
LinAlgError without the wrappers' argument handling (3 x 3: 3.8 -> 1.6 us).

All sigma points of a step go through each of phi, f, phi_inv and h in one
call, and phi only where it moves a point.  Both halves of a step draw them
through one sampler (_sampled): the mean, phi(mean, xi_j) for the 2a
offsets xi_j = +-the first a Cholesky columns, then copies of the mean.  a
is the number of leading tangent coordinates the dynamics move, declared by
the retraction (Retraction.moved).  propagate pairs 2q copies with the noise
points, so f sees 1 + 2(a + q) points, the paper's 1 + 2(d + q) for a = d,
and phi_inv maps the 2(a + q) images; sampling a < d is exact (see
propagate).  update is the a = d case without copies: h sees 1 + 2d points.
The callables must broadcast over a leading batch axis, f over a state
stack and a noise stack together (see ModelSpec and Retraction); an output
that is constant over the batch is broadcast to it.

A belief may also carry leading run axes: cov (..., d, d) holds the
covariances of independent runs and the mean broadcasts to them (one shared
state, or one per run).  The sigma axis then comes first, so the callables
see (1 + 2(a + q), ..., ·) stacks and every run of a Monte-Carlo batch
shares each call.  Each run's numbers are bit-identical to its run alone.

Weights follow the scaled unscented transform with kappa = 0 and beta = 2;
the spread alpha in (0, 1] is the only knob, set on the model (ModelSpec.alpha)
and passed to propagate and update.  The mean point reuses the plain
mean weight while its covariance term uses w_m + (1 - alpha^2 + beta).
propagate and update are their checks plus private cores; a filter pass
(_filter_steps) checks the model's Q, R and alpha once and steps the cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from . import lie_groups as lie
from .errors import (
    CholeskyFailure,
    DimensionMismatch,
    FilterStepError,
    InvalidAlpha,
    ManifoldUkfError,
    NonFiniteState,
    NonPSDCovariance,
    SingularInnovationCovariance,
)
from .retraction import Retraction, _rows

_JITTER_REL = 1e-9
_JITTER_ABS = 1e-12
_RENORM_EVERY = 1000


@dataclass(frozen=True)
class SigmaWeights:
    """Scaled unscented-transform weights for dimension n and spread alpha."""

    lam: float
    w_m: float
    w_0c: float
    w_j: float


def set_weights(n: int, alpha: float) -> SigmaWeights:
    return _weights(lie._check_int(n, "dimension"),
                    lie._check_number(alpha, "alpha", InvalidAlpha))


@lru_cache(maxsize=64)
def _weights(n: int, alpha: float) -> SigmaWeights:
    lie._check_int(n, "dimension")  # on a cache miss only: an empty P fails here
    lam = alpha * alpha * n - n
    denom = n + lam
    w_m = lam / denom
    w_j = 0.5 / denom
    w_0c = w_m + 3.0 - alpha * alpha  # + (1 - alpha^2 + beta) with beta = 2
    return SigmaWeights(lam, w_m, w_0c, w_j)


def sigma_points(P, lam: float) -> np.ndarray:
    """The 2n symmetric sigma points +-col_i(sqrt((lam + n) P)).

    P may be a stack (..., n, n); the result is (2n, ..., n), sigma axis
    first.  NaN or inf in P raises NonPSDCovariance, as LAPACK factors it
    without an error.  A failed Cholesky gets one retry with diagonal jitter
    scaled to trace(P), on the failing covariances of a stack only; if that
    also fails the covariance is declared broken.
    """
    return np.concatenate([Lt := _columns(P, lam), -Lt])


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("matrix is singular or not positive definite")


# numpy.linalg's error state as a decorator: a _umath_linalg gufunc on float64
# arrays raises LinAlgError in it where its numpy.linalg wrapper would
_lapack = np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                      divide="ignore", under="ignore")
_cholesky, _solve = _lapack(_umath_linalg.cholesky_lo), _lapack(_umath_linalg.solve)


def _columns(P, lam: float) -> np.ndarray:
    """The first half of sigma_points(P, lam), (n, ..., n)."""
    P = lie._floats(P, "P")
    if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
        raise DimensionMismatch(f"P must be square, (..., n, n), got shape {P.shape}")
    if lie._count_nonzero(np.isfinite(P)) != P.size:
        raise NonPSDCovariance("P holds NaN or inf")
    n = P.shape[-1]
    scale = lam + n
    if scale <= 0.0:
        raise ValueError(f"lam + n must be positive, got {scale}")
    try:
        L = _cholesky(scale * P)
    except np.linalg.LinAlgError:
        L = np.empty(P.shape)
        for i in np.ndindex(P.shape[:-2]):
            L[i] = _jittered_cholesky(P[i], scale)
    return L.transpose((-1,) + tuple(range(L.ndim - 1)))


def _jittered_cholesky(P, scale):
    """Cholesky factor of scale * P for one covariance; one jittered retry."""
    try:
        return _cholesky(scale * P)
    except np.linalg.LinAlgError:
        pass
    n = P.shape[0]
    delta = _JITTER_REL * float(np.trace(P)) / n
    if delta <= 0.0:
        delta = _JITTER_ABS
    try:
        return _cholesky(scale * (P + delta * np.eye(n)))
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(
            f"covariance not factorizable even with jitter {delta:.3e}"
        ) from exc


@lru_cache(maxsize=64)
def _noise_points(Q_bytes: bytes, shape: tuple, alpha: float, head: int,
                  run_axes: int):
    """Q's read-only noise stack and its weights for alpha (None if Q is all
    zero), from Q's bytes and shape, checked square and finite: `head` zero
    rows, then sigma_points(Q, lam) unless Q is all zero, each row shaped
    (1,) * run_axes + (q,) so that every run shares it.  propagate reuses
    both, and skips the checks, while Q keeps its values."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"Q must be square, (q, q), got shape {shape}")
    Q = np.frombuffer(Q_bytes).reshape(shape)
    if lie._count_nonzero(np.isfinite(Q)) != Q.size:
        raise NonPSDCovariance("Q holds NaN or inf")
    w = set_weights(shape[0], alpha) if Q.any() else None
    points = sigma_points(Q, w.lam) if w else np.empty((0, shape[0]))
    stack = np.zeros((head + len(points),) + (1,) * run_axes + shape[:1])
    stack.reshape(len(stack), -1)[head:] = points
    stack.flags.writeable = False
    return stack, w


def _sampled(belief, w: SigmaWeights, retraction: Retraction, a: int, rows: int):
    """The 2a offsets xis = +-the first a scaled factor columns for the
    belief's weights w (sigma_points' rows :a and d:d + a), and the
    (rows, ...) stack of the mean, phi(mean, xis), then copies of the mean."""
    cols = _columns(belief.cov, w.lam)[:a]
    xis = np.concatenate([cols, -cols])
    offsets = retraction.phi(belief.mean, xis)
    stack = np.empty((rows,) + offsets.shape[1:])
    stack[0] = stack[1 + 2 * a:] = belief.mean
    stack[1:1 + 2 * a] = offsets
    return xis, stack


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

    f sees 1 + 2(a + q) points in one call, where a is the number of
    leading tangent coordinates the dynamics move (retraction.moved, all d
    of them by default): the mean with zero noise, whose image is the new
    mean; the 2a state sigma points phi(mean, xi_j) with zero noise, which
    re-express the state uncertainty at the new mean; and the mean itself
    with each of the 2q noise sigma points drawn from Q.  So phi runs on the
    2a offsets only and phi_inv on the other 2a + 2q images; the mean's own
    image would map to zero, so it is left out of phi_inv and of both sums.
    With Q all zero the stack has only the 1 + 2a zero-noise rows.  On a
    belief with run axes the state stack is (1 + 2(a + q), ..., ·), the
    noise stack (1 + 2(a + q), 1, ..., q), and the new mean one state per
    run.  The new mean is a copy, so a belief does not keep f's whole
    output alive.

    With a < d this is the full transform, not an approximation.  The sigma
    points are the columns of a lower-triangular Cholesky factor, so every
    point past the first a is zero on the leading a coordinates: it differs
    from the mean only in the tail, which f copies and does not read, so its
    image is its own offset and it adds 2 w_j sum_{j >= a} L_j L_j^T to the
    tail block alone.  The 2a sampled points cover every other entry, and
    their tails too add to the tail block; as f leaves the noise points'
    tails at the mean's, the tail block sums to 2 w_j (L L^T)_tail = P_tail.
    So propagate computes the moving rows and columns from the 2a points and
    copies the tail block from P, which the full transform reproduces in
    exact arithmetic (in floating point, to the last few digits).  After a
    jittered Cholesky (see sigma_points) the full transform would carry the
    jitter, at most 1e-9 trace(P) / d on the diagonal, into the tail block;
    the copy does not.

    d is the belief's dimension, not the retraction's, so a state grown at
    runtime (augment_landmark) keeps filtering; a width the retraction's
    factors cannot take raises DimensionMismatch.
    """
    Q, alpha = lie._floats(Q, "Q"), lie._check_number(alpha, "alpha", InvalidAlpha)
    return _propagate(belief, omega, f, (Q.tobytes(), Q.shape), retraction, alpha)


def _propagate(belief, omega, f, Q_key, retraction, alpha):
    """propagate for a checked alpha and Q as its noise stack's key."""
    d = belief.dim
    a = retraction.moved or d
    lead = belief.cov.shape[:-2]
    noise, w_q = _noise_points(*Q_key, alpha, 1 + 2 * a, len(lead))
    w_d = _weights(d, alpha)
    _, states = _sampled(belief, w_d, retraction, a, len(noise))
    out = _rows(f(states, omega, noise), states.shape[:-1], states.shape[-1])
    mean_new = out[0].copy()
    imgs = _rows(retraction.phi_inv(mean_new, out[1:]),
                 (len(out) - 1,) + lead, d)
    state_imgs, noise_imgs = imgs[:2 * a], imgs[2 * a:]
    cov = w_d.w_j * _gram(state_imgs, state_imgs)
    if w_q:
        cov = cov + w_q.w_j * _gram(noise_imgs, noise_imgs)
    if a < d:
        cov[..., a:, a:] = belief.cov[..., a:, a:]

    return Belief(mean_new, 0.5 * (cov + cov.swapaxes(-1, -2)))


def update(belief: Belief, y, h: Callable, R, retraction: Retraction,
           alpha: float) -> Belief:
    """One measurement update.

    Sigma points live in the tangent space at the current mean; h sees the
    paper's 1 + 2d points in one call, sampled as by propagate with a = d:
    the mean, then phi(mean, xi_j) (phi runs once more on the correction).
    The Kalman gain maps innovation to a tangent correction which is
    retracted onto the state.  The covariance update P - K S K^T keeps the
    existing tangent coordinates.  On a belief with run axes, y holds one
    measurement per run, (..., p), and h sees a (1 + 2d, ..., ·) stack.  As
    in propagate, the sigma points take the belief's dimension.  NaN or inf
    in P, S or y fails the update.
    """
    y, R = lie._floats(y, "y"), lie._floats(R, "R")
    return _update(belief, _measured(y, R), h, R, retraction, set_weights(belief.dim, alpha))


def _measured(y, R) -> np.ndarray:
    """y, DimensionMismatch unless R is (p, p) for y (..., p); both floats."""
    if R.ndim != 2 or R.shape != y.shape[-1:] * 2:
        raise DimensionMismatch(f"R must be (p, p) for measurements of shape "
                                f"(..., p), got R {R.shape} and y {y.shape}")
    return y


def _update(belief, y, h, R, retraction, w: SigmaWeights):
    """update's core, for y and R from _measured and the belief's weights."""
    d = belief.dim
    xis, points = _sampled(belief, w, retraction, d, 1 + 2 * d)
    lead = xis.shape[1:-1]
    y_all = _rows(h(points), (2 * d + 1,) + lead, R.shape[0])
    y0, ys = y_all[0], y_all[1:]

    y_bar = w.w_m * y0 + w.w_j * np.add.reduce(ys, axis=0)
    dy0 = y0 - y_bar
    dys = ys - y_bar
    S = (w.w_0c * (dy0[..., :, None] * dy0[..., None, :])
         + w.w_j * _gram(dys, dys) + R)
    if lie._count_nonzero(np.isfinite(S)) != S.size:  # LAPACK factors NaN
        raise SingularInnovationCovariance("innovation covariance holds NaN or inf")
    if lie._count_nonzero(np.isfinite(y)) != y.size:  # y_bar is finite once S is
        raise NonFiniteState("measurement y holds NaN or inf")
    K = _gain(S, w.w_j * _gram(xis, dys))

    mean_new = retraction.phi(belief.mean, (K @ (y - y_bar)[..., None])[..., 0])
    cov = belief.cov - K @ S @ K.swapaxes(-1, -2)
    return Belief(mean_new, 0.5 * (cov + cov.swapaxes(-1, -2)))


@_lapack
def _gain(S, P_xy) -> np.ndarray:
    """Kalman gain P_xy S^-1, for one S or per element of a stack, as a
    C-contiguous array.  The Cholesky factorization of S is only the
    positive-definiteness check: numpy has no Cholesky solve, and one LU
    solve on S costs less than two solves on the factor.  Both run in one
    _lapack; S must be finite, as LAPACK factors NaN without an error."""
    try:
        _umath_linalg.cholesky_lo(S)
        K = _umath_linalg.solve(S, P_xy.swapaxes(-1, -2))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCovariance(
            "innovation covariance is not positive definite") from exc
    return np.ascontiguousarray(K.swapaxes(-1, -2))


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
    """Yield each step's belief of filter_run's recursion from `belief`, with
    its FilterStepError step; Q, R and alpha are checked once, at step 1."""
    schedule = measurements or {}
    step = 0
    try:
        for step, omega in enumerate(inputs, start=1):
            if step == 1:  # the model's Q, alpha and R, read once per pass
                Q = lie._floats(model.Q, "Q")
                alpha = lie._check_number(model.alpha, "alpha", InvalidAlpha)
                Q_key, R = (Q.tobytes(), Q.shape), lie._floats(model.R, "R")
            belief = _propagate(belief, omega, model.f, Q_key, retr, alpha)
            if step in schedule:
                y = _measured(lie._floats(schedule[step], "y"), R)
                belief = _update(belief, y, model.h, R, retr, _weights(belief.dim, alpha))
            if step % _RENORM_EVERY == 0:
                belief = Belief(model.renormalize(belief.mean), belief.cov)
            yield belief
    except (ManifoldUkfError, np.linalg.LinAlgError) as exc:
        raise FilterStepError(step, exc) from exc
