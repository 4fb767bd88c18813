"""Matrix Lie-group primitives for SO(2), SO(3) and the SE_k(d) family.

Group elements are plain square numpy arrays.  SE_k(d) elements use the
block embedding

    [[ C   p_1 ... p_k ]
     [ 0       I_k     ]]

with C a d x d rotation and p_i in R^d, so SO(d) is k = 0, SE(d) is k = 1
and the extended pose group used for inertial navigation is k = 2, d = 3.
Tangent coordinates are ordered (rotation part, p_1, ..., p_k); the
rotation part is a scalar for d = 2 and a 3-vector for d = 3.

Closed forms are used throughout: Rodrigues for exp, atan2-based log, and
the SO(d) left Jacobian for the translational columns of exp/log on
SE_k(d).  Trigonometric factors switch to Taylor expansions below
_SMALL_ANGLE to stay accurate near zero, and one coefficient routine
(_so3_coeffs) holds every SO(3) series.  Near pi the SO(3) log takes the
rotation axis from the symmetric part of the matrix.

exp, log, inverse, wedge_so3 and the left Jacobians broadcast over leading
axes ((..., 3) rotation vectors to (..., 3, 3) matrices, and so on); branches
are chosen per element, and one bad element of a stack fails the call.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedEmbedding,
    NearPiRotation,
    NonSkewInput,
    NotARotation,
)

_SMALL_ANGLE = 1e-4
_PI_MARGIN = 1e-6
# log_so3 takes the axis from the symmetric part above pi - _PI_BRANCH,
# where theta / sin(theta) would cost more than a digit
_PI_BRANCH = 0.1
_SKEW_TOL = 1e-9
_ROT_TOL = 1e-9
# wedge_so3(omega) == omega[..., _WEDGE_IDX] * _WEDGE_SIGN
_WEDGE_IDX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_WEDGE_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


@cache
def _eye(n: int) -> np.ndarray:
    """A read-only n x n identity, built once per size."""
    out = np.eye(n)
    out.flags.writeable = False
    return out


@cache
def _det_terms(d: int):
    """rows, perms, signs with det(C) = C[..., rows, perms].prod(-1) @ signs."""
    perms = np.array(list(permutations(range(d))))
    i, j = np.triu_indices(d, 1)
    return np.arange(d), perms, np.sign(perms[:, j] - perms[:, i]).prod(axis=1) * 1.0


def rot_dim(d: int) -> int:
    """Tangent dimension of a d x d rotation block."""
    return d * (d - 1) // 2


def tangent_dim(d: int, k: int) -> int:
    """Tangent dimension of SE_k(d)."""
    return rot_dim(d) + k * d


# ---------------------------------------------------------------------------
# so(2) / so(3)


def wedge_so2(theta: float) -> np.ndarray:
    return np.array([[0.0, -theta], [theta, 0.0]])


def vee_so2(M) -> float:
    M = np.asarray(M, dtype=float)
    _require_skew(M, 2)
    return float(M[1, 0])


def wedge_so3(omega) -> np.ndarray:
    """Skew matrices of (..., 3) vectors: wedge(omega) @ v == cross(omega, v)."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-1:] != (3,):
        raise DimensionMismatch(f"expected (..., 3) vectors, got shape {omega.shape}")
    return omega[..., _WEDGE_IDX] * _WEDGE_SIGN


def vee_so3(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    _require_skew(M, 3)
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def _require_skew(M, d):
    if M.shape != (d, d):
        raise DimensionMismatch(f"expected a {d}x{d} matrix, got {M.shape}")
    if not np.isfinite(M).all() or np.abs(M + M.T).max() > _SKEW_TOL:
        raise NonSkewInput("matrix is not skew-symmetric within 1e-9")


def _rot2(c, s) -> np.ndarray:
    """Stack of 2x2 matrices [[c, -s], [s, c]]."""
    return np.stack([c, -s, s, c], axis=-1).reshape(np.shape(c) + (2, 2))


def _require_below_pi(theta):
    worst = float(np.max(np.abs(theta), initial=0.0))
    if worst >= math.pi - _PI_MARGIN:
        raise NearPiRotation(f"rotation angle {worst:.9f} is within 1e-6 of pi")


def exp_so2(theta) -> np.ndarray:
    return _rot2(np.cos(theta), np.sin(theta))


def log_so2(C):
    C = np.asarray(C, dtype=float)
    _require_rotation(C, 2)
    theta = np.arctan2(C[..., 1, 0], C[..., 0, 0])
    _require_below_pi(theta)
    return theta


# Coefficients of the SO(3) closed forms I + a W + b W^2, W = wedge(omega):
#   exp          a = sinc,        b = cosc
#   left Jac.    a = cosc,        b = sinc3
#   inverse      a = -1/2,        b = cotc
# as closed forms in theta and, below _SMALL_ANGLE, Taylor series in theta^2.
_TAYLOR = {
    "sinc": lambda t2: 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0),          # sin(t) / t
    "cosc": lambda t2: 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0)),  # (1 - cos t) / t^2
    "sinc3": lambda t2: (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)) / 6.0,  # (t - sin t) / t^3
    "cotc": lambda t2: (1.0 + t2 / 60.0) / 12.0,  # (1 - (t/2) cot(t/2)) / t^2
}


def _so3_coeffs(theta2, *kinds):
    """The named coefficients at squared angles theta2, one array each.

    The Taylor series are evaluated only on elements below the small-angle
    cutoff, if any; the closed forms then see theta = 1 there, so they
    never divide by zero.  The inverse Jacobian's cotc needs half-angle trig
    and is never asked for together with the others.
    """
    small = theta2 < _SMALL_ANGLE * _SMALL_ANGLE
    any_small = bool(small.any())
    t2 = np.where(small, 1.0, theta2) if any_small else theta2
    t = np.sqrt(t2)
    if kinds == ("cotc",):
        half = 0.5 * t
        closed = {"cotc": (1.0 - half * np.cos(half) / np.sin(half)) / t2}
    else:
        sin = np.sin(t)
        closed = {"sinc": sin / t, "cosc": (1.0 - np.cos(t)) / t2}
        if "sinc3" in kinds:
            closed["sinc3"] = (t - sin) / (t2 * t)
    if not any_small:
        return [closed[kind] for kind in kinds]
    if np.ndim(theta2) == 0:
        return [np.where(small, _TAYLOR[kind](theta2), closed[kind]) for kind in kinds]
    for kind in kinds:
        closed[kind][small] = _TAYLOR[kind](theta2[small])
    return [closed[kind] for kind in kinds]


def _so3_parts(omega):
    """wedge(omega), its square and theta^2 = |omega|^2."""
    omega = np.asarray(omega, dtype=float)
    W = wedge_so3(omega)
    return W, W @ W, (omega * omega).sum(axis=-1)


def _quadratic(W, WW, a, b) -> np.ndarray:
    """I + a W + b W^2 per element of a stack of so(3) matrices."""
    a = np.asarray(a)[..., None, None]
    b = np.asarray(b)[..., None, None]
    return _eye(3) + a * W + b * WW


def exp_so3(omega) -> np.ndarray:
    """Rodrigues formula with a Taylor branch below the small-angle cutoff."""
    W, WW, theta2 = _so3_parts(omega)
    return _quadratic(W, WW, *_so3_coeffs(theta2, "sinc", "cosc"))


def _log_so3(C):
    """Rotation vectors of a stack of rotations, and their angles."""
    C = np.asarray(C, dtype=float)
    _require_rotation(C, 3)
    # 0.5 * vee(C - C^T) has norm sin(theta); the trace gives cos(theta).
    s_vec = 0.5 * (C[..., [2, 0, 1], [1, 2, 0]] - C[..., [1, 2, 0], [2, 0, 1]])
    s = np.sqrt((s_vec * s_vec).sum(axis=-1))
    c = 0.5 * (C.trace(axis1=-2, axis2=-1) - 1.0)
    theta = np.arctan2(s, c)
    _require_below_pi(theta)
    small = theta < _SMALL_ANGLE  # scale is theta / sin(theta)
    if small.any():
        scale = np.where(small, 1.0 + theta * theta / 6.0,
                         theta / np.where(small, 1.0, s))
    else:
        scale = theta / s
    omega = scale[..., None] * s_vec
    near_pi = theta > math.pi - _PI_BRANCH
    if near_pi.any():
        omega[near_pi] = theta[near_pi, None] * _axis_near_pi(
            C[near_pi], c[near_pi], s_vec[near_pi])
    return omega, theta


def _axis_near_pi(C, c, s_vec):
    """Unit rotation axes u of rotations far from the identity.

    The symmetric part (C + C^T) / 2 = c I + (1 - c) u u^T keeps full
    precision as theta nears pi, where s_vec = sin(theta) u does not; s_vec
    still fixes the sign of u.
    """
    B = 0.5 * (C + np.swapaxes(C, -1, -2)) - c[..., None, None] * _eye(3)
    j = np.argmax(np.diagonal(B, axis1=-2, axis2=-1), axis=-1)
    u = np.take_along_axis(B, j[..., None, None], axis=-1)[..., 0]  # u * u_j (1 - c)
    u = u / np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
    return np.where(np.sum(u * s_vec, axis=-1, keepdims=True) < 0.0, -u, u)


def log_so3(C) -> np.ndarray:
    return _log_so3(C)[0]


def _require_rotation(C, d):
    if C.shape[-2:] != (d, d):
        raise DimensionMismatch(f"expected (..., {d}, {d}) matrices, got {C.shape}")
    # "not <=" so that NaN and inf entries fail too
    if not np.abs(C.swapaxes(-1, -2) @ C - _eye(d)).max(initial=0.0) <= _ROT_TOL:
        raise NotARotation("matrix columns are not orthonormal within 1e-9")
    rows, perms, signs = _det_terms(d)
    det = C[..., rows, perms].prod(axis=-1) @ signs
    if not np.abs(det - 1.0).max(initial=0.0) <= _ROT_TOL:
        raise NotARotation("matrix determinant is not +1 within 1e-9")


def polar_project(R) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (SVD polar factor),
    per element of a stack (..., d, d)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    out = U @ Vt
    flip = np.linalg.det(out) < 0.0
    if flip.any():
        U[..., -1] = np.where(flip[..., None], -U[..., -1], U[..., -1])
        out = U @ Vt
    return out


# ---------------------------------------------------------------------------
# Left Jacobians (translational columns of exp/log on SE_k(d))


def left_jacobian_so3(omega) -> np.ndarray:
    W, WW, theta2 = _so3_parts(omega)
    return _quadratic(W, WW, *_so3_coeffs(theta2, "cosc", "sinc3"))


def inv_left_jacobian_so3(omega) -> np.ndarray:
    # Valid for angles below pi; the log never produces larger ones.
    W, WW, theta2 = _so3_parts(omega)
    return _quadratic(W, WW, -0.5, *_so3_coeffs(theta2, "cotc"))


def _so2_coeffs(theta, c, s):
    """Entries a = sin(t) / t and b = (1 - cos t) / t of the SO(2) left
    Jacobian [[a, -b], [b, a]] from c = cos(theta) and s = sin(theta);
    Taylor series below the small-angle cutoff, evaluated only if some
    element is there."""
    small = np.abs(theta) < _SMALL_ANGLE
    if not small.any():
        return s / theta, (1.0 - c) / theta
    safe = np.where(small, 1.0, theta)
    theta2 = theta * theta
    return (np.where(small, 1.0 - theta2 / 6.0, s / safe),
            np.where(small, 0.5 * theta * (1.0 - theta2 / 12.0), (1.0 - c) / safe))


def left_jacobian_so2(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return _rot2(*_so2_coeffs(theta, np.cos(theta), np.sin(theta)))


def inv_left_jacobian_so2(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    a, b = _so2_coeffs(theta, np.cos(theta), np.sin(theta))
    return _rot2(a, -b) / (a * a + b * b)[..., None, None]


# ---------------------------------------------------------------------------
# SE_k(d)


def _split_dims(d: int, k: int, xi_len: int):
    rd = rot_dim(d)
    if xi_len != rd + k * d:
        raise DimensionMismatch(
            f"tangent vector of length {xi_len} does not match SE_{k}({d})"
        )
    return rd


def wedge_sek(xi, d: int, k: int) -> np.ndarray:
    """Tangent vector to its matrix embedding [[wedge(rot), p_i], [0, 0]]."""
    xi = np.asarray(xi, dtype=float)
    _check_d(d)
    rd = _split_dims(d, k, xi.shape[0])
    M = np.zeros((d + k, d + k))
    M[:d, :d] = wedge_so3(xi[:3]) if d == 3 else wedge_so2(float(xi[0]))
    for i in range(k):
        M[:d, d + i] = xi[rd + i * d : rd + (i + 1) * d]
    return M


def vee_sek(M, d: int, k: int) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    _check_d(d)
    if M.shape != (d + k, d + k):
        raise DimensionMismatch(f"expected {(d + k, d + k)}, got {M.shape}")
    if np.abs(M[d:, :]).max(initial=0.0) != 0.0:
        raise MalformedEmbedding("bottom rows of a tangent embedding must be zero")
    rd = rot_dim(d)
    xi = np.empty(rd + k * d)
    if d == 3:
        xi[:3] = vee_so3(M[:3, :3])
    else:
        xi[0] = vee_so2(M[:2, :2])
    for i in range(k):
        xi[rd + i * d : rd + (i + 1) * d] = M[:d, d + i]
    return xi


def _check_d(d):
    if d not in (2, 3):
        raise DimensionMismatch(f"rotation block dimension must be 2 or 3, got {d}")


def _square(X, d) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    _check_d(d)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2] or X.shape[-1] < d:
        raise DimensionMismatch(
            f"expected square matrices of size >= {d}, got {X.shape}")
    return X


def exp_sek(xi, d: int, k: int) -> np.ndarray:
    """Group exponential: rotation by Rodrigues, translations via the left
    Jacobian; both come from one set of trig terms (and for d = 3 one
    wedge)."""
    xi = np.asarray(xi, dtype=float)
    _check_d(d)
    rd = _split_dims(d, k, xi.shape[-1])
    rot = xi[..., :3] if d == 3 else xi[..., 0]
    if k == 0:
        return exp_so3(rot) if d == 3 else exp_so2(rot)
    if d == 3:
        W, WW, theta2 = _so3_parts(rot)
        sinc, cosc, sinc3 = _so3_coeffs(theta2, "sinc", "cosc", "sinc3")
        R = _quadratic(W, WW, sinc, cosc)
        J = _quadratic(W, WW, cosc, sinc3)
    else:
        c, s = np.cos(rot), np.sin(rot)
        R = _rot2(c, s)
        J = _rot2(*_so2_coeffs(rot, c, s))
    lead = xi.shape[:-1]
    X = np.zeros(lead + (d + k, d + k))
    X[..., :d, :d] = R
    X[..., :d, d:] = J @ np.swapaxes(xi[..., rd:].reshape(lead + (k, d)), -1, -2)
    X[..., d:, d:] = _eye(k)
    return X


def log_sek(X, d: int) -> np.ndarray:
    """Group logarithm; the number of translational columns is X.shape[-1] - d.

    For d = 3 the inverse left Jacobian reuses the angles of the rotation log.
    """
    X = _square(X, d)
    k = X.shape[-1] - d
    _require_embedding(X, d, k)
    if d == 3:
        if k == 0:
            return log_so3(X)
        omega, theta = _log_so3(X[..., :3, :3])
        W = wedge_so3(omega)
        Jinv = _quadratic(W, W @ W, -0.5, *_so3_coeffs(theta * theta, "cotc"))
    else:
        theta = log_so2(X[..., :2, :2])
        omega = np.expand_dims(theta, -1)
        if k == 0:
            return omega
        Jinv = inv_left_jacobian_so2(theta)
    trans = np.swapaxes(Jinv @ X[..., :d, d:], -1, -2)
    return np.concatenate([omega, trans.reshape(X.shape[:-2] + (k * d,))], axis=-1)


def _require_embedding(X, d, k):
    # The bottom block rows are [0 I] exactly; group operations preserve this
    # bit-for-bit, so any deviation means the matrix was built by hand wrong.
    if k and not (X[..., d:, :] == _eye(d + k)[d:]).all():
        raise MalformedEmbedding("bottom block rows must be exactly [0 I]")


def inverse(X, d: int) -> np.ndarray:
    """Closed-form inverse [[C^T, -C^T p_i], [0, I]]; no linear solve.  The
    rotation block C must be a rotation."""
    X = _square(X, d)
    k = X.shape[-1] - d
    _require_embedding(X, d, k)
    _require_rotation(X[..., :d, :d], d)
    Rt = np.swapaxes(X[..., :d, :d], -1, -2)
    if k == 0:
        return Rt.copy()
    out = X.copy()  # keeps the bottom rows [0 I] checked above
    out[..., :d, :d] = Rt
    out[..., :d, d:] = -(Rt @ X[..., :d, d:])
    return out
