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
_SMALL_ANGLE to stay accurate near zero.
"""

from __future__ import annotations

import math

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
_SKEW_TOL = 1e-9
_ROT_TOL = 1e-9


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
    """Skew matrix of omega in R^3, so that wedge(omega) @ v == cross(omega, v)."""
    x, y, z = (float(v) for v in omega)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee_so3(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    _require_skew(M, 3)
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def _require_skew(M, d):
    if M.shape != (d, d):
        raise DimensionMismatch(f"expected a {d}x{d} matrix, got {M.shape}")
    if np.abs(M + M.T).max() > _SKEW_TOL:
        raise NonSkewInput("matrix is not skew-symmetric within 1e-9")


def exp_so2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def log_so2(C) -> float:
    C = np.asarray(C, dtype=float)
    _require_rotation(C, 2)
    theta = math.atan2(C[1, 0], C[0, 0])
    if abs(theta) >= math.pi - _PI_MARGIN:
        raise NearPiRotation(f"rotation angle {theta:.9f} is within 1e-6 of pi")
    return theta


def exp_so3(omega) -> np.ndarray:
    """Rodrigues formula with a Taylor branch below the small-angle cutoff."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,):
        raise DimensionMismatch(f"expected a 3-vector, got shape {omega.shape}")
    theta2 = float(omega @ omega)
    W = wedge_so3(omega)
    if theta2 < _SMALL_ANGLE * _SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 * (1.0 - theta2 / 20.0)
        b = 0.5 * (1.0 - theta2 / 12.0 * (1.0 - theta2 / 30.0))
    else:
        theta = math.sqrt(theta2)
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    return np.eye(3) + a * W + b * (W @ W)


def log_so3(C) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    _require_rotation(C, 3)
    # 0.5 * vee(C - C^T) has norm sin(theta); the trace gives cos(theta).
    s_vec = 0.5 * np.array(
        [C[2, 1] - C[1, 2], C[0, 2] - C[2, 0], C[1, 0] - C[0, 1]]
    )
    s = math.sqrt(float(s_vec @ s_vec))
    c = 0.5 * (C[0, 0] + C[1, 1] + C[2, 2] - 1.0)
    theta = math.atan2(s, c)
    if theta >= math.pi - _PI_MARGIN:
        raise NearPiRotation(f"rotation angle {theta:.9f} is within 1e-6 of pi")
    if theta < _SMALL_ANGLE:
        scale = 1.0 + theta * theta / 6.0  # theta / sin(theta)
    else:
        scale = theta / s
    return scale * s_vec


def _require_rotation(C, d):
    if C.shape != (d, d):
        raise DimensionMismatch(f"expected a {d}x{d} matrix, got {C.shape}")
    if np.abs(C.T @ C - np.eye(d)).max() > _ROT_TOL:
        raise NotARotation("matrix columns are not orthonormal within 1e-9")
    if abs(np.linalg.det(C) - 1.0) > _ROT_TOL:
        raise NotARotation("matrix determinant is not +1 within 1e-9")


def polar_project(R) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (SVD polar factor)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    out = U @ Vt
    if np.linalg.det(out) < 0.0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        out = U @ Vt
    return out


# ---------------------------------------------------------------------------
# Left Jacobians (translational columns of exp/log on SE_k(d))


def left_jacobian_so3(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    theta2 = float(omega @ omega)
    W = wedge_so3(omega)
    if theta2 < _SMALL_ANGLE * _SMALL_ANGLE:
        c1 = 0.5 * (1.0 - theta2 / 12.0 * (1.0 - theta2 / 30.0))
        c2 = (1.0 - theta2 / 20.0 * (1.0 - theta2 / 42.0)) / 6.0
    else:
        theta = math.sqrt(theta2)
        c1 = (1.0 - math.cos(theta)) / theta2
        c2 = (theta - math.sin(theta)) / (theta2 * theta)
    return np.eye(3) + c1 * W + c2 * (W @ W)


def inv_left_jacobian_so3(omega) -> np.ndarray:
    # Valid for angles below pi; the log never produces larger ones.
    omega = np.asarray(omega, dtype=float)
    theta2 = float(omega @ omega)
    W = wedge_so3(omega)
    if theta2 < _SMALL_ANGLE * _SMALL_ANGLE:
        c2 = (1.0 + theta2 / 60.0) / 12.0
    else:
        theta = math.sqrt(theta2)
        half = 0.5 * theta
        c2 = (1.0 - half * math.cos(half) / math.sin(half)) / theta2
    return np.eye(3) - 0.5 * W + c2 * (W @ W)


def left_jacobian_so2(theta: float) -> np.ndarray:
    if abs(theta) < _SMALL_ANGLE:
        theta2 = theta * theta
        a = 1.0 - theta2 / 6.0
        b = 0.5 * theta * (1.0 - theta2 / 12.0)
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta
    return np.array([[a, -b], [b, a]])


def inv_left_jacobian_so2(theta: float) -> np.ndarray:
    J = left_jacobian_so2(theta)
    a, b = J[0, 0], J[1, 0]
    det = a * a + b * b
    return np.array([[a, b], [-b, a]]) / det


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


def exp_sek(xi, d: int, k: int) -> np.ndarray:
    """Group exponential: rotation by Rodrigues, translations via the left Jacobian."""
    xi = np.asarray(xi, dtype=float)
    _check_d(d)
    rd = _split_dims(d, k, xi.shape[0])
    if d == 3:
        R = exp_so3(xi[:3])
        if k:
            J = left_jacobian_so3(xi[:3])
    else:
        R = exp_so2(float(xi[0]))
        if k:
            J = left_jacobian_so2(float(xi[0]))
    if k == 0:
        return R
    X = np.eye(d + k)
    X[:d, :d] = R
    for i in range(k):
        X[:d, d + i] = J @ xi[rd + i * d : rd + (i + 1) * d]
    return X


def log_sek(X, d: int) -> np.ndarray:
    """Group logarithm; the number of translational columns is X.shape[0] - d."""
    X = np.asarray(X, dtype=float)
    _check_d(d)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] < d:
        raise DimensionMismatch(f"expected a square matrix of size >= {d}, got {X.shape}")
    k = X.shape[0] - d
    _require_embedding(X, d, k)
    if d == 3:
        omega = log_so3(X[:3, :3])
        if k == 0:
            return omega
        Jinv = inv_left_jacobian_so3(omega)
    else:
        theta = log_so2(X[:2, :2])
        omega = np.array([theta])
        if k == 0:
            return omega
        Jinv = inv_left_jacobian_so2(theta)
    rd = rot_dim(d)
    xi = np.empty(rd + k * d)
    xi[:rd] = omega
    for i in range(k):
        xi[rd + i * d : rd + (i + 1) * d] = Jinv @ X[:d, d + i]
    return xi


def _require_embedding(X, d, k):
    # The bottom block rows are [0 I] exactly; group operations preserve this
    # bit-for-bit, so any deviation means the matrix was built by hand wrong.
    if k and not (
        np.array_equal(X[d:, :d], np.zeros((k, d)))
        and np.array_equal(X[d:, d:], np.eye(k))
    ):
        raise MalformedEmbedding("bottom block rows must be exactly [0 I]")


def inverse(X, d: int) -> np.ndarray:
    """Closed-form inverse [[C^T, -C^T p_i], [0, I]]; no linear solve."""
    X = np.asarray(X, dtype=float)
    _check_d(d)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] < d:
        raise DimensionMismatch(f"expected a square matrix of size >= {d}, got {X.shape}")
    k = X.shape[0] - d
    _require_embedding(X, d, k)
    Rt = X[:d, :d].T
    if k == 0:
        return Rt.copy()
    out = np.eye(d + k)
    out[:d, :d] = Rt
    out[:d, d:] = -(Rt @ X[:d, d:])
    return out
