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
SE_k(d).  Below _SMALL_ANGLE every coefficient switches from its closed form
to its Taylor series by one rule (_small_angle).  If all small elements are
exact zeros (sigma points past the rotation block), the series run once, on
the float 0.0, where each SO(3) series (of theta^2 >= +0.0) is its constant
term; SO(2)'s odd b always takes theta's sign, -0.0 included.  Near pi the
SO(3) log takes the rotation axis from the symmetric part of the matrix.

exp, log, inverse, wedge_so3 and the left Jacobians broadcast over leading
axes ((..., 3) rotation vectors to (..., 3, 3) matrices, and so on); branches
are chosen per element, and one bad element of a stack fails the call.

inverse and log_sek check d and then their input with _square and
_require_group before any arithmetic, log_so3 and log_so2 the rotation (its
shape by _shaped), exp_so3 its vectors, and each then calls one private
unchecked core (_inverse, _log_sek, _log_so3, _log_so2, _exp_so3, _exp_sek;
_exp_sek still checks its tangent vectors).  The group phi_inv in retraction
checks its ref and states with _require_pair, as inverse(ref) and then
inverse(state) would, the group phi its state with _square, the built-in
dynamics their arguments, and all call the cores.  The near-pi check of the
logs needs the angles, so it stays in the cores.  _require_rotation forms
C^T C from a contiguous copy of C^T, since numpy's matmul of a matrix with a
transposed view of its own buffer takes a slower path; the product has the
same bits.
Hot-path tests call _count_nonzero, numpy's C count_nonzero without
np.count_nonzero's two Python frames (private API, pinned by
test_lie_groups), and sums call np.add.reduce, not .any() and .sum().

Argument rules live here: _floats for arrays, _shaped for their shapes,
_finite for NaN and inf, _covariance for covariances, _check_int for counts,
seeds and dimensions, _check_number for scalars, and _broadcast_error words
each broadcast fault.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from itertools import permutations

import numpy as np
from numpy._core.multiarray import count_nonzero as _count_nonzero

from .errors import (
    DimensionMismatch,
    MalformedEmbedding,
    ManifoldUkfError,
    NearPiRotation,
    NonFiniteState,
    NonPSDCovariance,
    NotARotation,
)

_SMALL_ANGLE = 1e-4
_PI_MARGIN = 1e-6
# log_so3 takes the axis from the symmetric part above pi - _PI_BRANCH,
# where theta / sin(theta) would cost more than a digit
_PI_BRANCH = 0.1
_ROT_TOL = 1e-9
# wedge_so3(omega) == omega[..., _WEDGE_IDX] * _WEDGE_SIGN
_WEDGE_IDX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_WEDGE_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
# vee(D) == D[..., _VEE_ROWS, _VEE_COLS] for skew matrices D
_VEE_ROWS = np.array([2, 0, 1])
_VEE_COLS = np.array([1, 2, 0])


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


def _floats(x, what: str) -> np.ndarray:
    """x as a float array, or DimensionMismatch naming it as `what` if it is
    not a numeric array (a string, a ragged nested list, ...)."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{what} is not a numeric array: {x!r:.60}") from None


def _shaped(x, what: str, shape: tuple) -> np.ndarray:
    """The shape rule: x as a float array (_floats), or DimensionMismatch
    naming it `what` unless its shape is `shape`, where a leading ... matches
    any leading axes: (..., 3) takes a stack of 3-vectors, (2,) one 2-vector."""
    x = _floats(x, what)
    if x.shape[1 - len(shape):] != shape[1:] if shape and shape[0] is ... else x.shape != shape:
        want = str(shape)[1:-1].replace("Ellipsis", "...")
        raise DimensionMismatch(f"{what} must be ({want}), got shape {x.shape}")
    return x


def _finite(x: np.ndarray, what: str, error: type = NonFiniteState) -> np.ndarray:
    """The finiteness rule: x, or `error` naming it `what` if it holds NaN or inf."""
    if _count_nonzero(np.isfinite(x)) != x.size:
        raise error(f"{what} holds NaN or inf")
    return x


def _broadcast_error(first, a, second, b, factor_error=None):
    """DimensionMismatch for numpy's ValueError, or a product factor's, when the
    leading axes of a and b do not broadcast, naming both shapes; any other
    fault of a factor is returned as it is."""
    if factor_error is not None and "do not broadcast" not in str(factor_error):
        return factor_error
    return DimensionMismatch(f"{first} of shape {np.shape(a)} do not broadcast "
                             f"against {second} of shape {np.shape(b)}")


def _covariance(M, what: str, stack: bool = False) -> np.ndarray:
    """The covariance rule: _square_finite of M as a float array (_floats)."""
    return _square_finite(_floats(M, what), what, stack)


def _square_finite(M: np.ndarray, what: str, stack: bool = False) -> np.ndarray:
    """M, or DimensionMismatch naming it `what` unless it is (n, n), or with
    stack (..., n, n), and NonPSDCovariance by _finite."""
    if M.ndim < 2 or M.ndim > 2 and not stack or M.shape[-1] != M.shape[-2]:
        shape = "(..., n, n)" if stack else "(n, n)"
        raise DimensionMismatch(f"{what} must be square, {shape}, got shape {M.shape}")
    return _finite(M, what, NonPSDCovariance)


def _check_int(n, what: str, low: int = 1) -> int:
    """n as an int, or ValueError naming it `what` unless it is an integer
    >= low: an int, a numpy integer or a 0-d integer array, not a bool."""
    try:
        value = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        value = None
    if value is None or value < low:
        kind = "positive, " if low == 1 else ""
        raise ValueError(f"{what} must be {kind}an int >= {low}, got {n!r}")
    return value


def _check_number(x, what: str, error: type, top: float = 1.0) -> float:
    """x as a float, or `error` naming it `what` unless it is a finite real
    number in (0, top]; a bool, str, bytes or complex value is not one."""
    try:
        value = float(x) if np.asarray(x).dtype.kind in "iuf" else math.nan
    except (TypeError, ValueError):
        value = math.nan
    if not 0.0 < value <= top or value == math.inf:
        bound = f"lie in (0, {top:g}]" if top < math.inf else "be a finite number > 0"
        raise error(f"{what} must {bound}, got {x!r}")
    return value


def rot_dim(d: int) -> int:
    """Tangent dimension of a d x d rotation block."""
    return d * (d - 1) // 2


def tangent_dim(d: int, k: int) -> int:
    """Tangent dimension of SE_k(d)."""
    return rot_dim(d) + k * d


# ---------------------------------------------------------------------------
# so(2) / so(3)


def wedge_so3(omega) -> np.ndarray:
    """Skew matrices of (..., 3) vectors: wedge(omega) @ v == cross(omega, v)."""
    return _shaped(omega, "omega", (..., 3))[..., _WEDGE_IDX] * _WEDGE_SIGN


def _rot2(c, s) -> np.ndarray:
    """Stack of 2x2 matrices [[c, -s], [s, c]]."""
    out = np.empty(c.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def _require_below_pi(abs_theta) -> float:
    """max(abs_theta, 0), or NearPiRotation if that is within 1e-6 of pi."""
    worst = float(np.maximum.reduce(abs_theta, axis=None, initial=0.0))
    if worst >= math.pi - _PI_MARGIN:
        raise NearPiRotation(f"rotation angle {worst:.9f} is within 1e-6 of pi")
    return worst


def exp_so2(theta) -> np.ndarray:
    theta = _floats(theta, "theta")
    return _rot2(np.cos(theta), np.sin(theta))


def log_so2(C):
    C = _shaped(C, "C", (..., 2, 2))
    _require_rotation(C, 2)
    return _log_so2(C)


def _log_so2(C):
    """log_so2 of rotations that were checked already."""
    theta = np.arctan2(C[..., 1, 0], C[..., 0, 0])
    _require_below_pi(np.abs(theta))
    return theta


def _small_angle(x, small, coeffs):
    """coeffs(x), a tuple of coefficient arrays in closed form, under the one
    small-angle rule: where the mask small is set, their Taylor series
    coeffs(x, series=True) take over, and the closed forms see x = 1 there,
    so they never divide by zero.  The series run only if some element is
    small, and once, on the float 0.0, if every small element is +-0.0."""
    if not _count_nonzero(small):
        return coeffs(x)
    series = coeffs(x if _count_nonzero(x[small]) else 0.0, series=True)
    return [np.where(small, s, c) for c, s in zip(coeffs(np.where(small, 1.0, x)), series)]


# The SO(3) closed forms are I + a W + b W^2 with W = wedge(omega):
#   exp          a = sinc = sin(t) / t,   b = cosc = (1 - cos t) / t^2
#   left Jac.    a = cosc,                b = sinc3 = (t - sin t) / t^3
#   inverse      a = -1/2,                b = cotc = (1 - (t/2) cot(t/2)) / t^2
# Their coefficient functions take t2 = t^2 and expand their series in t2.


def _sinc_cosc(t2, series=False):
    if series:
        return 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), 0.5 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0))
    t = np.sqrt(t2)
    return np.sin(t) / t, (1.0 - np.cos(t)) / t2


def _sinc_cosc_sinc3(t2, series=False):
    if series:
        return _sinc_cosc(t2, True) + ((1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)) / 6.0,)
    t = np.sqrt(t2)
    sin = np.sin(t)  # shared by sinc and sinc3
    return sin / t, (1.0 - np.cos(t)) / t2, (t - sin) / (t2 * t)


def _cotc(t2, series=False):
    if series:
        return ((1.0 + t2 / 60.0) / 12.0,)
    half = 0.5 * np.sqrt(t2)
    return ((1.0 - half * np.cos(half) / np.sin(half)) / t2,)


def _so3_coeffs(theta2, coeffs):
    """coeffs, one of the three functions above, at squared angles theta2."""
    return _small_angle(theta2, theta2 < _SMALL_ANGLE * _SMALL_ANGLE, coeffs)


def _so3_parts(omega):
    """wedge(omega), its square and theta^2 = |omega|^2 as (..., 1, 1) of
    (..., 3) float vectors."""
    W = omega[..., _WEDGE_IDX] * _WEDGE_SIGN
    return W, W @ W, np.add.reduce(omega * omega, axis=-1)[..., None, None]


def _quadratic(W, WW, a, b) -> np.ndarray:
    """I + a W + b W^2 per element of a stack of so(3) matrices, with a and b
    scalars or (..., 1, 1) arrays."""
    return _eye(3) + a * W + b * WW


def exp_so3(omega) -> np.ndarray:
    """Rodrigues formula with a Taylor branch below the small-angle cutoff."""
    return _exp_so3(_shaped(omega, "omega", (..., 3)))


def _exp_so3(omega):
    """exp_so3 of (..., 3) float vectors, checked already."""
    W, WW, theta2 = _so3_parts(omega)
    return _quadratic(W, WW, *_so3_coeffs(theta2, _sinc_cosc))


def _log_so3(C):
    """Rotation vectors of a stack of rotations that were checked already,
    and their angles."""
    # 0.5 * vee(C - C^T) has norm sin(theta); the trace gives cos(theta).
    s_vec = 0.5 * (C - C.swapaxes(-1, -2))[..., _VEE_ROWS, _VEE_COLS]
    s = np.sqrt(np.add.reduce(s_vec * s_vec, axis=-1))
    c = 0.5 * (C[..., 0, 0] + C[..., 1, 1] + C[..., 2, 2] - 1.0)
    theta = np.arctan2(s, c)  # in [0, pi], since s >= 0
    worst = _require_below_pi(theta)
    scale, = _small_angle(s, theta < _SMALL_ANGLE, lambda sin, series=False: (
        (1.0 + theta * theta / 6.0,) if series else (theta / sin,)))
    omega = scale[..., None] * s_vec
    if worst > math.pi - _PI_BRANCH:
        near_pi = theta > math.pi - _PI_BRANCH
        omega[near_pi] = theta[near_pi, None] * _axis_near_pi(
            C[near_pi], c[near_pi], s_vec[near_pi])
    return omega, theta


def _axis_near_pi(C, c, s_vec):
    """Unit rotation axes u of rotations far from the identity.

    The symmetric part (C + C^T) / 2 = c I + (1 - c) u u^T keeps full
    precision as theta nears pi, where s_vec = sin(theta) u does not; s_vec
    still fixes the sign of u.
    """
    B = 0.5 * (C + C.swapaxes(-1, -2)) - c[..., None, None] * _eye(3)
    j = np.argmax(np.diagonal(B, axis1=-2, axis2=-1), axis=-1)
    u = np.take_along_axis(B, j[..., None, None], axis=-1)[..., 0]  # u * u_j (1 - c)
    u = u / np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
    return np.where(np.sum(u * s_vec, axis=-1, keepdims=True) < 0.0, -u, u)


def log_so3(C) -> np.ndarray:
    C = _shaped(C, "C", (..., 3, 3))
    _require_rotation(C, 3)
    return _log_so3(C)[0]


@np.errstate(invalid="ignore", over="ignore")  # built once, entered per call
def _require_rotation(C, d):
    # Ct: see the module docstring.  Counting "<=" and the errstate: NaN and
    # inf entries fail too, and here, not as a numpy warning from a product
    Ct = np.ascontiguousarray(C.swapaxes(-1, -2))
    gap = Ct @ C - _eye(d)
    if _count_nonzero(np.abs(gap) <= _ROT_TOL) != gap.size:
        raise NotARotation("matrix columns are not orthonormal within 1e-9")
    rows, perms, signs = _det_terms(d)
    det = np.multiply.reduce(Ct[..., rows, perms], axis=-1) @ signs
    if _count_nonzero(np.abs(det - 1.0) <= _ROT_TOL) != det.size:
        raise NotARotation("matrix determinant is not +1 within 1e-9")


def polar_project(R) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (SVD polar factor),
    per element of a stack (..., d, d)."""
    U, _, Vt = np.linalg.svd(_floats(R, "R"))
    out = U @ Vt
    flip = np.linalg.det(out) < 0.0
    if flip.any():
        U[..., -1] = np.where(flip[..., None], -U[..., -1], U[..., -1])
        out = U @ Vt
    return out


# ---------------------------------------------------------------------------
# Left Jacobians (translational columns of exp/log on SE_k(d))


def left_jacobian_so3(omega) -> np.ndarray:
    W, WW, theta2 = _so3_parts(_shaped(omega, "omega", (..., 3)))
    return _quadratic(W, WW, *_so3_coeffs(theta2, _sinc_cosc_sinc3)[1:])


def inv_left_jacobian_so3(omega) -> np.ndarray:
    # Valid for angles below pi; the log never produces larger ones.
    W, WW, theta2 = _so3_parts(_shaped(omega, "omega", (..., 3)))
    return _quadratic(W, WW, -0.5, *_so3_coeffs(theta2, _cotc))


def _so2_coeffs(theta, c, s):
    """Entries a = sin(t) / t and b = (1 - cos t) / t of the SO(2) left
    Jacobian [[a, -b], [b, a]] from c = cos(theta) and s = sin(theta)."""
    a, b = _small_angle(theta, np.abs(theta) < _SMALL_ANGLE, lambda t, series=False: (
        (1.0 - t * t / 6.0, 0.5 * t * (1.0 - t * t / 12.0)) if series
        else (s / t, (1.0 - c) / t)))
    return a, np.copysign(b, theta)  # b is odd: at theta = -0.0 it is -0.0


def left_jacobian_so2(theta) -> np.ndarray:
    theta = _floats(theta, "theta")
    return _rot2(*_so2_coeffs(theta, np.cos(theta), np.sin(theta)))


# ---------------------------------------------------------------------------
# SE_k(d)


def _check_d(d):
    if d not in (2, 3):
        raise DimensionMismatch(f"rotation block dimension must be 2 or 3, got {d}")


def _square(X, d, what: str) -> np.ndarray:
    X = _floats(X, what)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2] or X.shape[-1] < d:
        raise DimensionMismatch(
            f"expected square matrices of size >= {d}, got {X.shape}")
    return X


def _flat(X) -> np.ndarray:
    """(..., n, n) matrices as (..., n * n) rows, a view if X allows it."""
    return X.reshape(X.shape[:-2] + (X.shape[-1] * X.shape[-2],))


def _require_group(X, d) -> np.ndarray:
    """X, square matrices of size >= d as _square returns them, checked as
    SE_k(d) elements, k = X.shape[-1] - d, before any arithmetic on it, in
    this order: bottom rows exactly [0 I] (MalformedEmbedding), the rotation
    block (NotARotation, NaN and inf included), finite translation columns
    (_finite)."""
    n = X.shape[-1]
    # The bottom rows, from flat entry d n on, are [0 I] exactly: group
    # operations keep them bit for bit, so a deviation means a wrongly built X.
    if n > d and _count_nonzero(_flat(X)[..., d * n:] != _eye(n).ravel()[d * n:]):
        raise MalformedEmbedding("bottom block rows must be exactly [0 I]")
    _require_rotation(X[..., :d, :d], d)
    return _finite(X, "a translation column") if n > d else X  # all that is left


def _require_pair(ref, state, d):
    """ref and state as float arrays, checked as _square and _require_group
    would check ref and then state, and DimensionMismatch unless they are of
    one size and their leading axes broadcast; one pass of each check covers
    both, and _square runs once on each."""
    ref = _square(ref, d, "ref")
    n = ref.shape[-1]
    try:
        state = _square(state, d, "state")
        if state.shape[-1] != n:
            raise DimensionMismatch(
                f"states of shape {state.shape} against a ref of shape {ref.shape}")
        _require_group(np.concatenate([ref.reshape(-1, n, n), state.reshape(-1, n, n)]), d)
    except ManifoldUkfError:
        _require_group(ref, d)  # whatever failed, a fault of the ref comes first
        raise
    if ref.ndim > 2:  # a single ref broadcasts against any stack
        try:
            np.broadcast(ref, state)
        except ValueError:
            raise _broadcast_error("states", state, "a ref", ref) from None
    return ref, state


def exp_sek(xi, d: int, k: int) -> np.ndarray:
    """Group exponential: rotation by Rodrigues, translations via the left
    Jacobian; both come from one set of trig terms (and for d = 3 one
    wedge)."""
    _check_d(d)
    return _exp_sek(xi, d, k)


def _exp_sek(xi, d, k):
    """exp_sek for a checked d; it checks xi by the shape rule only."""
    xi = _shaped(xi, "xi", (..., tangent_dim(d, k)))
    rot = xi[..., :3] if d == 3 else xi[..., 0]
    if k == 0:
        return _exp_so3(rot) if d == 3 else _rot2(np.cos(rot), np.sin(rot))
    if d == 3:  # R and J in one pass: (sinc, cosc) and (cosc, sinc3)
        W, WW, theta2 = _so3_parts(rot)
        S = np.array(_so3_coeffs(theta2, _sinc_cosc_sinc3))
        R, J = _quadratic(W, WW, S[:2], S[1:])
    else:
        c, s = np.cos(rot), np.sin(rot)
        R = _rot2(c, s)
        J = _rot2(*_so2_coeffs(rot, c, s))
    lead = xi.shape[:-1]
    X = np.zeros(lead + (d + k, d + k))
    X[..., :d, :d] = R
    X[..., :d, d:] = J @ xi[..., rot_dim(d):].reshape(lead + (k, d)).swapaxes(-1, -2)
    X[..., d:, d:] = _eye(k)
    return X


def log_sek(X, d: int) -> np.ndarray:
    """Group logarithm; the number of translational columns is X.shape[-1] - d.

    For d = 3 the inverse left Jacobian reuses the angles of the rotation log.
    """
    _check_d(d)
    return _log_sek(_require_group(_square(X, d, "X"), d), d)


def _log_sek(X, d):
    """log_sek of arrays that passed _require_group already."""
    k = X.shape[-1] - d
    if d == 3:
        if k == 0:
            return _log_so3(X)[0]
        omega, theta = _log_so3(X[..., :3, :3])
        W = omega[..., _WEDGE_IDX] * _WEDGE_SIGN
        theta2 = (theta * theta)[..., None, None]
        Jinv = _quadratic(W, W @ W, -0.5, *_so3_coeffs(theta2, _cotc))
    else:
        theta = _log_so2(X[..., :2, :2])
        omega = theta[..., None]
        if k == 0:
            return omega
        a, b = _so2_coeffs(theta, np.cos(theta), np.sin(theta))
        Jinv = _rot2(a, -b) / (a * a + b * b)[..., None, None]
    trans = (Jinv @ X[..., :d, d:]).swapaxes(-1, -2)
    return np.concatenate([omega, trans.reshape(X.shape[:-2] + (k * d,))], axis=-1)


def inverse(X, d: int) -> np.ndarray:
    """Closed-form inverse [[C^T, -C^T p_i], [0, I]]; no linear solve.  The
    rotation block C must be a rotation."""
    _check_d(d)
    return _inverse(_require_group(_square(X, d, "X"), d), d)


def _inverse(X, d):
    """inverse of arrays that passed _require_group already."""
    k = X.shape[-1] - d
    Rt = X[..., :d, :d].swapaxes(-1, -2)
    if k == 0:
        return Rt.copy()
    out = X.copy()  # keeps the bottom rows [0 I]
    out[..., :d, :d] = Rt
    out[..., :d, d:] = -(Rt @ X[..., :d, d:])
    return out
