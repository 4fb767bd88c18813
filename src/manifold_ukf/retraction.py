"""Retraction pairs mapping tangent coordinates to states and back.

A Retraction bundles phi(state, xi) and phi_inv(ref, state) for one choice
of local coordinates around each state.  phi(state, 0) returns the state
unchanged and the Jacobian of xi -> phi(state, xi) at zero is the identity;
the filter core relies on both properties but never on a particular group
structure, so new state spaces only need a new pair.  Both maps broadcast
over leading axes: the filter core passes each set of sigma points as one
stack, e.g. all 2d tangent vectors as a (2d, d) array.

Every built-in retraction is one factor or a product of factors; a factor
is itself a Retraction of one of two kinds:

* SE_k(d), multiplying on the left (state @ exp(xi)) or on the right
  (exp(xi) @ state), with blocks rot, then pos (k = 1) or vel, pos (k = 2);
  its phi checks the state by lie_groups._square, and its phi_inv checks
  the ref and then the states as lie_groups.inverse checks its input, before
  any arithmetic (lie_groups._require_pair), and then calls the unchecked
  cores of inverse and log_sek;
* R^n, plain addition, with one block named by the caller; the shape rule
  (lie_groups._shaped) holds xi to the state's width and the states to the
  ref's, and phi_inv raises NonFiniteState on a NaN or inf (lie_groups._finite).

A product splits states into parts through a layout, split(state) -> parts
and join(*parts) -> state.  A mixed state is one flat (..., n*n + m) array,
the n x n group element in row-major order and then the Euclidean block,
split into a (..., n, n) view and the tail and joined by mixed_state; a
5x5 extended pose splits into (rotation block, velocity column, position
column); a split raises DimensionMismatch on a state too small for it.
Each factor takes the next span of the tangent vector and the last one
takes the rest, so a growing state (augment_landmark's landmark tail) keeps
working.  Each factor maps equal parts to exact zeros.  group_retraction
and additive_retraction are single factors, mixed_retraction is
SE_k(d) x R^n and componentwise_so3_r6 is SO(3) x R^3 x R^3.  Each phi
and phi_inv takes its arguments through lie_groups._floats, so one that
is not a numeric array raises DimensionMismatch naming it; arguments whose
leading axes do not broadcast raise DimensionMismatch (_broadcast_error).

All callables are module-level functions, bound with functools.partial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Optional, Tuple

import numpy as np

from . import lie_groups as lie
from .errors import DimensionMismatch, NonPSDCovariance


@dataclass(frozen=True)
class Retraction:
    """A phi / phi_inv pair over a fixed tangent dimension, an int >= 1.

    phi(state, xi) and phi_inv(ref, state) broadcast over leading axes: with
    xi of shape (N, dim) phi returns N states, and phi_inv returns (N, dim)
    when either argument holds N states (e.g. state + xi, state - ref).

    blocks names contiguous spans of the tangent vector, e.g.
    (("rot", 3), ("vel", 3), ("pos", 3)); reporting code aggregates errors
    per block.  Defaults to one block spanning everything.

    moved, if set, declares that the model's dynamics move only the leading
    `moved` tangent coordinates: f must leave the rest of the state (the
    tail) unchanged, copying it bit for bit, and must not read it, so that
    states differing only in their tails have the same image on the moving
    coordinates.  propagate then samples only the leading coordinates and
    carries the tail block of the covariance over, which is exact (see
    sigma_core.propagate).  It must be an int in [1, dim] that ends a block;
    None (the default) means the dynamics may move every coordinate.
    """

    name: str
    dim: int
    phi: Callable[[Any, np.ndarray], Any]
    phi_inv: Callable[[Any, Any], np.ndarray]
    blocks: Tuple[Tuple[str, int], ...] = ()
    moved: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "dim", lie._check_int(self.dim, "dim"))
        if not self.blocks:
            object.__setattr__(self, "blocks", (("xi", self.dim),))
        if sum(width for _, width in self.blocks) != self.dim:
            raise ValueError("block widths must sum to the tangent dimension")
        ends = accumulate(width for _, width in self.blocks)
        if self.moved is not None and lie._check_int(self.moved, "moved") not in ends:
            raise ValueError(f"moved must be an int in [1, {self.dim}] that ends "
                             f"a block, got {self.moved!r}")

    def block_slices(self):
        out = {}
        start = 0
        for label, width in self.blocks:
            out[label] = slice(start, start + width)
            start += width
        return out


def _rows(values, lead: Tuple[int, ...], width: int) -> np.ndarray:
    """A callable's stacked output as a lead + (width,) array, or
    DimensionMismatch."""
    values = np.asarray(values, dtype=float)
    shape = tuple(lead) + (width,)
    if values.shape == shape:
        return values
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise DimensionMismatch(
            f"expected output broadcastable to {shape}, got {values.shape}"
        ) from None


# ---------------------------------------------------------------------------
# Factors: SE_k(d) and R^n


def _phi_group(state, xi, d, side):
    """state @ exp(xi) or exp(xi) @ state; group_retraction checked d."""
    state = lie._square(state, d, "state")
    G = lie._exp_sek(xi, d, state.shape[-1] - d)
    try:
        return state @ G if side == "left" else G @ state
    except ValueError:
        raise lie._broadcast_error("tangent vectors", xi, "states", state) from None


def _phi_inv_group(ref, state, d, side):
    """lie.log_sek of the relative states, with ref and state checked first
    as lie.inverse would check each of them."""
    ref, state = lie._require_pair(ref, state, d)
    inv_ref = lie._inverse(ref, d)
    xi = lie._log_sek(inv_ref @ state if side == "left" else state @ inv_ref, d)
    same = np.logical_and.reduce(lie._flat(ref) == lie._flat(state), -1)  # map to exact zeros
    return np.where(same[..., None], 0.0, xi) if lie._count_nonzero(same) else xi


# block labels of the k translation-like columns of SE_k(d)
_COLUMN_LABELS = {0: (), 1: ("pos",), 2: ("vel", "pos")}


def group_retraction(d: int, k: int, side: str = "left") -> Retraction:
    """SE_k(d) (SO(d) for k = 0), named after the group and the side, e.g.
    so3_left, se2_right or se23_left.  k must be an int >= 0 and d an int
    >= 2 (ValueError) that is 2 or 3 (DimensionMismatch)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    d, k = lie._check_int(d, "d", 2), lie._check_int(k, "k", 0)
    lie._check_d(d)
    family = f"so{d}" if k == 0 else f"se{d}" if k == 1 else f"se{k}{d}"
    columns = _COLUMN_LABELS.get(k, tuple(f"t{i}" for i in range(1, k + 1)))
    return Retraction(
        name=f"{family}_{side}",
        dim=lie.tangent_dim(d, k),
        phi=partial(_phi_group, d=d, side=side),
        phi_inv=partial(_phi_inv_group, d=d, side=side),
        blocks=(("rot", lie.rot_dim(d)),) + tuple((c, d) for c in columns),
    )


def _phi_euclid(state, xi):
    state = lie._floats(state, "state")
    xi = lie._shaped(xi, "xi", (..., state.shape[-1]) if state.ndim else ())
    try:
        return state + xi
    except ValueError:
        raise lie._broadcast_error("tangent vectors", xi, "states", state) from None


def _phi_inv_euclid(ref, state):
    ref = lie._floats(ref, "ref")
    state = lie._shaped(state, "state", (..., ref.shape[-1]) if ref.ndim else ())
    try:
        out = state - ref
    except ValueError:
        raise lie._broadcast_error("states", state, "a ref", ref) from None
    return lie._finite(out, "a Euclidean state or ref")


def _euclid(n: int, label: str) -> Retraction:
    return Retraction("additive", n, _phi_euclid, _phi_inv_euclid, ((label, n),))


def additive_retraction(dim: int) -> Retraction:
    return _euclid(dim, "xi")


# ---------------------------------------------------------------------------
# Products of factors over a layout


def _phi_product(state, xi, split, join, phis, spans):
    state, xi = lie._floats(state, "state"), lie._floats(xi, "xi")
    if not xi.ndim:
        raise DimensionMismatch("xi is a 0-d value, not a (..., dim) tangent vector")
    try:
        return join(*(phi(part, xi[..., span])
                      for phi, part, span in zip(phis, split(state), spans)))
    except DimensionMismatch as exc:
        raise lie._broadcast_error("tangent vectors", xi, "states", state, exc) from None


def _phi_inv_product(ref, state, split, phi_invs):
    ref, state = lie._floats(ref, "ref"), lie._floats(state, "state")
    try:
        return np.concatenate([f(r, s) for f, r, s in
                               zip(phi_invs, split(ref), split(state))], axis=-1)
    except DimensionMismatch as exc:
        raise lie._broadcast_error("states", state, "a ref", ref, exc) from None


def _product(name: str, split, join, *factors: Retraction) -> Retraction:
    """phi and phi_inv factor by factor on the parts split(state); the last
    factor takes the rest of the tangent vector."""
    ends = list(accumulate(f.dim for f in factors[:-1]))
    spans = tuple(map(slice, [0] + ends, ends + [None]))
    return Retraction(
        name=name,
        dim=sum(f.dim for f in factors),
        phi=partial(_phi_product, split=split, join=join,
                    phis=tuple(f.phi for f in factors), spans=spans),
        phi_inv=partial(_phi_inv_product, split=split,
                        phi_invs=tuple(f.phi_inv for f in factors)),
        blocks=sum((f.blocks for f in factors), ()),
    )


def _mixed_parts(n, state):
    """The (..., n, n) group block, as a view, and the Euclidean tail of flat
    mixed states."""
    if not state.ndim or state.shape[-1] < n * n:
        raise DimensionMismatch(f"mixed states {state.shape} hold no {n}x{n} block")
    return state[..., :n * n].reshape(state.shape[:-1] + (n, n)), state[..., n * n:]


def mixed_state(group, euclid) -> np.ndarray:
    """A flat mixed state: the n x n group element(s) in row-major order,
    then the Euclidean block; their leading axes broadcast (one group element
    and a stack of blocks, say), or DimensionMismatch names both shapes."""
    group, euclid = lie._square(group, 2, "group"), lie._floats(euclid, "euclid")
    if not euclid.ndim:
        raise DimensionMismatch("euclid is a 0-d value, not a (..., m) block")
    flat = group.reshape(group.shape[:-2] + (-1,))
    if flat.shape[:-1] != euclid.shape[:-1]:
        try:
            lead = np.broadcast_shapes(flat.shape[:-1], euclid.shape[:-1])
        except ValueError:
            raise lie._broadcast_error("blocks", euclid, "group elements", group) from None
        flat, euclid = (np.broadcast_to(x, lead + x.shape[-1:]) for x in (flat, euclid))
    return np.concatenate([flat, euclid], -1)


def mixed_retraction(d: int, k: int, n_euclid: int, side: str = "right",
                     label: str = "euclid") -> Retraction:
    """Group retraction on the group block, plain addition on the rest, over
    flat mixed states (see mixed_state); named mixed_left or mixed_right."""
    return _product(f"mixed_{side}", partial(_mixed_parts, d + k),
                    mixed_state, group_retraction(d, k, side),
                    _euclid(n_euclid, label))


def _pose_parts(X):
    """Rotation block, velocity column and position column of extended poses."""
    X = lie._shaped(X, "extended poses", (..., 5, 5))
    return X[..., :3, :3], X[..., :3, 3], X[..., :3, 4]


def _pose_join(C, v, p):
    """Extended poses from their blocks."""
    out = np.empty(np.broadcast_shapes(C.shape[:-2], v.shape[:-1], p.shape[:-1])
                   + (5, 5))
    out[..., :3, :3] = C
    out[..., :3, 3] = v
    out[..., :3, 4] = p
    out[..., 3:, :] = lie._eye(5)[3:]  # [0 I]
    return out


def componentwise_so3_r6() -> Retraction:
    """so3xr6: rotation multiplies on the right of the body frame; velocity
    and position add in world coordinates.  State is a 5x5 extended pose."""
    return _product("so3xr6", _pose_parts, _pose_join, group_retraction(3, 0, "left"),
                    _euclid(3, "vel"), _euclid(3, "pos"))


# ---------------------------------------------------------------------------
# Sphere-valued states lifted to rotations (x = R @ L for a fixed lever L)


def covariance_retrieval(R_hat, L, P):
    """Push a rotation-tangent covariance to the sphere point x = R_hat @ L.

    Returns (x, A P A^T) with A = -wedge(x); the result is rank deficient
    along x because rotating about x does not move it.  R_hat must be one
    rotation matrix (DimensionMismatch, NotARotation) and L be (3,).
    """
    R_hat = lie._shaped(R_hat, "R_hat", (3, 3))
    lie._require_rotation(R_hat, 3)
    L = lie._shaped(L, "L", (3,))
    _psd_sqrt(P, "P", 3)
    x = R_hat @ L
    A = -lie.wedge_so3(x)
    return x, A @ P @ A.T


def _psd_sqrt(M, what: str = "covariance", size: Optional[int] = None) -> np.ndarray:
    """A factor L with L @ L.T == M of a symmetric PSD M, named `what`: the
    covariance rule (lie._covariance), then NonPSDCovariance if M is asymmetric
    beyond 1e-9 or has an eigenvalue below -1e-9, then, with a size given,
    the shape rule (lie._shaped) with (size, size)."""
    M = lie._covariance(M, what)
    if np.abs(M - M.T).max(initial=0.0) > 1e-9:
        raise NonPSDCovariance(f"{what} is not symmetric within 1e-9")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    if (vals < -1e-9).any():
        raise NonPSDCovariance(f"{what} has an eigenvalue below -1e-9")
    if size is not None:
        lie._shaped(M, what, (size, size))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class RetractionCheck:
    residuals: Tuple[Tuple[float, float, bool], ...]  # (eps, residual, passed)
    jacobian_error: float
    jacobian_passed: bool

    @property
    def passed(self) -> bool:
        return self.jacobian_passed and all(ok for _, _, ok in self.residuals)


def check_retraction(retraction: Retraction, state,
                     epsilons=(1e-1, 1e-2, 1e-3)) -> RetractionCheck:
    """Check that phi_inv inverts phi around a state.

    Each eps scales the same 8 unit directions u, drawn from a Philox
    generator with key 0 so the check is reproducible.  Its residual, the
    worst |phi_inv(state, phi(state, eps u)) - eps u|, passes if it is at
    most max(1e-10, 10 eps^2): exact inverse pairs sit at numerical zero,
    while a merely first-order-consistent pair shows O(eps^2) residuals.
    The central-difference Jacobian at zero of xi -> phi_inv(state,
    phi(state, xi)), over the 2 dim points +-1e-5 e_j, must match the
    identity within 1e-6.  All points go through one phi and one phi_inv
    call.  No epsilons, or an eps that is not a number in (0, 1] (NaN, inf,
    a bool or a str included), raises ValueError: past 1 a rotation can
    wrap past pi and still pass.
    """
    try:
        epsilons = [lie._check_number(eps, "epsilons", ValueError) for eps in epsilons]
    except TypeError:
        raise ValueError(f"epsilons must be a sequence of numbers, got {epsilons!r}") from None
    if not epsilons:
        raise ValueError("no epsilons given")
    d, step = retraction.dim, 1e-5
    dirs = np.random.Generator(np.random.Philox(key=0)).standard_normal((8, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    E = step * np.eye(d)
    xis = np.concatenate([eps * dirs for eps in epsilons] + [E, -E])
    back = _rows(retraction.phi_inv(state, retraction.phi(state, xis)),
                 (len(xis),), d)
    worst = np.abs(back - xis)[:-2 * d].reshape(-1, 8 * d).max(axis=1, initial=0.0)
    rows = tuple((eps, r, r <= max(1e-10, 10.0 * eps * eps))
                 for eps, r in zip(epsilons, worst.tolist()))
    J = ((back[-2 * d:-d] - back[-d:]) / (2.0 * step)).T
    jerr = float(np.abs(J - np.eye(d)).max())
    return RetractionCheck(rows, jerr, jerr <= 1e-6)
