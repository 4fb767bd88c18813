"""Retraction pairs mapping tangent coordinates to states and back.

A Retraction bundles phi(state, xi) and phi_inv(ref, state) for one choice
of local coordinates around each state.  phi(state, 0) returns the state
unchanged and the Jacobian of xi -> phi(state, xi) at zero is the identity;
the filter core relies on both properties but never on a particular group
structure, so new state spaces only need a new pair.

Both maps broadcast over leading axes too: the filter core passes each set
of sigma points as one stack, e.g. all 2d tangent vectors as a (2d, d) array,
and check_retraction probes a pair the same way.

Provided families:

* group retractions on SE_k(d), left (state @ exp(xi)) or right
  (exp(xi) @ state) multiplication;
* mixed retractions for states with a group block and a plain
  Euclidean block (the Euclidean part just adds);
* a componentwise retraction on extended poses that treats rotation,
  velocity and position separately (rotation multiplies, vectors add);
* plain vector addition for Euclidean states.

All callables are module-level functions, bound with functools.partial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Tuple

import numpy as np

from . import lie_groups as lie
from .errors import DimensionMismatch, NonPSDCovariance


@dataclass(frozen=True)
class Retraction:
    """A phi / phi_inv pair over a fixed tangent dimension.

    phi(state, xi) and phi_inv(ref, state) broadcast over leading axes: with
    xi of shape (N, dim) phi returns N states, and phi_inv returns (N, dim)
    when either argument holds N states (e.g. state + xi, state - ref).

    blocks names contiguous spans of the tangent vector, e.g.
    (("rot", 3), ("vel", 3), ("pos", 3)); reporting code aggregates errors
    per block.  Defaults to one block spanning everything.
    """

    name: str
    dim: int
    phi: Callable[[Any, np.ndarray], Any]
    phi_inv: Callable[[Any, Any], np.ndarray]
    blocks: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        if not self.blocks:
            object.__setattr__(self, "blocks", (("xi", self.dim),))
        if sum(width for _, width in self.blocks) != self.dim:
            raise ValueError("block widths must sum to the tangent dimension")

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


def _cat(*parts) -> np.ndarray:
    """Concatenate along the last axis, broadcasting the leading axes."""
    lead = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    return np.concatenate(
        [np.broadcast_to(p, lead + p.shape[-1:]) for p in parts], axis=-1)


# ---------------------------------------------------------------------------
# Group retractions


def _phi_group(state, xi, d, side):
    G = lie.exp_sek(xi, d, state.shape[-1] - d)
    return state @ G if side == "left" else G @ state


def _phi_inv_group(ref, state, d, side):
    inv_ref = lie.inverse(ref, d)
    rel = inv_ref @ state if side == "left" else state @ inv_ref
    same = np.all(ref == state, axis=(-2, -1))  # these map to exact zeros
    return np.where(same[..., None], 0.0, lie.log_sek(rel, d))


def group_retraction(d: int, k: int, side: str = "left", name: str = "",
                     blocks: Tuple[Tuple[str, int], ...] = ()) -> Retraction:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not name:
        family = f"so{d}" if k == 0 else f"se{d}" if k == 1 else f"se{k}{d}"
        name = f"{family}_{side}"
    return Retraction(
        name=name,
        dim=lie.tangent_dim(d, k),
        phi=partial(_phi_group, d=d, side=side),
        phi_inv=partial(_phi_inv_group, d=d, side=side),
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# Mixed group x Euclidean states


@dataclass(frozen=True)
class MixedState:
    """A group element plus a Euclidean block (landmarks, biases, ...);
    group (..., n, n) and euclid (..., m) broadcast over their leading axes."""

    group: np.ndarray
    euclid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "group", np.asarray(self.group, dtype=float))
        object.__setattr__(self, "euclid", np.asarray(self.euclid, dtype=float))
        if self.euclid.ndim < 1:
            raise DimensionMismatch("euclid block must be a vector or a stack of them")


def _phi_mixed(state, xi, d, side, gdim):
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != gdim + state.euclid.shape[-1]:
        raise DimensionMismatch(
            f"tangent length {xi.shape[-1]} != {gdim} + {state.euclid.shape[-1]}"
        )
    return MixedState(
        _phi_group(state.group, xi[..., :gdim], d, side),
        state.euclid + xi[..., gdim:],
    )


def _phi_inv_mixed(ref, state, d, side, gdim):
    return _cat(_phi_inv_group(ref.group, state.group, d, side),
                state.euclid - ref.euclid)


def mixed_retraction(d: int, k: int, n_euclid: int, side: str = "right",
                     name: str = "", blocks: Tuple[Tuple[str, int], ...] = ()) -> Retraction:
    """Group retraction on the group block, plain addition on the rest."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    gdim = lie.tangent_dim(d, k)
    return Retraction(
        name=name or f"mixed_{side}",
        dim=gdim + n_euclid,
        phi=partial(_phi_mixed, d=d, side=side, gdim=gdim),
        phi_inv=partial(_phi_inv_mixed, d=d, side=side, gdim=gdim),
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# Componentwise retraction on extended poses (rotation, velocity, position)


def _phi_componentwise(state, xi):
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 9:
        raise DimensionMismatch(f"expected 9-vectors, got length {xi.shape[-1]}")
    out = state + np.zeros(xi.shape[:-1] + (1, 1))  # a copy, one per xi
    out[..., :3, :3] = state[..., :3, :3] @ lie.exp_so3(xi[..., 0:3])
    out[..., :3, 3] += xi[..., 3:6]
    out[..., :3, 4] += xi[..., 6:9]
    return out


def _phi_inv_componentwise(ref, state):
    same = np.all(ref == state, axis=(-2, -1))  # these map to exact zeros
    rot = lie.log_so3(np.swapaxes(ref[..., :3, :3], -1, -2) @ state[..., :3, :3])
    out = _cat(rot, state[..., :3, 3] - ref[..., :3, 3],
               state[..., :3, 4] - ref[..., :3, 4])
    return np.where(same[..., None], 0.0, out)


def componentwise_so3_r6(name: str = "so3xr6") -> Retraction:
    """Rotation multiplies on the right of the body frame; velocity and
    position add in world coordinates.  State is a 5x5 extended pose."""
    return Retraction(
        name=name,
        dim=9,
        phi=_phi_componentwise,
        phi_inv=_phi_inv_componentwise,
        blocks=(("rot", 3), ("vel", 3), ("pos", 3)),
    )


# ---------------------------------------------------------------------------
# Plain vector states


def _phi_additive(state, xi):
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != state.shape[-1:]:
        raise DimensionMismatch(f"tangent shape {xi.shape} != state shape {state.shape}")
    return state + xi


def _phi_inv_additive(ref, state):
    return np.asarray(state, dtype=float) - ref


def additive_retraction(dim: int, name: str = "additive",
                        blocks: Tuple[Tuple[str, int], ...] = ()) -> Retraction:
    return Retraction(name, dim, _phi_additive, _phi_inv_additive, blocks)


# ---------------------------------------------------------------------------
# Sphere-valued states lifted to rotations (x = R @ L for a fixed lever L)


def covariance_retrieval(R_hat, L, P):
    """Push a rotation-tangent covariance to the sphere point x = R_hat @ L.

    Returns (x, A P A^T) with A = -wedge(x); the result is rank deficient
    along x because rotating about x does not move it.
    """
    P = np.asarray(P, dtype=float)
    _require_psd(P)
    x = np.asarray(R_hat, dtype=float) @ np.asarray(L, dtype=float)
    A = -lie.wedge_so3(x)
    return x, A @ P @ A.T


def _require_psd(P, tol: float = 1e-9):
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NonPSDCovariance(f"covariance must be square, got {P.shape}")
    if np.abs(P - P.T).max(initial=0.0) > tol:
        raise NonPSDCovariance("covariance is not symmetric within 1e-9")
    if P.shape[0] and float(np.linalg.eigvalsh(P).min()) < -tol:
        raise NonPSDCovariance("covariance has an eigenvalue below -1e-9")


# ---------------------------------------------------------------------------
# Validation helpers


def _round_trip(retraction: Retraction, state, xis) -> np.ndarray:
    """phi_inv(state, phi(state, xi)) for a stack of tangent vectors, in one
    call each."""
    back = retraction.phi_inv(state, retraction.phi(state, xis))
    return _rows(back, (len(xis),), retraction.dim)


def inverse_consistency_residuals(retraction: Retraction, state,
                                  epsilons=(1e-1, 1e-2, 1e-3),
                                  n_directions: int = 8, seed: int = 0):
    """Worst-case |phi_inv(state, phi(state, eps u)) - eps u| per epsilon.

    Directions are unit vectors drawn from a counter-based generator so the
    check is reproducible; each epsilon is one stacked phi / phi_inv call.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    dirs = rng.standard_normal((n_directions, retraction.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    out = {}
    for eps in epsilons:
        xis = eps * dirs
        out[float(eps)] = float(
            np.abs(_round_trip(retraction, state, xis) - xis).max(initial=0.0))
    return out


def jacobian_identity_error(retraction: Retraction, state,
                            step: float = 1e-5) -> float:
    """Max abs deviation from identity of the central-difference Jacobian of
    xi -> phi_inv(state, phi(state, xi)) at xi = 0, from one stacked call
    over the 2 * dim points +-step e_j."""
    d = retraction.dim
    E = step * np.eye(d)
    back = _round_trip(retraction, state, np.concatenate([E, -E]))
    J = ((back[:d] - back[d:]) / (2.0 * step)).T
    return float(np.abs(J - np.eye(d)).max())


@dataclass(frozen=True)
class RetractionCheck:
    name: str
    residuals: Tuple[Tuple[float, float, bool], ...]  # (eps, residual, passed)
    jacobian_error: float
    jacobian_passed: bool

    @property
    def passed(self) -> bool:
        return self.jacobian_passed and all(ok for _, _, ok in self.residuals)


def check_retraction(retraction: Retraction, state,
                     epsilons=(1e-1, 1e-2, 1e-3),
                     exact_tol: float = 1e-10,
                     ratio_bound: float = 10.0,
                     jacobian_tol: float = 1e-6,
                     step: float = 1e-5,
                     n_directions: int = 8,
                     seed: int = 0) -> RetractionCheck:
    """Check that phi_inv inverts phi around a state.

    A residual at scale eps passes if it is below max(exact_tol,
    ratio_bound * eps^2): exact inverse pairs sit at numerical zero, while a
    merely first-order-consistent pair shows O(eps^2) residuals.  The
    finite-difference Jacobian at zero must match the identity within
    jacobian_tol.
    """
    res = inverse_consistency_residuals(
        retraction, state, epsilons, n_directions, seed
    )
    rows = tuple(
        (eps, r, r <= max(exact_tol, ratio_bound * eps * eps))
        for eps, r in res.items()
    )
    jerr = jacobian_identity_error(retraction, state, step)
    return RetractionCheck(retraction.name, rows, jerr, jerr <= jacobian_tol)
