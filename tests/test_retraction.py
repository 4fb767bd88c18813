"""Retraction-pair tests: inverse consistency, exactness at zero, covariance retrieval."""


import dataclasses
import re

import numpy as np
import pytest

from manifold_ukf import lie_groups as lie
from manifold_ukf import models
from manifold_ukf.errors import (
    DimensionMismatch,
    ManifoldUkfError,
    NonFiniteState,
    NonPSDCovariance,
    NotARotation,
)
from manifold_ukf.retraction import (
    Retraction,
    _mixed_parts,
    additive_retraction,
    check_retraction,
    componentwise_so3_r6,
    covariance_retrieval,
    group_retraction,
    mixed_retraction,
    mixed_state,
)

from oracles import matrix_exp_series, wedge_sek

RNG = np.random.Generator(np.random.Philox(key=321))


def random_sek(rng, d, k, max_rot=2.0):
    xi = rng.standard_normal(lie.tangent_dim(d, k))
    rd = lie.rot_dim(d)
    n = np.linalg.norm(xi[:rd])
    if n > max_rot:
        xi[:rd] *= max_rot / n
    return lie.exp_sek(xi, d, k)


def bounded_xi(rng, dim, rot_dim, max_rot=1.5):
    xi = rng.standard_normal(dim)
    n = np.linalg.norm(xi[:rot_dim])
    if n > max_rot:
        xi[:rot_dim] *= max_rot / n
    return xi


def all_model_retractions():
    out = []
    for name in models.example_names():
        model = models.make(name)
        for rname, retr in model.retractions.items():
            out.append((f"{name}/{rname}", retr, model.initial_mean))
    return out


# ---------------------------------------------------------------------------
# Left / right group retractions


def test_phi_left_at_identity_is_exp():
    retr = group_retraction(3, 2, "left")
    xi = RNG.standard_normal(9)
    got = retr.phi(np.eye(5), xi)
    assert np.abs(got - matrix_exp_series(wedge_sek(xi, 3, 2))).max() < 1e-10


def test_left_right_coincide_at_identity():
    xi = RNG.standard_normal(9)
    L = group_retraction(3, 2, "left").phi(np.eye(5), xi)
    R = group_retraction(3, 2, "right").phi(np.eye(5), xi)
    assert np.array_equal(L, R)


def test_phi_inv_at_reference_is_exact_zero():
    for d, k in ((2, 1), (3, 0), (3, 1), (3, 2)):
        X = random_sek(RNG, d, k)
        for retr in (group_retraction(d, k, "left"), group_retraction(d, k, "right")):
            assert np.array_equal(retr.phi_inv(X, X), np.zeros(retr.dim))


def test_phi_zero_is_bit_exact():
    for d, k in ((2, 1), (3, 0), (3, 2)):
        X = random_sek(RNG, d, k)
        for retr in (group_retraction(d, k, "left"), group_retraction(d, k, "right")):
            assert np.array_equal(retr.phi(X, np.zeros(retr.dim)), X)


def test_group_roundtrips():
    for d, k in ((2, 1), (3, 0), (3, 1), (3, 2)):
        rd = lie.rot_dim(d)
        for retr in (group_retraction(d, k, "left"), group_retraction(d, k, "right")):
            for _ in range(25):
                X = random_sek(RNG, d, k)
                xi = bounded_xi(RNG, retr.dim, rd)
                back = retr.phi_inv(X, retr.phi(X, xi))
                assert np.abs(back - xi).max() < 1e-10


def test_left_right_sides_differ_away_from_identity():
    X = random_sek(RNG, 3, 1)
    xi = np.array([0.3, -0.2, 0.5, 1.0, 0.0, -1.0])
    L = group_retraction(3, 1, "left").phi(X, xi)
    R = group_retraction(3, 1, "right").phi(X, xi)
    assert np.abs(L - R).max() > 1e-3
    with pytest.raises(ValueError, match="side"):
        group_retraction(3, 1, "up")


# ---------------------------------------------------------------------------
# Mixed states


def test_phi_mixed_pure_bias():
    retr = mixed_retraction(3, 2, 6)
    state = mixed_state(np.eye(5), np.arange(6.0))
    delta = np.array([0.1, -0.2, 0.3, 0.4, -0.5, 0.6])
    out = retr.phi(state, np.concatenate([np.zeros(9), delta]))
    group, euclid = _mixed_parts(5, out)
    assert np.array_equal(group, np.eye(5))
    assert np.allclose(euclid, np.arange(6.0) + delta, atol=1e-15)


def test_phi_inv_mixed_at_reference():
    retr = mixed_retraction(3, 2, 6, side="left")
    state = mixed_state(random_sek(RNG, 3, 2), RNG.standard_normal(6))
    assert np.array_equal(retr.phi_inv(state, state), np.zeros(15))


def test_mixed_roundtrip():
    for side in ("left", "right"):
        retr = mixed_retraction(3, 2, 6, side=side)
        for _ in range(20):
            state = mixed_state(random_sek(RNG, 3, 2), RNG.standard_normal(6))
            xi = bounded_xi(RNG, 15, 3)
            back = retr.phi_inv(state, retr.phi(state, xi))
            assert np.abs(back - xi).max() < 1e-10


@pytest.mark.parametrize("group, euclid", [((2, 3, 3), (4,)), ((3, 3), (2, 4))],
                         ids=["group-stack", "euclid-stack"])
def test_mixed_state_broadcasts_one_part_against_a_stack_of_the_other(group, euclid):
    """Row r of the join is the join of the parts' rows r, a single part
    repeated: as f's join one state against a stack of noise."""
    rng = np.random.default_rng(3)
    g, e = rng.standard_normal(group), rng.standard_normal(euclid)
    out = mixed_state(g, e)
    assert out.shape == (2, 13)
    for r in range(2):
        assert np.array_equal(out[r], mixed_state(g[r] if g.ndim == 3 else g,
                                                  e[r] if e.ndim == 2 else e))


def test_mixed_state_names_parts_that_do_not_broadcast():
    """Not numpy's ValueError from concatenating arrays of other ranks."""
    with pytest.raises(DimensionMismatch, match=re.escape(
            "blocks of shape (3, 4) do not broadcast against group elements of "
            "shape (2, 3, 3)")):
        mixed_state(np.zeros((2, 3, 3)), np.zeros((3, 4)))


@pytest.mark.parametrize("group", [np.zeros(4), np.zeros((2, 3)), np.zeros((1, 1))],
                         ids=["vector", "2x3", "1x1"])
def test_mixed_state_takes_square_group_elements_only(group):
    """Not a flat vector of whatever the group part held."""
    with pytest.raises(DimensionMismatch, match="^expected square matrices of size >= 2"):
        mixed_state(group, np.zeros(2))


def test_mixed_dimension_check():
    retr = mixed_retraction(3, 2, 6)
    state = mixed_state(np.eye(5), np.zeros(6))
    with pytest.raises(DimensionMismatch):
        retr.phi(state, np.zeros(9))


# ---------------------------------------------------------------------------
# Componentwise SO(3) x R^6


def test_componentwise_zero_unchanged():
    retr = componentwise_so3_r6()
    X = random_sek(RNG, 3, 2)
    assert np.array_equal(retr.phi(X, np.zeros(9)), X)


def test_componentwise_pure_shift():
    retr = componentwise_so3_r6()
    X = random_sek(RNG, 3, 2)
    xi = np.concatenate([np.zeros(3), RNG.standard_normal(6)])
    out = retr.phi(X, xi)
    assert np.array_equal(out[:3, :3], X[:3, :3])
    assert np.allclose(out[:3, 3], X[:3, 3] + xi[3:6], atol=1e-15)
    assert np.allclose(out[:3, 4], X[:3, 4] + xi[6:9], atol=1e-15)


def test_componentwise_roundtrip():
    retr = componentwise_so3_r6()
    for _ in range(25):
        X = random_sek(RNG, 3, 2)
        xi = bounded_xi(RNG, 9, 3)
        back = retr.phi_inv(X, retr.phi(X, xi))
        assert np.abs(back - xi).max() < 1e-10


def test_componentwise_differs_from_group_retraction():
    X = random_sek(RNG, 3, 2)
    xi = np.array([0.4, -0.3, 0.6, 1.0, 0.5, -0.5, 2.0, 0.0, 1.0])
    A = componentwise_so3_r6().phi(X, xi)
    B = group_retraction(3, 2, "left").phi(X, xi)
    assert np.abs(A - B).max() > 1e-3


# ---------------------------------------------------------------------------
# Additive retraction


def test_additive_retraction():
    retr = additive_retraction(4)
    x = RNG.standard_normal(4)
    xi = RNG.standard_normal(4)
    assert np.array_equal(retr.phi(x, np.zeros(4)), x)
    assert np.array_equal(retr.phi_inv(x, x), np.zeros(4))
    assert np.allclose(retr.phi_inv(x, retr.phi(x, xi)), xi, atol=1e-15)
    for short in (x[:1], np.stack([x[:3]] * 2)):  # would broadcast against x
        with pytest.raises(DimensionMismatch):
            retr.phi_inv(x, short)
        with pytest.raises(DimensionMismatch):
            retr.phi_inv(short, x)


# ---------------------------------------------------------------------------
# Registered retractions: invariants across every model


def test_registered_retractions_name_themselves():
    for name in models.example_names():
        for key, retr in models.make(name).retractions.items():
            assert retr.name == key, (name, key)


def test_registered_phi_zero_bit_exact():
    for label, retr, state in all_model_retractions():
        out = retr.phi(state, np.zeros(retr.dim))
        assert np.array_equal(out, state), label


def test_registered_phi_inv_zero_exact():
    for label, retr, state in all_model_retractions():
        assert np.array_equal(retr.phi_inv(state, state), np.zeros(retr.dim)), label


def test_registered_second_order_residuals():
    for label, retr, state in all_model_retractions():
        for eps, r, _ in check_retraction(retr, state).residuals:
            assert r <= max(1e-10, 10.0 * eps * eps), (label, eps, r)


def test_registered_jacobian_identity():
    for label, retr, state in all_model_retractions():
        assert check_retraction(retr, state).jacobian_error < 1e-6, label


# ---------------------------------------------------------------------------
# check_retraction utility


def test_check_retraction_passes_builtin():
    retr = group_retraction(2, 1, "left")
    result = check_retraction(retr, random_sek(RNG, 2, 1))
    assert result.passed
    for _, residual, ok in result.residuals:
        assert ok and residual < 1e-10  # exact inverse pair, round-off only


def test_check_retraction_accepts_first_order_pair():
    # quadratic defect in phi: still first-order consistent, O(eps^2) residual
    c = np.array([0.7, -0.3, 0.2])

    def phi(state, xi):
        return state + xi + 0.5 * np.sum(xi * xi, axis=-1)[..., None] * c

    def phi_inv(ref, state):
        return np.asarray(state, dtype=float) - ref

    retr = Retraction("quadratic_defect", 3, phi, phi_inv)
    result = check_retraction(retr, np.zeros(3))
    assert result.passed
    eps, residual, _ = result.residuals[0]  # eps = 1e-1 row
    assert residual > 1e-4  # genuinely not exact


def test_check_retraction_flags_broken_inverse():
    base = group_retraction(2, 1, "left")

    def bad_inv(ref, state):
        return 2.0 * base.phi_inv(ref, state)

    broken = Retraction("broken", base.dim, base.phi, bad_inv)
    result = check_retraction(broken, np.eye(3))
    assert not result.passed
    assert not result.jacobian_passed


def test_check_retraction_rejects_no_epsilons():
    """An empty list would leave only the Jacobian check to pass."""
    with pytest.raises(ValueError, match="^no epsilons given$"):
        check_retraction(group_retraction(3, 0, "left"), np.eye(3), epsilons=())


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-2, 3.2])
def test_check_retraction_rejects_eps_outside_unit_interval(eps):
    # at eps = 3.2 some direction wraps past pi, yet the 10 eps^2 bound
    # would pass its residual
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        check_retraction(group_retraction(3, 0, "left"), np.eye(3),
                         epsilons=(1e-2, eps))


# ---------------------------------------------------------------------------
# Covariance retrieval for sphere points lifted to rotations


def test_covariance_retrieval_reference():
    # frozen: A = -wedge(e3) gives A I A^T = diag(1,1,0)
    mean, cov = covariance_retrieval(np.eye(3), np.array([0.0, 0.0, 1.0]), np.eye(3))
    assert np.array_equal(mean, np.array([0.0, 0.0, 1.0]))
    assert np.abs(cov - np.diag([1.0, 1.0, 0.0])).max() < 1e-15


def test_covariance_retrieval_zero():
    _, cov = covariance_retrieval(np.eye(3), np.array([0.0, 0.0, 1.0]), np.zeros((3, 3)))
    assert np.array_equal(cov, np.zeros((3, 3)))


def test_covariance_retrieval_kernel():
    rng = np.random.Generator(np.random.Philox(key=9))
    for _ in range(25):
        R = lie.exp_so3(rng.standard_normal(3))
        A = rng.standard_normal((3, 3))
        P = A @ A.T
        mean, cov = covariance_retrieval(R, np.array([0.0, 0.0, 1.0]), P)
        assert np.abs(cov - cov.T).max() < 1e-12
        assert np.abs(cov @ mean).max() < 1e-10 * max(1.0, np.abs(P).max())
        assert np.linalg.eigvalsh(cov).min() > -1e-9


def test_covariance_retrieval_rejects_non_psd():
    with pytest.raises(NonPSDCovariance):
        covariance_retrieval(np.eye(3), np.array([0.0, 0.0, 1.0]), -np.eye(3))
    with pytest.raises(NonPSDCovariance):
        covariance_retrieval(np.eye(3), np.array([0.0, 0.0, 1.0]),
                             np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("R_hat", [
    2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan),
], ids=["scaled", "reflection", "nan"])
def test_covariance_retrieval_rejects_a_matrix_that_is_not_a_rotation(R_hat):
    """Not a non-unit x; a stack or another size is a DimensionMismatch
    (test_lie_groups' MISSHAPEN table)."""
    with pytest.raises(NotARotation):
        covariance_retrieval(R_hat, np.array([0.0, 0.0, 1.0]), np.eye(3))


def test_retraction_block_bookkeeping():
    retr = componentwise_so3_r6()
    sl = retr.block_slices()
    assert sl["rot"] == slice(0, 3)
    assert sl["vel"] == slice(3, 6)
    assert sl["pos"] == slice(6, 9)
    with pytest.raises(ValueError):
        Retraction("bad", 4, lambda s, x: s, lambda r, s: np.zeros(4),
                   blocks=(("a", 1), ("b", 2)))


def test_moved_is_an_int_that_ends_a_block():
    """moved, the count of leading tangent coordinates the dynamics move,
    is None or an int in [1, dim] that ends a block; anything else raises
    ValueError when the retraction is made."""
    base = mixed_retraction(2, 1, 4, "right", "landmarks")  # blocks 1, 2, 4
    for moved in (None, 1, 3, 7, np.int64(3)):
        assert dataclasses.replace(base, moved=moved).moved == moved
    for moved in (0, -1, 2, 4, 8, 3.0, "3", True):
        with pytest.raises(ValueError, match="moved"):
            dataclasses.replace(base, moved=moved)


def test_only_slam2d_declares_moved_coordinates():
    """slam2d's f moves the SE(2) pose and copies the landmarks; every
    other registered retraction lets the dynamics move all coordinates."""
    moved = {label: retr.moved for label, retr, _ in all_model_retractions()}
    assert moved == {label: 3 if label.startswith("slam2d/") else None
                     for label in moved}


# ---------------------------------------------------------------------------
# Blocks and widths derived from the factors


REGISTERED_BLOCKS = {
    "localization2d": (("rot", 1), ("pos", 2)),
    "attitude3d": (("rot", 3),),
    "pendulum_s2": (("rot", 3),),
    "inertial_nav": (("rot", 3), ("vel", 3), ("pos", 3)),
    "slam2d": (("rot", 1), ("pos", 2), ("landmarks", 8)),
    "imu_gnss": (("rot", 3), ("vel", 3), ("pos", 3), ("bias", 6)),
}


def test_registered_blocks():
    retractions = all_model_retractions()
    assert len(retractions) == 13
    for label, retr, _ in retractions:
        assert retr.blocks == REGISTERED_BLOCKS[label.split("/")[0]], label
    slam = models.make("slam2d", landmarks=models.LandmarkSet(np.zeros((3, 2))))
    for retr in slam.retractions.values():
        assert retr.blocks == (("rot", 1), ("pos", 2), ("landmarks", 6))


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("label, retr, state",
                         [pytest.param(*r, id=r[0]) for r in all_model_retractions()])
def test_registered_phi_rejects_wrong_width(label, retr, state, delta):
    for shape in ((retr.dim + delta,), (4, retr.dim + delta)):
        with pytest.raises(DimensionMismatch):
            retr.phi(state, np.zeros(shape))


@pytest.mark.parametrize("label, retr, state",
                         [pytest.param(*r, id=r[0]) for r in all_model_retractions()])
def test_registered_maps_reject_leading_axes_that_do_not_broadcast(label, retr, state):
    """Two states against five tangent vectors or five states: DimensionMismatch
    naming both whole shapes, from phi as from phi_inv, not numpy's
    ValueError, and for a product not the shapes of the factor's parts."""
    states, five = np.stack([state] * 2), np.stack([state] * 5)
    with pytest.raises(DimensionMismatch, match=re.escape(
            f"tangent vectors of shape {(5, retr.dim)} do not broadcast against "
            f"states of shape {states.shape}")):
        retr.phi(states, np.zeros((5, retr.dim)))
    with pytest.raises(DimensionMismatch, match=re.escape(
            f"states of shape {five.shape} do not broadcast against a ref of "
            f"shape {states.shape}")):
        retr.phi_inv(states, five)


def test_additive_maps_reject_leading_axes_that_do_not_broadcast():
    retr = additive_retraction(3)
    with pytest.raises(DimensionMismatch, match=r"\(5, 3\) do not broadcast .* \(2, 3\)"):
        retr.phi(np.zeros((2, 3)), np.zeros((5, 3)))
    with pytest.raises(DimensionMismatch, match=r"\(5, 3\) do not broadcast .* \(2, 3\)"):
        retr.phi_inv(np.zeros((2, 3)), np.zeros((5, 3)))


def test_group_retraction_k3_builds_and_roundtrips():
    rng = np.random.Generator(np.random.Philox(key=33))
    for d in (2, 3):
        for side in ("left", "right"):
            retr = group_retraction(d, 3, side)
            assert retr.dim == lie.tangent_dim(d, 3)
            assert retr.blocks[0] == ("rot", lie.rot_dim(d))
            assert len(retr.block_slices()) == 4
            X = random_sek(rng, d, 3)
            xis = np.array([bounded_xi(rng, retr.dim, lie.rot_dim(d))
                            for _ in range(10)])
            assert np.abs(retr.phi_inv(X, retr.phi(X, xis)) - xis).max() < 1e-10
            assert check_retraction(retr, X).passed


def test_mixed_last_factor_takes_the_rest():
    # a state grown past the retraction's dimension, as augment_landmark does
    rng = np.random.Generator(np.random.Philox(key=34))
    retr = mixed_retraction(2, 1, 4)
    state = mixed_state(random_sek(rng, 2, 1), rng.standard_normal(6))
    xis = np.array([bounded_xi(rng, 9, 1) for _ in range(5)])
    out = retr.phi(state, xis)
    assert _mixed_parts(3, out)[1].shape == (5, 6)
    assert np.abs(retr.phi_inv(state, out) - xis).max() < 1e-10
    with pytest.raises(DimensionMismatch):
        retr.phi(state, np.zeros(8))


@pytest.mark.parametrize("label, retr, state", [
    pytest.param(*r, id=r[0]) for r in all_model_retractions()
    if "phi_invs" in r[1].phi_inv.keywords])
def test_product_retractions_check_the_state_size_before_splitting(label, retr, state):
    """A state cut by its last entry or column, too small to hold the group
    block or 0-d raises DimensionMismatch from phi and, as the ref or the
    state, from phi_inv; each factor's own check would come too late."""
    state = np.asarray(state)
    for bad in (state[..., :-1], np.eye(4) if state.ndim == 2 else state[:4],
                np.float64(1.0)):
        for call in (lambda: retr.phi_inv(state, bad), lambda: retr.phi_inv(bad, state),
                     lambda: retr.phi_inv(np.stack([state] * 2), np.stack([bad] * 2)),
                     lambda: retr.phi(bad, np.zeros(retr.dim))):
            with pytest.raises(DimensionMismatch):
                call()


@pytest.mark.parametrize("state", [np.ones((3, 4)), np.ones((2, 3, 4)), np.eye(1)],
                         ids=["non-square", "non-square-stack", "too-small"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_group_phi_refuses_what_phi_inv_refuses(state, side):
    """A state that is not square, or smaller than its rotation block, raises
    the DimensionMismatch of lie_groups._square from phi as from phi_inv,
    not a product with a matching exp."""
    retr = group_retraction(2, 1, side)
    message = re.escape(f"expected square matrices of size >= 2, got {state.shape}")
    for call in (lambda: retr.phi(state, np.zeros(5)), lambda: retr.phi_inv(state, state)):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            call()


NOT_NUMERIC = {"string": "abc", "ragged": [[1.0, 2.0], [3.0]]}


@pytest.mark.parametrize("bad", NOT_NUMERIC.values(), ids=NOT_NUMERIC)
@pytest.mark.parametrize("method", ["phi", "phi_inv"])
@pytest.mark.parametrize("label, retr, state",
                         [pytest.param(*r, id=r[0]) for r in all_model_retractions()])
def test_registered_retractions_name_an_argument_that_is_not_numeric(label, retr, state,
                                                                     method, bad):
    """Either argument: DimensionMismatch naming it, not numpy's ValueError
    or an AttributeError from a layout reading .shape."""
    good = np.zeros(retr.dim) if method == "phi" else state
    second = "xi" if method == "phi" else "state"
    first = "state" if method == "phi" else "ref"
    for args, name in (((state, bad), second), ((bad, good), first)):
        with pytest.raises(DimensionMismatch, match=f"^{name} is not a numeric array"):
            getattr(retr, method)(*args)


# ---------------------------------------------------------------------------
# The group phi_inv validates the ref and the relative stack in one pass


def _group_pairs():
    """One (label, retraction, state) per group family: so3, se2, se23,
    mixed over SE(2) and over SE_2(3), and so3xr6."""
    seen = {}
    for label, retr, state in all_model_retractions():
        if retr.name != "additive":
            seen.setdefault((retr.name, np.shape(state)), (label, retr, state))
    return list(seen.values())


def _group_factor(retr):
    """(the group part of a state, d, side) of a retraction's SE_k(d) factor,
    which is the first factor of a product."""
    kw = retr.phi_inv.keywords
    if "phi_invs" not in kw:
        return (lambda X: X), kw["d"], kw["side"]
    group = kw["phi_invs"][0].keywords
    return (lambda X: kw["split"](X)[0]), group["d"], group["side"]


def _unchecked_error(retr, ref, states):
    """The class that lie.inverse(ref), then the states' own checks (as
    lie.inverse makes them, then one size with the ref and leading axes that
    broadcast against it), then lie.log_sek on the relative stack raise on
    the group parts, or None, with the log itself."""
    group, d, side = _group_factor(retr)
    try:
        inv = lie.inverse(group(ref), d)
        lie.inverse(group(states), d)
        if group(states).shape[-1] != inv.shape[-1]:
            raise DimensionMismatch("states and ref differ in size")
        try:
            np.broadcast_shapes(inv.shape, group(states).shape)
        except ValueError:
            raise DimensionMismatch("states and ref runs do not broadcast") from None
        rel = inv @ group(states) if side == "left" else group(states) @ inv
        return None, lie.log_sek(rel, d)
    except ManifoldUkfError as exc:
        return type(exc), None


def _corrupt(kind, retr, ref, states, stacked):
    """Corrupt the group part of the ref or of one state in place (the
    near-pi case replaces state 1) and return the states; the kinds ending
    in _states return every state cut to a smaller, valid group element, or
    (two_runs_states) the states of only two of the three runs."""
    group, d, _ = _group_factor(retr)
    if kind == "two_runs_states":  # (6, 2, ...) against a (3, ...) ref
        return states[:, :2].copy()
    if kind == "rotation_block_states":  # SO(d) against an SE_k(d) ref
        return states[..., :d, :d].copy()
    if kind == "one_column_less_states":  # SE_{k-1}(d) against SE_k(d)
        return states[..., :-1, :-1].copy()
    g_ref = group(ref)[1] if stacked else group(ref)
    g_state = group(states)[(1, 1) if stacked else 1]
    if kind == "nan_ref":
        g_ref[0, 0] = np.nan
    elif kind == "inf_ref":
        g_ref[:d, 0] = np.inf  # meets -inf in the product: inf - inf
    elif kind == "reflected_ref":
        g_ref[:d, 0] *= -1.0
    elif kind == "bad_row_ref":
        g_ref[-1, 0] = 1e-3
    elif kind == "bad_row_and_rotation_ref":
        g_ref[-1, 0] = 1e-3
        g_ref[:d, :d] *= 1.1
    elif kind == "bad_rotation_ref_bad_row_state":
        g_ref[:d, :d] *= 1.1
        g_state[-1, 0] = 1e-3
    elif kind == "bad_row_and_rotation_state":
        g_state[-1, 0] = 1e-3
        g_state[:d, :d] *= 1.1
    elif kind == "nan_state":
        g_state[1, 0] = np.nan
    elif kind == "inf_state":
        g_state[1, 0] = np.inf
    elif kind == "nan_position_ref":
        g_ref[0, -1] = np.nan
    elif kind == "inf_position_ref_bad_rotation_state":
        g_ref[0, -1] = np.inf
        g_state[:d, :d] *= 1.1
    elif kind == "inf_position_state":
        g_state[0, -1] = np.inf
    elif kind == "nan_position_state":
        g_state[0, -1] = np.nan
    elif kind == "near_pi_state":
        xi = np.zeros(retr.dim)
        xi[:lie.rot_dim(d)] = (np.pi - 1e-8) * (np.array([1.0, 2.0, 2.0]) / 3.0
                                                if d == 3 else 1.0)
        states[1] = retr.phi(ref, xi)
    else:
        raise AssertionError(kind)
    return states


_CORRUPTIONS = ("nan_ref", "inf_ref", "reflected_ref", "bad_row_ref",
                "bad_row_and_rotation_ref", "bad_rotation_ref_bad_row_state",
                "bad_row_and_rotation_state", "nan_state", "inf_state",
                "near_pi_state", "nan_position_ref",
                "inf_position_ref_bad_rotation_state", "inf_position_state",
                "nan_position_state", "rotation_block_states",
                "one_column_less_states", "two_runs_states")


def _ref_and_states(retr, state, stacked):
    """A ref away from the identity (3 runs of them if stacked) and 6
    retracted states around it, (6, ...) or (6, 3, ...)."""
    rng = np.random.Generator(np.random.Philox(key=35))
    rd = lie.rot_dim(_group_factor(retr)[1])
    runs = (3,) if stacked else ()
    xi0 = 0.5 * rng.standard_normal(runs + (retr.dim,))
    ref = retr.phi(state, xi0)
    xis = np.clip(0.5 * rng.standard_normal((6,) + runs + (retr.dim,)), -0.5, 0.5)
    xis[..., :rd] = np.clip(xis[..., :rd], -0.4, 0.4)
    return ref, retr.phi(ref, xis)


def _applies(kind, retr, state, stacked):
    """SO(d) has no [0 I] rows and no position column; only a single group
    factor takes states of another size than its ref, a smaller SE_k(d)
    element needs k >= 2, and only a stack of refs can fail to broadcast."""
    group, d, _ = _group_factor(retr)
    k = group(np.asarray(state)).shape[-1] - d
    if kind == "two_runs_states":
        return stacked
    if kind.endswith("_states"):
        return "phi_invs" not in retr.phi_inv.keywords and k >= (
            2 if kind == "one_column_less_states" else 1)
    return k > 0 or ("row" not in kind and "position" not in kind)


@pytest.mark.parametrize("label, retr, state, kind, stacked", [
    pytest.param(*r, kind, stacked, id=f"{r[0]}-{kind}-{sid}") for r in _group_pairs()
    for kind in ("none",) + _CORRUPTIONS
    for stacked, sid in ((False, "one_ref"), (True, "three_runs"))
    if _applies(kind, *r[1:], stacked)])
def test_group_phi_inv_raises_what_inverse_then_log_raise(label, retr, state,
                                                          kind, stacked):
    ref, states = _ref_and_states(retr, state, stacked)
    if kind != "none":
        states = _corrupt(kind, retr, ref, states, stacked)
    expected, log = _unchecked_error(retr, ref, states)
    if kind == "none":
        assert expected is None
        assert np.array_equal(retr.phi_inv(ref, states)[..., :log.shape[-1]], log)
        return
    assert expected is not None, "the corruption must fail the checks"
    if "position" in kind or kind.endswith("_states"):
        assert expected is (NonFiniteState if "position" in kind else DimensionMismatch)
    with pytest.raises(ManifoldUkfError) as info:
        retr.phi_inv(ref, states)
    assert type(info.value) is expected


@pytest.mark.parametrize("label, retr, state",
                         [pytest.param(*r, id=r[0]) for r in _group_pairs()])
def test_group_phi_inv_of_the_ref_itself_is_exact_zeros(label, retr, state):
    for stacked in (False, True):
        ref, states = _ref_and_states(retr, state, stacked)
        runs = (3,) if stacked else ()
        assert np.array_equal(retr.phi_inv(ref, ref), np.zeros(runs + (retr.dim,)))
        states[2] = ref
        out = retr.phi_inv(ref, states)
        assert np.array_equal(out[2], np.zeros_like(out[2]))
        assert (out[[0, 1, 3]] != 0.0).any(axis=-1).all()


@pytest.mark.parametrize("label, retr, state, kind", [
    pytest.param(*r, kind, id=f"{r[0]}-{kind}") for r in _group_pairs()
    for kind in ("none", "bad_rotation_ref_bad_row_state", "nan_state")])
def test_group_phi_inv_squares_the_ref_and_the_states_once_each(label, retr, state,
                                                                kind, monkeypatch):
    """_require_pair runs _square on each argument once: neither the pair's
    one group check nor the ref's recheck after a failure squares again."""
    ref, states = _ref_and_states(retr, state, False)
    if kind != "none":
        states = _corrupt(kind, retr, ref, states, False)
    calls, square = [], lie._square
    monkeypatch.setattr(lie, "_square",
                        lambda X, d, what: calls.append(what) or square(X, d, what))
    try:
        retr.phi_inv(ref, states)
    except ManifoldUkfError:
        assert kind != "none"
    assert calls == ["ref", "state"]
