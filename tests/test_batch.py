"""The broadcast contract: Lie primitives, retractions and model callables
take a leading batch axis, and a batch call equals the stack of its
single-element calls.  Validation covers every element of a batch."""

import dataclasses
import math

import numpy as np
import pytest

from manifold_ukf import lie_groups as lie
from manifold_ukf import montecarlo, sigma_core
from manifold_ukf.errors import (
    DimensionMismatch,
    MalformedEmbedding,
    NearPiRotation,
    NotARotation,
)
from manifold_ukf.models import example_names, make
from manifold_ukf.retraction import Retraction, additive_retraction, check_retraction
from manifold_ukf.sigma_core import Belief, propagate, update

RNG = np.random.Generator(np.random.Philox(key=2718))
N = 9


KINDS = ("mixed", "large", "small")


def rotvecs(n, max_angle=3.0, kind="mixed"):
    """Random rotation vectors.  "mixed": row 0 is exactly zero and row 1 is
    below the small-angle cutoff, so the batch takes both branches; "large":
    every angle is above the cutoff; "small": every angle is below it."""
    w = RNG.standard_normal((n, 3))
    lo, hi = (1e-9, 9e-5) if kind == "small" else (0.1, max_angle)
    w *= RNG.uniform(lo, hi, (n, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
    if kind == "mixed":
        w[0] = 0.0
        w[1] *= 1e-6 / np.linalg.norm(w[1])
    return w


def angles(n, max_angle=3.0, kind="mixed"):
    lo, hi = (1e-9, 9e-5) if kind == "small" else (0.1, max_angle)
    th = RNG.uniform(lo, hi, n) * RNG.choice([-1.0, 1.0], n)
    if kind == "mixed":
        th[0], th[1] = 0.0, -3e-7
    return th


def tangents(n, d, k, kind="mixed"):
    rot = rotvecs(n, 2.5, kind) if d == 3 else angles(n, 2.5, kind)[:, None]
    return np.concatenate([rot, RNG.standard_normal((n, k * d))], axis=1)


def assert_stacked(batch, singles):
    """batch equals the stack of single-element results bit for bit."""
    rows = np.array(singles)
    assert np.asarray(batch).shape == rows.shape
    assert np.array_equal(batch, rows)


# ---------------------------------------------------------------------------
# Lie primitives


@pytest.mark.parametrize("fn", [lie.exp_so3, lie.wedge_so3, lie.left_jacobian_so3,
                                lie.inv_left_jacobian_so3])
def test_so3_vector_maps_batch(fn):
    for kind in KINDS:
        w = rotvecs(N, kind=kind)
        assert_stacked(fn(w), [fn(x) for x in w])


def test_log_so3_batch():
    for kind in KINDS:  # "large" reaches past the near-pi branch's threshold
        C = lie.exp_so3(rotvecs(N, 3.1, kind))
        assert_stacked(lie.log_so3(C), [lie.log_so3(c) for c in C])


@pytest.mark.parametrize("fn", [lie.exp_so2, lie.left_jacobian_so2])
def test_so2_angle_maps_batch(fn):
    for kind in KINDS:
        th = angles(N, kind=kind)
        assert_stacked(fn(th), [fn(t) for t in th])


def test_log_so2_batch():
    for kind in KINDS:
        C = lie.exp_so2(angles(N, kind=kind))
        assert_stacked(lie.log_so2(C), [lie.log_so2(c) for c in C])


@pytest.mark.parametrize("d,k", [(2, 0), (3, 0), (2, 1), (3, 1), (3, 2)])
def test_sek_maps_batch(d, k):
    for kind in KINDS:
        xi = tangents(N, d, k, kind)
        X = lie.exp_sek(xi, d, k)
        assert_stacked(X, [lie.exp_sek(x, d, k) for x in xi])
        assert_stacked(lie.log_sek(X, d), [lie.log_sek(x, d) for x in X])
        assert_stacked(lie.inverse(X, d), [lie.inverse(x, d) for x in X])


def test_leading_axes_of_any_depth():
    w = rotvecs(6).reshape(2, 3, 3)
    R = lie.exp_so3(w)
    assert R.shape == (2, 3, 3, 3)
    assert np.abs(lie.log_so3(R) - w).max() < 1e-9


def test_batch_with_one_non_rotation_fails():
    C = lie.exp_so3(rotvecs(N))
    C[4] *= 1.1
    with pytest.raises(NotARotation):
        lie.log_so3(C)
    C[4] = np.diag([1.0, 1.0, -1.0])  # orthonormal, det = -1
    with pytest.raises(NotARotation):
        lie.log_so3(C)


def test_batch_with_one_near_pi_row_fails():
    w = rotvecs(N)
    w[5] = [0.0, math.pi - 1e-7, 0.0]
    with pytest.raises(NearPiRotation):
        lie.log_so3(lie.exp_so3(w))
    th = angles(N)
    th[3] = -(math.pi - 1e-8)
    with pytest.raises(NearPiRotation):
        lie.log_so2(lie.exp_so2(th))


def test_batch_with_one_malformed_embedding_fails():
    X = lie.exp_sek(tangents(N, 3, 2), 3, 2)
    X[6, 4, 0] = 1e-14
    with pytest.raises(MalformedEmbedding):
        lie.log_sek(X, 3)
    with pytest.raises(MalformedEmbedding):
        lie.inverse(X, 3)


# ---------------------------------------------------------------------------
# Retractions


def model_retractions():
    return [(name, rname) for name in example_names()
            for rname in make(name).retractions]


def sigma_like(dim):
    xi = 0.3 * RNG.standard_normal((N, dim))
    xi[0] = 0.0  # phi(state, 0) is the state itself
    return xi


@pytest.mark.parametrize("name,rname", model_retractions())
def test_retraction_phi_and_phi_inv_batch(name, rname):
    model = make(name)
    retr = model.retraction(rname)
    mean = model.initial_mean
    states = retr.phi(mean, sigma_like(retr.dim))
    xis = sigma_like(retr.dim)
    assert_stacked(retr.phi(mean, xis), [retr.phi(mean, x) for x in xis])

    ref = retr.phi(mean, 0.1 * RNG.standard_normal(retr.dim))
    singles = list(states)
    assert_stacked(retr.phi_inv(ref, states), [retr.phi_inv(ref, s) for s in singles])
    # a stacked reference works the same way
    assert_stacked(retr.phi_inv(states, ref), [retr.phi_inv(s, ref) for s in singles])
    # elements equal to the reference map to exact zeros, batch or not
    assert np.array_equal(retr.phi_inv(mean, states)[0], np.zeros(retr.dim))


def test_group_retraction_batch_near_pi_fails():
    retr = make("attitude3d").retraction("so3_left")
    xi = sigma_like(3)
    xi[2] = [math.pi - 1e-7, 0.0, 0.0]
    with pytest.raises(NearPiRotation):
        retr.phi_inv(np.eye(3), retr.phi(np.eye(3), xi))


# ---------------------------------------------------------------------------
# Model callables


@pytest.mark.parametrize("name", example_names())
def test_model_callables_batch(name):
    model = make(name)
    retr = model.retraction()
    mean = model.initial_mean
    u = model.inputs(1)[0]
    q = model.Q.shape[0]
    zero_w = np.zeros(q)

    states = retr.phi(mean, sigma_like(retr.dim))
    singles = list(states)
    assert_stacked(model.f(states, u, zero_w), [model.f(s, u, zero_w) for s in singles])
    assert_stacked(model.h(states), [model.h(s) for s in singles])

    ws = RNG.standard_normal((N, q)) * np.sqrt(np.diag(model.Q))
    assert_stacked(model.f(mean, u, ws), [model.f(mean, u, w) for w in ws])
    # a state stack and a noise stack together, row by row
    assert_stacked(model.f(states, u, ws),
                   [model.f(s, u, w) for s, w in zip(singles, ws)])


@pytest.mark.parametrize("name", example_names())
def test_model_dynamics_pair_an_input_stack_row_by_row(name):
    """f pairs a stack of N inputs with the states and noise vectors row by
    row, as it pairs states with noise: each row equals its own call."""
    model = make(name)
    retr = model.retraction()
    mean = model.initial_mean
    q = model.Q.shape[0]
    us = model.inputs(N) + 0.1 * RNG.standard_normal((N, model.inputs(1).shape[1]))
    ws = RNG.standard_normal((N, q)) * np.sqrt(np.diag(model.Q))
    states = retr.phi(mean, sigma_like(retr.dim))

    assert_stacked(model.f(states, us, ws),
                   [model.f(s, u, w) for s, u, w in zip(states, us, ws)])
    assert_stacked(model.f(mean, us, np.zeros((N, q))),
                   [model.f(mean, u, np.zeros(q)) for u in us])
    # the inputs alone stacked: the whole state follows them
    assert_stacked(model.f(mean, us, np.zeros(q)),
                   [model.f(mean, u, np.zeros(q)) for u in us])


# ---------------------------------------------------------------------------
# Filter core


def test_propagate_rejects_output_that_does_not_broadcast():
    # per-element code that flattens its result: (N, 2) becomes (2N,)
    flat = Retraction("flat", 2, phi=lambda s, xi: s + xi,
                      phi_inv=lambda ref, s: (s - ref).reshape(-1))
    belief = Belief(np.zeros(2), np.eye(2))
    with pytest.raises(DimensionMismatch):
        propagate(belief, None, lambda s, o, w: s, np.zeros((2, 2)), flat, 1.0)


def test_update_rejects_output_that_does_not_broadcast():
    belief = Belief(np.zeros(2), np.eye(2))
    retr = additive_retraction(2)
    with pytest.raises(DimensionMismatch):
        update(belief, np.zeros(2), lambda s: s.reshape(-1), np.eye(2), retr, 1.0)
    with pytest.raises(DimensionMismatch):  # three outputs per state, R is 2x2
        update(belief, np.zeros(2), lambda s: s @ np.ones((2, 3)), np.eye(2),
               retr, 1.0)


class Counted:
    """Wraps a callable and records the shape of argument `arg` on each
    call."""

    def __init__(self, fn, arg=0):
        self.fn, self.arg, self.shapes = fn, arg, []

    def __call__(self, *args):
        x = args[self.arg]
        self.shapes.append(np.shape(x))
        return self.fn(*args)


def count_calls(monkeypatch, **owners):
    """Replace owner.name by a counting wrapper for each name=owner; returns
    the live counts."""
    calls = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("with_noise", [True, False])
def test_propagate_and_update_call_counts(with_noise, monkeypatch):
    model = make("inertial_nav")  # 5 x 5 states, d = 9, q = 6
    base = model.retraction()
    phi, phi_inv = Counted(base.phi, arg=1), Counted(base.phi_inv, arg=1)
    f, h = Counted(model.f), Counted(model.h)
    retr = Retraction(base.name, base.dim, phi, phi_inv, base.blocks)
    d, q = retr.dim, model.Q.shape[0]
    Q = model.Q if with_noise else np.zeros_like(model.Q)
    belief = Belief(model.initial_mean, model.initial_cov)

    belief = propagate(belief, model.inputs(1)[0], f, Q, retr, model.alpha)
    rows = 2 * d + 2 * q if with_noise else 2 * d
    assert f.shapes == [(1 + rows, 5, 5)]  # the mean, then the sigma points
    assert phi.shapes == [(2 * d, d)]  # the state offsets only
    assert phi_inv.shapes == [(rows, 5, 5)]

    phi.shapes.clear()
    update(belief, model.h(belief.mean), h, model.R, retr, model.alpha)
    assert h.shapes == [(2 * d + 1, 5, 5)]
    assert phi.shapes == [(2 * d, d), (d,)]  # sigma points, then the correction

    # after that step, constants and the noise points are cached: no identity
    # is rebuilt, no determinant goes through LAPACK, and only the belief's
    # covariance gets factored (_columns is sigma_points' factoring half)
    calls = count_calls(monkeypatch, eye=np, det=np.linalg, _columns=sigma_core)
    belief = propagate(belief, model.inputs(2)[1], f, Q, retr, model.alpha)
    assert calls == {"eye": 0, "det": 0, "_columns": 1}
    update(belief, model.h(belief.mean), h, model.R, retr, model.alpha)
    assert calls == {"eye": 0, "det": 0, "_columns": 2}


def test_check_retraction_is_one_stacked_call():
    model = make("inertial_nav")
    base = model.retraction("se23_right")
    phi, phi_inv = Counted(base.phi, arg=1), Counted(base.phi_inv, arg=1)
    retr = Retraction(base.name, base.dim, phi, phi_inv, base.blocks)
    assert check_retraction(retr, model.initial_mean).passed
    rows = 3 * 8 + 2 * retr.dim  # 8 directions per eps, then +-step e_j
    assert phi.shapes == [(rows, retr.dim)]
    assert phi_inv.shapes == [(rows, 5, 5)]


def test_benchmark_simulates_through_simulate(monkeypatch):
    """benchmark() calls the module-level simulate once, so that wrapping
    it (as perfbench's tracing does) sees the lockstep simulation."""
    calls = count_calls(monkeypatch, simulate=montecarlo)
    montecarlo.benchmark(make("attitude3d"), ["so3_left", "so3_right"], runs=3,
                         seed=0, steps=5)
    assert calls == {"simulate": 1}


@pytest.mark.parametrize("name,registered", [
    ("inertial_nav", True), ("slam2d", False), ("slam2d", True)],
    ids=["inertial_nav", "slam2d", "slam2d_moved"])
def test_propagate_and_update_on_a_run_stack(name, registered):
    """A belief with a run axis: the callables see (rows, runs, ...) stacks
    and each run's result equals its single-belief call bit for bit.  The
    registered slam2d retraction samples only the a = 3 pose coordinates,
    so f sees 1 + 2(a + q) rows; without the declaration a = d."""
    model = make(name)
    base = model.retraction()
    phi, f, h = Counted(base.phi, arg=1), Counted(model.f), Counted(model.h)
    retr = dataclasses.replace(base, phi=phi,
                               moved=base.moved if registered else None)
    d, q, runs = retr.dim, model.Q.shape[0], 3
    a = retr.moved or d
    means = base.phi(model.initial_mean, 0.1 * RNG.standard_normal((runs, d)))
    covs = model.initial_cov * RNG.uniform(0.5, 2.0, (runs, 1, 1))
    singles = [Belief(m, c) for m, c in zip(means, covs)]
    u = model.inputs(1)[0]

    stacked = propagate(Belief(means, covs), u, f, model.Q, retr, model.alpha)
    assert phi.shapes == [(2 * a, runs, d)]
    assert [shape[:2] for shape in f.shapes] == [(1 + 2 * (a + q), runs)]
    ys = np.array([model.h(b.mean) for b in singles]) + 0.05
    stacked = update(stacked, ys, h, model.R, retr, model.alpha)
    assert h.shapes[0][:2] == (2 * d + 1, runs)

    for r, belief in enumerate(singles):
        one = propagate(belief, u, model.f, model.Q, retr, model.alpha)
        one = update(one, ys[r], model.h, model.R, retr, model.alpha)
        assert np.array_equal(stacked.cov[r], one.cov)
        assert np.array_equal(stacked.mean[r], one.mean)


@pytest.mark.parametrize("name,retraction", [
    (name, retraction) for name in example_names()
    for retraction in sorted(make(name).retractions)])
def test_propagated_mean_is_the_owned_zero_noise_image(name, retraction):
    """propagate's new mean, row 0 of its one stacked f call, is f at the
    mean with zero noise bit for bit, for one belief and for a 3-run stack.
    The means propagate and update return own their memory, so a belief
    keeps no stacked output alive."""
    model = make(name)
    retr = model.retraction(retraction)
    d, q, runs = retr.dim, model.Q.shape[0], 3
    u = model.inputs(1)[0]
    means = retr.phi(model.initial_mean, 0.1 * RNG.standard_normal((runs, d)))
    covs = model.initial_cov * RNG.uniform(0.5, 2.0, (runs, 1, 1))
    for belief in (Belief(means[0], covs[0]), Belief(means, covs)):
        out = propagate(belief, u, model.f, model.Q, retr, model.alpha)
        image = np.asarray(model.f(belief.mean, u, np.zeros(q)))
        assert out.mean.shape == image.shape
        assert out.mean.tobytes() == np.ascontiguousarray(image).tobytes()
        assert out.mean.base is None
        out = update(out, model.h(out.mean) + 0.05, model.h, model.R, retr,
                     model.alpha)
        assert out.mean.base is None


def test_renormalize_batch_equals_elements():
    """polar_project and every example's renormalize on a stack equal their
    per-element calls, including an element whose SVD factor needs a flip."""
    A = lie.exp_so3(rotvecs(N)) + 1e-3 * RNG.standard_normal((N, 3, 3))
    A[2] = np.diag([1.0, 1.0, -1.0]) @ A[2]  # U @ Vt has det -1
    assert np.linalg.det(lie.polar_project(A[2])) > 0.0
    assert np.array_equal(lie.polar_project(A), [lie.polar_project(a) for a in A])
    for name in example_names():
        model = make(name)
        retr = model.retraction()
        states = retr.phi(model.initial_mean, sigma_like(retr.dim))
        for got, one in zip(model.renormalize(states), states):
            assert np.array_equal(got, model.renormalize(one))


def test_constant_callables_broadcast():
    belief = Belief(np.zeros(2), np.eye(2))
    retr = additive_retraction(2)
    out = propagate(belief, None, lambda s, o, w: np.ones(2), np.eye(2), retr, 1.0)
    assert np.array_equal(out.mean, np.ones(2))
    assert np.array_equal(out.cov, np.zeros((2, 2)))
    out = update(belief, np.zeros(2), lambda s: np.ones(2), np.eye(2), retr, 1.0)
    assert np.array_equal(out.mean, np.zeros(2))
    assert np.array_equal(out.cov, belief.cov)
