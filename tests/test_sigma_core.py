"""Filter-core tests: weights, sigma points, propagate/update, full runs.

The linear-model expectations come from the textbook Kalman filter in
oracles.py; scalar expected values are frozen from its closed forms.
"""

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from manifold_ukf import lie_groups as lie
from manifold_ukf import models, sigma_core
from manifold_ukf.errors import (
    CholeskyFailure,
    DimensionMismatch,
    FilterStepError,
    InvalidAlpha,
    NonFiniteState,
    NonPSDCovariance,
    NotARotation,
    SingularInnovationCovariance,
)
from manifold_ukf.models import ModelSpec, example_names, make
from manifold_ukf.montecarlo import simulate
from manifold_ukf.retraction import additive_retraction, group_retraction
from manifold_ukf.sigma_core import (
    Belief,
    filter_run,
    propagate,
    set_weights,
    sigma_points,
    update,
)

from oracles import ekf_transport, kf_run, kf_update, update_limit

RNG = np.random.Generator(np.random.Philox(key=99))


def linear_model(F, Q, H, R, x0, P0, controls=None, name="linear"):
    """A plain linear-Gaussian problem wrapped as a ModelSpec."""
    F = np.asarray(F, dtype=float)
    H = np.asarray(H, dtype=float)
    d = F.shape[0]
    retr = additive_retraction(d)

    def f(state, omega, w):
        return state @ F.T + omega + w

    def h(state):
        return state @ H.T

    def inputs(steps):
        if controls is None:
            return np.zeros((steps, d))
        return np.array(controls[:steps])

    return ModelSpec(
        name=name, f=f, h=h, Q=np.asarray(Q, dtype=float),
        R=np.asarray(R, dtype=float), dt=1.0,
        retractions={"additive": retr}, default_retraction="additive",
        initial_truth=np.asarray(x0, dtype=float),
        initial_mean=np.asarray(x0, dtype=float),
        initial_cov=np.asarray(P0, dtype=float),
        inputs=inputs,
        state_labels=tuple(f"x{i}" for i in range(d)),
        state_to_vector=lambda s: s,
    )


# ---------------------------------------------------------------------------
# Weights


def test_weights_unit_alpha_n3():
    w = set_weights(3, 1.0)
    assert w.lam == 0.0
    assert w.w_m == 0.0
    assert w.w_j == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert w.w_0c == 2.0


def test_weights_small_alpha_n2():
    w = set_weights(2, 1e-3)
    assert w.lam == pytest.approx(2.0 * (1e-6 - 1.0), rel=1e-12)
    assert w.w_j == pytest.approx(1.0 / 4e-6, rel=1e-9)
    assert w.w_0c == pytest.approx(w.w_m + 3.0 - 1e-6, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.floats(1e-3, 1.0))
def test_weights_mean_normalization(n, alpha):
    # the identity is exact in real arithmetic; in floats the achievable
    # absolute error grows with |w_m| (small alpha makes the weights huge)
    w = set_weights(n, alpha)
    assert abs(w.w_m + 2 * n * w.w_j - 1.0) <= 1e-12 * max(1.0, abs(w.w_m))
    assert w.w_j > 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.floats(0.3, 1.0))
def test_weights_mean_normalization_is_tight_for_moderate_alpha(n, alpha):
    w = set_weights(n, alpha)
    assert abs(w.w_m + 2 * n * w.w_j - 1.0) <= 1e-12


def test_weights_rejects_bad_alpha():
    for alpha in (0.0, -0.5, 1.5, 2.0):
        with pytest.raises(InvalidAlpha):
            set_weights(3, alpha)
    with pytest.raises(ValueError):
        set_weights(0, 0.5)


def test_weights_accept_numpy_alphas_and_reject_every_bad_call():
    """set_weights is memoized: numpy scalars and 0-d arrays hit the same
    entry as a float, and a bad alpha raises on every call, not the first."""
    ref = set_weights(3, 0.5)
    for alpha in (np.float64(0.5), np.array(0.5), np.float32(0.5)):
        assert set_weights(3, alpha) == ref
    assert set_weights(np.int64(3), 0.5) == ref
    for alpha in (0.0, np.float64(1.5), np.array(-0.5), np.nan, True, np.bool_(True),
                  "0.5", b"0.5", np.str_("0.5")):
        for _ in range(2):
            with pytest.raises(InvalidAlpha):
                set_weights(3, alpha)


@pytest.mark.parametrize("n", [0, -1, 3.5, 3.0, True, np.True_, "3", None])
def test_weights_reject_a_dimension_that_is_not_a_positive_int(n):
    """Not 3.5 truncated to 3, True taken as 1 or a raw TypeError."""
    with pytest.raises(ValueError, match="^dimension must be positive"):
        set_weights(n, 0.5)


# ---------------------------------------------------------------------------
# Sigma points


def test_sigma_points_identity_cov():
    pts = sigma_points(np.eye(2), 0.0)
    s = np.sqrt(2.0)
    expected = np.array([[s, 0.0], [0.0, s], [-s, 0.0], [0.0, -s]])
    assert np.abs(pts - expected).max() < 1e-15


def test_sigma_points_zero_cov_uses_jitter():
    pts = sigma_points(np.zeros((3, 3)), 0.0)
    assert pts.shape == (6, 3)
    assert np.abs(pts).max() < 1e-4  # jitter-scale points, not a failure
    assert np.abs(pts).max() > 0.0


def test_sigma_points_reconstruction():
    for n in (1, 2, 5, 9):
        A = RNG.standard_normal((n, n))
        P = A @ A.T + 0.1 * np.eye(n)
        w = set_weights(n, 0.7)
        pts = sigma_points(P, w.lam)
        assert np.abs(w.w_j * (pts.T @ pts) - P).max() < 1e-10
        assert np.array_equal(pts[:n], -pts[n:])  # exact +/- pairs
        assert np.array_equal(pts[:n] + pts[n:], np.zeros((n, n)))


def test_sigma_points_failure_after_jitter():
    with pytest.raises(CholeskyFailure):
        sigma_points(np.diag([1.0, -1.0]), 0.0)


def test_sigma_points_stack_jitters_only_failing_elements():
    A = RNG.standard_normal((3, 3))
    P = np.array([A @ A.T + 0.1 * np.eye(3), np.diag([1.0, 0.0, 2.0]), np.eye(3)])
    w = set_weights(3, 0.5)
    pts = sigma_points(P, w.lam)
    assert pts.shape == (6, 3, 3)  # sigma axis first
    for i in range(3):
        assert np.array_equal(pts[:, i], sigma_points(P[i], w.lam))
    assert np.abs(w.w_j * (pts[:, 1].T @ pts[:, 1]) - P[1]).max() < 1e-8
    with pytest.raises(CholeskyFailure):  # one element beyond repair fails the stack
        sigma_points(np.array([np.eye(2), np.diag([1.0, -1.0])]), 0.0)


def test_sigma_points_scale_check():
    with pytest.raises(ValueError):
        sigma_points(np.eye(2), -2.0)


@pytest.mark.parametrize("P", [np.ones(3), np.ones((2, 3)), 1.0], ids=["vector", "2x3", "scalar"])
def test_sigma_points_reject_a_covariance_that_is_not_square(P):
    """Checked before the Cholesky, whose jitter retry would otherwise add
    an identity of the wrong size and let numpy's ValueError out."""
    with pytest.raises(DimensionMismatch, match="^P must be square"):
        sigma_points(P, 0.0)


def test_noise_points_are_memoized_read_only():
    Q = make("inertial_nav").Q
    w = set_weights(Q.shape[0], 0.5)
    pts, w_q = sigma_core._noise_points(Q.tobytes(), Q.shape, 0.5, 0, 0)
    assert pts is sigma_core._noise_points(Q.tobytes(), Q.shape, 0.5, 0, 0)[0]
    assert w_q == w
    assert np.array_equal(pts, sigma_points(Q, w.lam))
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0


def test_propagate_sees_in_place_changes_to_q():
    """The noise points are keyed on Q's values, not on the array object."""
    model = make("inertial_nav")
    retr, u = model.retraction(), model.inputs(1)[0]
    belief = Belief(model.initial_mean, model.initial_cov)
    Q = model.Q.copy()
    first = propagate(belief, u, model.f, Q, retr, model.alpha)
    Q *= 4.0
    Q[0, 1] = Q[1, 0] = 1e-6
    second = propagate(belief, u, model.f, Q, retr, model.alpha)
    assert not np.array_equal(first.cov, second.cov)
    sigma_core._noise_points.cache_clear()
    fresh = propagate(belief, u, model.f, Q, retr, model.alpha)
    assert np.array_equal(second.cov, fresh.cov)


@pytest.mark.parametrize("name", ["attitude3d", "imu_gnss", "slam2d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_propagate_rejects_a_non_finite_q(name, bad):
    """LAPACK factors NaN without an error, so the noise points would carry
    it into f and the fault would surface as a bad state."""
    model = make(name)
    Q = model.Q.copy()
    Q[0, 0] = bad
    with pytest.raises(NonPSDCovariance, match="^Q holds NaN or inf$"):
        propagate(Belief(model.initial_mean, model.initial_cov), model.inputs(1)[0],
                  model.f, Q, model.retraction(), model.alpha)


def test_a_zero_q_has_no_noise_rows_and_no_weights():
    stack, w_q = sigma_core._noise_points(np.zeros((2, 2)).tobytes(), (2, 2), 0.5, 3, 1)
    assert stack.shape == (3, 1, 2) and not stack.any() and w_q is None


def test_propagate_computes_qs_weights_only_on_a_noise_cache_miss(monkeypatch):
    """The noise stack's cache entry holds Q's checks and weights: a step
    with a new Q makes one set_weights call, for Q's size q, and a step
    with a cached Q none (the belief's weights for d skip the checks)."""
    model = make("inertial_nav")
    belief = Belief(model.initial_mean, model.initial_cov)
    u, retr = model.inputs(1)[0], model.retraction()
    sigma_core._noise_points.cache_clear()
    calls = []
    monkeypatch.setattr(sigma_core, "set_weights",
                        lambda n, alpha: calls.append(n) or set_weights(n, alpha))
    propagate(belief, u, model.f, model.Q, retr, model.alpha)
    assert calls == [len(model.Q)] and len(model.Q) != retr.dim
    propagate(belief, u, model.f, model.Q, retr, model.alpha)
    assert calls == [len(model.Q)]


PAIRS = [(name, retr) for name in example_names()
         for retr in sorted(make(name).retractions)]


def _public_steps(model, inputs, measurements, retr, belief):
    """filter_run's recursion as public propagate / update calls, one step
    at a time, as a caller outside the package (perfbench's drive) makes it."""
    for step, omega in enumerate(inputs, start=1):
        belief = propagate(belief, omega, model.f, model.Q, retr, model.alpha)
        if step in measurements:
            belief = update(belief, measurements[step], model.h, model.R, retr,
                            model.alpha)
        if step % 1000 == 0:
            belief = Belief(model.renormalize(belief.mean), belief.cov)
        yield belief


@pytest.mark.parametrize("runs", [None, 3], ids=["alone", "lockstep"])
@pytest.mark.parametrize("name, retraction", PAIRS)
def test_filter_steps_equal_public_propagate_and_update_calls(name, retraction, runs):
    """_filter_steps steps the private cores on the model's Q, R and alpha
    read once: every belief equals the public calls' bit for bit, for one
    run and for a stack of 3 runs in lockstep."""
    model = make(name)
    retr = model.retraction(retraction)
    _, inputs, measurements = simulate(model, 25, [1, 2, 3] if runs else 4)
    cov = model.initial_cov
    belief = (Belief(np.stack([model.initial_mean] * runs),
                     np.broadcast_to(cov, (runs,) + cov.shape)) if runs
              else Belief(model.initial_mean, cov))
    assert measurements
    pairs = zip(sigma_core._filter_steps(model, inputs, measurements, retr, belief),
                _public_steps(model, inputs, measurements, retr, belief), strict=True)
    for a, b in pairs:
        assert a.mean.shape == b.mean.shape and a.mean.tobytes() == b.mean.tobytes()
        assert a.cov.shape == b.cov.shape and a.cov.tobytes() == b.cov.tobytes()


def _step(kind, belief=None, alpha=None, **given):
    """propagate or update on attitude3d's initial belief (or `belief`) with
    the model's arguments except those given."""
    m = make("attitude3d")
    belief = belief or Belief(m.initial_mean, m.initial_cov)
    alpha = m.alpha if alpha is None else alpha
    if kind == "update":
        return update(belief, given.get("y", np.zeros(len(m.R))), m.h,
                      given.get("R", m.R), m.retraction(), alpha)
    return propagate(belief, m.inputs(1)[0], m.f, given.get("Q", m.Q),
                     m.retraction(), alpha)


_NAN_P = Belief(np.eye(3), np.diag([1.0, np.nan, 1.0]))
_EMPTY = Belief(np.eye(3), np.zeros((0, 0)))
_SCALAR = Belief(np.zeros(0), np.zeros(()))  # a 0-d cov fails as an empty one
_WORDS = Belief(np.eye(3), [["a", "b", "c"]] * 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: _step("propagate", Q="abc", alpha=2.0), DimensionMismatch, "Q is not a numeric"),
    (lambda: _step("propagate", Q=np.ones((2, 3)), alpha=2.0), InvalidAlpha, "alpha must"),
    (lambda: _step("propagate", _NAN_P, Q=np.ones((2, 3))), DimensionMismatch, "Q must be square"),
    (lambda: _step("propagate", _NAN_P, alpha=2.0), InvalidAlpha, "alpha must"),
    (lambda: _step("propagate", _EMPTY, Q=np.ones((2, 3))), DimensionMismatch, "Q must be square"),
    (lambda: _step("propagate", _EMPTY), ValueError, "dimension must be positive"),
    (lambda: _step("propagate", _SCALAR), ValueError, "dimension must be positive"),
    (lambda: _step("update", y="abc", R="abc"), DimensionMismatch, "y is not a numeric"),
    (lambda: _step("update", R="abc", alpha=2.0), DimensionMismatch, "R is not a numeric"),
    (lambda: _step("update", R=np.eye(2), alpha=2.0), DimensionMismatch, r"R must be \(p, p\)"),
    (lambda: _step("update", _EMPTY, R=np.eye(2)), DimensionMismatch, r"R must be \(p, p\)"),
    (lambda: _step("update", _EMPTY, alpha=2.0), ValueError, "dimension must be positive"),
    (lambda: _step("update", _SCALAR, alpha=2.0), ValueError, "dimension must be positive"),
    (lambda: _step("update", _NAN_P, alpha=2.0), InvalidAlpha, "alpha must"),
    (lambda: _step("update", _NAN_P, y=np.full(6, np.nan)), NonPSDCovariance, "P holds NaN"),
    (lambda: _step("update", y=np.full(6, np.nan)), NonFiniteState, "measurement y holds NaN"),
    (lambda: _step("propagate", _WORDS, alpha=2.0), InvalidAlpha, "alpha must"),
    (lambda: _step("propagate", _WORDS), DimensionMismatch, "P is not a numeric"),
    (lambda: _step("update", _WORDS, R=np.eye(2)), DimensionMismatch, r"R must be \(p, p\)"),
    (lambda: _step("update", _WORDS), DimensionMismatch, "P is not a numeric"),
], ids=["Q-str+alpha", "alpha+Q-shape", "Q-shape+P", "alpha+P", "Q-shape+d0", "d0",
        "0-d", "y-str+R-str", "R-str+alpha", "R-shape+alpha", "R-shape+d0", "d0+alpha",
        "0-d+alpha", "alpha+P", "P+y", "y", "alpha+P-str", "P-str", "R-shape+P-str",
        "update-P-str"])
def test_public_steps_check_in_their_order(call, error, message):
    """propagate and update are their checks plus a core: of two faults the
    first check's error is raised, as when every check ran in the step."""
    with pytest.raises(error, match=f"^{message}") as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("kind", ["propagate", "update"])
def test_public_steps_take_a_covariance_given_as_a_nested_list(kind):
    """As sigma_points does: the list is converted once, at the entry, and
    the step is the step on the array, bit for bit."""
    m = make("attitude3d")
    listed = _step(kind, Belief(m.initial_mean, m.initial_cov.tolist()))
    given = _step(kind)
    assert listed.mean.tobytes() == given.mean.tobytes()
    assert listed.cov.tobytes() == given.cov.tobytes()


def test_filter_run_takes_a_spec_whose_covariances_are_nested_lists():
    """ModelSpec stores Q, R and initial_cov as the float arrays its checks
    made, so filter_run, which steps the unchecked cores, runs the spec as
    the array spec, bit for bit."""
    m = make("attitude3d")
    listed = dataclasses.replace(m, **{what: getattr(m, what).tolist()
                                       for what in ("Q", "R", "initial_cov")})
    inputs, ys = m.inputs(4), {2: np.full(len(m.R), 0.1), 4: np.zeros(len(m.R))}
    for a, b in zip(filter_run(listed, inputs, ys), filter_run(m, inputs, ys)):
        assert a.mean.tobytes() == b.mean.tobytes()
        assert a.cov.tobytes() == b.cov.tobytes()


def test_a_noise_cache_miss_checks_q_once(monkeypatch):
    """Q passes the covariance rule's check half once, as Q, on a miss, and
    the belief's P once; Q's factor skips sigma_points' second check."""
    m, seen = make("attitude3d"), []
    square_finite = lie._square_finite
    monkeypatch.setattr(lie, "_square_finite", lambda M, what, *args: seen.append(what)
                        or square_finite(M, what, *args))
    sigma_core._noise_points.cache_clear()
    for expected in (["Q", "P"], ["P"]):  # a miss, then a hit
        seen.clear()
        propagate(Belief(m.initial_mean, m.initial_cov), m.inputs(1)[0], m.f, m.Q,
                  m.retraction(), m.alpha)
        assert seen == expected


def test_a_pass_reads_the_model_as_step_1_starts():
    """Q, R and alpha are read once per pass, as step 1 starts: a Q set to
    NaN in place fails step 1, and a pass with no inputs reads nothing."""
    model = make("attitude3d")
    model = dataclasses.replace(model, Q=model.Q.copy())
    _, inputs, measurements = simulate(model, 5, 1)
    model.Q[1, 1] = np.nan
    with pytest.raises(FilterStepError) as info:
        filter_run(model, inputs, measurements)
    assert info.value.step == 1 and type(info.value.cause) is NonPSDCovariance
    bad = types.SimpleNamespace(Q="abc", R="abc", alpha=2.0)
    assert list(sigma_core._filter_steps(bad, inputs[:0], measurements, model.retraction(),
                                         Belief(model.initial_mean, model.initial_cov))) == []


def test_a_pass_checks_alpha_q_and_r_once(monkeypatch):
    """No per-step checks of the model: a pass of 40 steps with an update on
    every step makes as many _check_number calls, and _floats calls on Q
    and R, as a pass of 20."""
    model = make("attitude3d", measure_every=1)
    _, inputs, measurements = simulate(model, 40, 2)
    calls = []
    check_number, floats = lie._check_number, lie._floats

    def counted_number(x, what, *args):
        calls.append(what)
        return check_number(x, what, *args)

    def counted_floats(x, what):
        if what in ("Q", "R"):
            calls.append(what)
        return floats(x, what)

    monkeypatch.setattr(lie, "_check_number", counted_number)
    monkeypatch.setattr(lie, "_floats", counted_floats)
    counts = []
    for steps in (20, 40):
        calls.clear()
        filter_run(model, inputs[:steps], measurements)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("runs", [None, 3])
def test_a_non_finite_covariance_is_declared_broken(bad, runs):
    """LAPACK factors NaN without an error: sigma_points, propagate and
    update name P, not NaN sigma points or a bad rotation downstream; in a
    stack of runs one bad member is enough."""
    model = make("attitude3d")
    retr, P = model.retraction(), model.initial_cov.copy()
    if runs:
        P = np.stack([P] * runs)
        P[1, 1, 1] = bad
    else:
        P[1, 1] = bad
    belief = Belief(model.initial_mean, P)
    y = model.h(model.initial_mean)
    y = np.tile(y, (runs, 1)) if runs else y
    for call in (lambda: sigma_points(P, 0.0),
                 lambda: propagate(belief, model.inputs(1)[0], model.f, model.Q,
                                   retr, model.alpha),
                 lambda: update(belief, y, model.h, model.R, retr, model.alpha)):
        with pytest.raises(NonPSDCovariance, match="^P holds NaN or inf$"):
            call()
    with pytest.raises(NonPSDCovariance, match="^Q holds NaN or inf$"):  # Q first
        propagate(belief, model.inputs(1)[0], model.f, np.full((3, 3), bad), retr,
                  model.alpha)


# ---------------------------------------------------------------------------
# LAPACK calls


def test_lapack_gufuncs_keep_the_signatures_the_core_calls():
    """_umath_linalg is private numpy API: a numpy that moves or reshapes
    these gufuncs fails here by name."""
    assert _umath_linalg.cholesky_lo.signature == "(m,m)->(m,m)"
    assert _umath_linalg.solve.signature == "(m,m),(m,n)->(m,n)"


def test_a_filter_step_enters_no_checked_exp_and_no_count_nonzero_wrapper(monkeypatch):
    """The step path calls the unchecked exp cores and numpy's C
    count_nonzero: with the public exps, wedge_so3 and np.count_nonzero
    raising, every variant runs 20 steps to the same bits."""
    runs = []
    for name in example_names():
        model = make(name)
        _, inputs, meas = simulate(model, 20, 3)
        for retraction in sorted(model.retractions):
            runs.append((model, inputs, meas, retraction,
                         filter_run(model, inputs, meas, retraction=retraction)))

    def wrapper(*args, **kwargs):
        raise AssertionError("the step entered a checked wrapper")

    monkeypatch.setattr(np, "count_nonzero", wrapper)
    for name in ("exp_so3", "exp_sek", "exp_so2", "wedge_so3"):
        monkeypatch.setattr(lie, name, wrapper)
    for model, inputs, meas, retraction, ref in runs:
        got = filter_run(model, inputs, meas, retraction=retraction)
        for a, b in zip(got, ref, strict=True):
            assert a.mean.tobytes() == b.mean.tobytes(), (model.name, retraction)
            assert a.cov.tobytes() == b.cov.tobytes(), (model.name, retraction)


def _spd(lead, n):
    A = RNG.standard_normal(lead + (n, n))
    return A @ A.swapaxes(-1, -2) + 0.1 * np.eye(n)


@pytest.mark.parametrize("n", [3, 9, 15])
@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
def test_lapack_calls_equal_numpys_wrappers_byte_for_byte(n, lead):
    S = _spd(lead, n)
    B = RNG.standard_normal(lead + (n, 5))
    assert sigma_core._cholesky(S).tobytes() == np.linalg.cholesky(S).tobytes()
    assert sigma_core._solve(S, B).tobytes() == np.linalg.solve(S, B).tobytes()
    P_xy = RNG.standard_normal(lead + (7, n))  # a transposed view goes in
    K = sigma_core._gain(S, P_xy)
    wrapped = np.linalg.solve(S, P_xy.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert K.tobytes() == np.ascontiguousarray(wrapped).tobytes()


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("kind", ["indefinite", "singular", "nan"])
def test_lapack_calls_raise_where_numpys_wrappers_do(lead, kind):
    """A stack fails as a whole when one element fails.  The wrappers raise
    on an indefinite matrix (Cholesky) and a singular one (both), and not
    on NaN, which LAPACK factors without an error."""
    S = _spd(lead, 3)
    bad = {"indefinite": np.diag([1.0, -1.0, 2.0]), "singular": np.ones((3, 3)),
           "nan": np.diag([np.nan, 1.0, 1.0])}[kind]
    S[(0,) * len(lead)] = bad
    B = RNG.standard_normal(lead + (3, 2))
    raises = {"indefinite": (True, False), "singular": (True, True),
              "nan": (False, False)}[kind]
    calls = ((np.linalg.cholesky, sigma_core._cholesky, (S,)),
             (np.linalg.solve, sigma_core._solve, (S, B)))
    for (theirs, mine, args), fails in zip(calls, raises):
        for fn in (theirs, mine):
            if fails:
                with pytest.raises(np.linalg.LinAlgError):
                    fn(*args)
            else:
                fn(*args)


def test_gain_reports_a_failed_solve_as_a_singular_innovation(monkeypatch):
    """A solve failure inside _gain is SingularInnovationCovariance too: with
    the Cholesky check switched off, a singular S reaches the solve."""
    monkeypatch.setattr(sigma_core, "_umath_linalg", types.SimpleNamespace(
        cholesky_lo=lambda S: S, solve=_umath_linalg.solve))
    with pytest.raises(SingularInnovationCovariance):
        sigma_core._gain(np.ones((2, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# update


def test_update_scalar_kalman():
    # frozen scalar oracle: K = P/(P+R) = 1/2, mean = K*y = 1, P+ = 0.5
    retr = additive_retraction(1)
    belief = Belief(np.zeros(1), np.eye(1))
    out = update(belief, np.array([2.0]), lambda s: s, np.eye(1), retr, 1.0)
    assert out.mean == pytest.approx(np.array([1.0]), abs=1e-10)
    assert out.cov == pytest.approx(np.array([[0.5]]), abs=1e-10)


def test_update_zero_innovation_keeps_mean():
    retr = additive_retraction(2)
    H = np.array([[1.0, 0.5], [0.0, 2.0]])
    x = np.array([0.3, -0.7])
    belief = Belief(x, np.diag([0.5, 2.0]))
    out = update(belief, H @ x, lambda s: s @ H.T, 0.1 * np.eye(2), retr, 0.9)
    assert np.abs(out.mean - x).max() < 1e-10


def test_update_matches_closed_form_linear():
    H = np.array([[1.0, 2.0], [0.0, 1.0]])
    R = np.diag([0.5, 0.2])
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    x = np.array([1.0, -1.0])
    y = np.array([0.7, 0.1])
    out = update(Belief(x, P), y, lambda s: s @ H.T, R, additive_retraction(2), 0.8)
    ex, eP, _ = kf_update(x, P, y, H, R)
    assert np.abs(out.mean - ex).max() < 1e-10
    assert np.abs(out.cov - eP).max() < 1e-10


def test_update_never_grows_covariance():
    for _ in range(20):
        d, p = 3, 2
        A = RNG.standard_normal((d, d))
        P = A @ A.T + 0.1 * np.eye(d)
        H = RNG.standard_normal((p, d))
        R = np.diag(RNG.uniform(0.1, 1.0, p))
        y = RNG.standard_normal(p)
        out = update(Belief(RNG.standard_normal(d), P), y,
                     lambda s, H=H: s @ H.T, R, additive_retraction(d), 1.0)
        assert np.linalg.eigvalsh(P - out.cov).min() > -1e-10
        assert np.abs(out.cov - out.cov.T).max() <= 1e-12


def test_update_singular_innovation():
    retr = additive_retraction(2)
    belief = Belief(np.zeros(2), np.eye(2))
    with pytest.raises(SingularInnovationCovariance):
        update(belief, np.zeros(1), lambda s: np.zeros(1), np.zeros((1, 1)),
               retr, 1.0)


def test_update_rejects_an_indefinite_innovation_covariance():
    """S = P + R = diag(2, -1) is invertible, so only the positive-definiteness
    check can refuse it."""
    with pytest.raises(SingularInnovationCovariance,
                       match="innovation covariance is not positive definite"):
        update(Belief(np.zeros(2), np.eye(2)), np.zeros(2), lambda s: s,
               np.diag([1.0, -2.0]), additive_retraction(2), 1.0)


def test_update_rejects_a_run_stack_with_one_indefinite_innovation():
    """S = P + R per run: 0.5 I, -0.4 I, 0.5 I.  Runs 0 and 2 update alone."""
    P = np.array([1.0, 0.1, 1.0])[:, None, None] * np.eye(2)
    args = (lambda s: s, -0.5 * np.eye(2), additive_retraction(2), 1.0)
    with pytest.raises(SingularInnovationCovariance):
        update(Belief(np.zeros((3, 2)), P), np.zeros((3, 2)), *args)
    out = update(Belief(np.zeros((2, 2)), P[[0, 2]]), np.zeros((2, 2)), *args)
    assert out.cov.shape == (2, 2, 2)


def test_gain_on_a_run_stack_equals_its_per_run_calls():
    S = RNG.standard_normal((4, 3, 3))
    S = S @ S.swapaxes(-1, -2) + 0.1 * np.eye(3)
    P_xy = RNG.standard_normal((4, 5, 3))
    K = sigma_core._gain(S, P_xy)
    assert K.flags.c_contiguous
    for r in range(4):
        one = sigma_core._gain(S[r], P_xy[r])
        assert one.flags.c_contiguous
        assert np.array_equal(K[r], one)


def test_update_on_group_state():
    # correction vector retracts onto the group; mean stays a valid element
    retr = group_retraction(3, 0, "left")
    C = lie.exp_so3(np.array([0.2, -0.1, 0.3]))
    belief = Belief(C, 0.05 * np.eye(3))
    y = np.array([0.25, -0.05, 0.35])

    def h(state):
        return lie.log_so3(state)

    out = update(belief, y, h, 0.01 * np.eye(3), retr, 1.0)
    assert np.abs(out.mean.T @ out.mean - np.eye(3)).max() < 1e-12
    # posterior mean moved toward the measurement
    assert np.linalg.norm(lie.log_so3(out.mean) - y) < np.linalg.norm(
        lie.log_so3(C) - y)


# ---------------------------------------------------------------------------
# propagate


def test_propagate_scalar_additive_noise():
    retr = additive_retraction(1)
    belief = Belief(np.array([0.7]), np.eye(1))
    out = propagate(belief, np.zeros(1), lambda s, o, w: s + w, np.eye(1),
                    retr, 1.0)
    assert np.array_equal(out.mean, np.array([0.7]))
    assert out.cov == pytest.approx(np.array([[2.0]]), abs=1e-10)


def test_propagate_identity_no_noise():
    retr = additive_retraction(2)
    P = np.array([[1.5, 0.2], [0.2, 0.8]])
    belief = Belief(np.array([1.0, -2.0]), P)
    out = propagate(belief, np.zeros(2), lambda s, o, w: s, np.zeros((2, 2)),
                    retr, 1.0)
    assert np.array_equal(out.mean, belief.mean)
    assert np.abs(out.cov - P).max() < 1e-12


def test_propagate_identity_no_noise_group_state():
    retr = group_retraction(3, 1, "left")
    X = lie.exp_sek(np.array([0.3, -0.5, 0.2, 1.0, 2.0, -0.7]), 3, 1)
    P = 0.04 * np.eye(6)
    out = propagate(Belief(X, P), None, lambda s, o, w: s, np.zeros((6, 6)),
                    retr, 1.0)
    assert np.array_equal(out.mean, X)
    assert np.abs(out.cov - P).max() < 1e-12


def test_propagate_linear_matches_oracle():
    for _ in range(10):
        F = RNG.standard_normal((2, 2))
        A = RNG.standard_normal((2, 2))
        P = A @ A.T + 0.2 * np.eye(2)
        Q = np.diag(RNG.uniform(0.1, 1.0, 2))
        x = RNG.standard_normal(2)
        out = propagate(Belief(x, P), np.zeros(2),
                        lambda s, o, w, F=F: s @ F.T + w, Q,
                        additive_retraction(2), 0.6)
        assert np.abs(out.mean - F @ x).max() < 1e-12
        assert np.abs(out.cov - (F @ P @ F.T + Q)).max() < 1e-8


def _ekf_errors(name, retraction, alpha, steps=5):
    """Per step, the worst entry of propagate's covariance minus the EKF
    transport's from the same belief, relative to the largest entry of the
    latter; the chain itself propagates at alpha = 0.1."""
    model = make(name)
    retr = model.retraction(retraction)
    belief = Belief(model.initial_mean, model.initial_cov)
    errors = []
    for u in model.inputs(steps):
        mean, P = ekf_transport(model.f, retr, belief.mean, belief.cov, u, model.Q)
        out = propagate(belief, u, model.f, model.Q, retr, alpha)
        assert np.array_equal(out.mean, mean)
        errors.append(np.abs(out.cov - P).max() / np.abs(P).max())
        belief = propagate(belief, u, model.f, model.Q, retr, 0.1)
    return np.array(errors)


# Group-affine dynamics have exactly linear error propagation in group
# coordinates (Barrau & Bonnabel, IEEE TAC 2017), so the sigma-point
# transport equals the first-order one; imu_gnss is left out because its
# bias states break that property once P correlates them with the pose.
_GROUP_AFFINE = [(name, r) for name in ("attitude3d", "inertial_nav",
                                        "localization2d", "pendulum_s2", "slam2d")
                 for r in make(name).retractions if r != "so3xr6"]


@pytest.mark.parametrize("alpha", [1.0, 0.1])
@pytest.mark.parametrize("name,retraction", _GROUP_AFFINE)
def test_propagate_equals_ekf_transport_on_group_affine_dynamics(name, retraction,
                                                                 alpha):
    assert _ekf_errors(name, retraction, alpha).max() <= 1e-8


@pytest.mark.parametrize("name,retraction", [
    ("inertial_nav", "so3xr6"), ("imu_gnss", "mixed_left"), ("imu_gnss", "mixed_right")])
def test_propagate_converges_to_ekf_transport_as_alpha_squared(name, retraction):
    """Elsewhere the transports differ at second order in the sigma spread,
    so dividing alpha by sqrt(10) divides the gap by about 10."""
    ratio = (_ekf_errors(name, retraction, 0.1)[-1]
             / _ekf_errors(name, retraction, 0.1 / np.sqrt(10.0))[-1])
    assert 8.0 < ratio < 12.0


def _update_limit_error(name, retraction, alpha, steps=3):
    """The worst entry of update's covariance minus its alpha -> 0 limit,
    relative to the largest entry of the latter, at the belief after
    `steps` propagations at alpha = 0.1 (from the initial belief, h is
    linear in the tangent coordinates on some examples)."""
    model = make(name)
    retr = model.retraction(retraction)
    belief = Belief(model.initial_mean, model.initial_cov)
    for u in model.inputs(steps):
        belief = propagate(belief, u, model.f, model.Q, retr, 0.1)
    P = update_limit(model.h, retr, belief.mean, belief.cov, model.R)
    out = update(belief, model.h(belief.mean), model.h, model.R, retr, alpha)
    return np.abs(out.cov - P).max() / np.abs(P).max()


@pytest.mark.parametrize("name,retraction", [
    (name, r) for name in example_names() for r in make(name).retractions])
def test_update_converges_to_its_first_order_limit_as_alpha_squared(name, retraction):
    """The sigma-point update differs from its limit at second order in
    the sigma spread, so dividing alpha by sqrt(10) divides the gap by
    about 10; a wrong gain or weight leaves a gap that does not shrink."""
    ratio = (_update_limit_error(name, retraction, 0.1)
             / _update_limit_error(name, retraction, 0.1 / np.sqrt(10.0)))
    assert 8.0 < ratio < 12.0


def test_propagate_and_update_reject_width_the_retraction_cannot_take():
    """A 4-dimensional belief under SE(2) (3 dimensions) raises
    DimensionMismatch, not a raw numpy error."""
    retr = group_retraction(2, 1)
    belief = Belief(np.eye(3), 0.01 * np.eye(4))
    with pytest.raises(DimensionMismatch):
        propagate(belief, np.zeros(3), lambda s, o, w: s, 1e-4 * np.eye(3),
                  retr, 1.0)
    with pytest.raises(DimensionMismatch):
        update(belief, np.zeros(2), lambda s: s[..., :2, 2], np.eye(2), retr,
               1.0)


# ---------------------------------------------------------------------------
# Sampling only the coordinates the dynamics move


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _reduced_vs_full_gap(model, retr, belief, inputs, measurements, R):
    """The worst relative gap, over every step's mean and covariance, between
    one recursion through retr, which samples only its retr.moved leading
    coordinates, and the same recursion through retr without the
    declaration, which samples all of them."""
    full = dataclasses.replace(retr, moved=None)
    a = b = belief
    worst = 0.0
    for step, u in enumerate(inputs, start=1):
        a = propagate(a, u, model.f, model.Q, retr, model.alpha)
        b = propagate(b, u, model.f, model.Q, full, model.alpha)
        if step in measurements:
            a = update(a, measurements[step], model.h, R, retr, model.alpha)
            b = update(b, measurements[step], model.h, R, full, model.alpha)
        worst = max(worst, _rel(a.mean, b.mean), _rel(a.cov, b.cov))
    return worst


@pytest.mark.parametrize("retraction", ["mixed_left", "mixed_right"])
def test_sampling_the_moved_coordinates_is_the_full_transform(retraction):
    """slam2d declares that f moves only the pose (3 of d coordinates).  Over
    20 steps with an update every other step, that path agrees with the
    full transform to 1e-12 relative: for one belief, for a 3-run lockstep
    stack, and for a belief grown twice by augment_landmark."""
    model = make("slam2d", measure_every=2)
    retr = model.retraction(retraction)
    belief = Belief(model.initial_mean, model.initial_cov)
    _, inputs, meas = simulate(model, 20, 5)
    assert _reduced_vs_full_gap(model, retr, belief, inputs, meas, model.R) <= 1e-12

    seeds = [6, 7, 8]
    means = retr.phi(model.initial_mean, 0.1 * RNG.standard_normal((3, retr.dim)))
    covs = model.initial_cov * RNG.uniform(0.5, 2.0, (3, 1, 1))
    _, inputs, meas = simulate(model, 20, seeds)
    assert _reduced_vs_full_gap(model, retr, Belief(means, covs), inputs, meas,
                                model.R) <= 1e-12

    # two more landmarks in the world, appended to the belief from their
    # first observations
    extra = np.array([[1.0, -2.0], [-3.0, 4.0]])
    world = make("slam2d", measure_every=2, landmarks=models.LandmarkSet(
        np.concatenate([models._DEFAULT_SLAM_LANDMARKS.points, extra])))
    truth, inputs, meas = simulate(world, 20, 9)
    R2 = 0.05 ** 2 * np.eye(2)
    for y in world.h(truth[0]).reshape(-1, 2)[-2:]:
        belief = models.augment_landmark(belief, y, retr, R2)
    assert belief.dim == retr.dim + 4
    assert _reduced_vs_full_gap(model, retr, belief, inputs, meas, world.R) <= 1e-12


def _propagate_sliced(belief, omega, f, Q, retr, alpha):
    """propagate (with process noise) as it was before it stacked only the
    2a sampled factor columns: the whole 2d-row sigma stack, then its rows
    :a and d:d + a.  Frozen as the bit-for-bit reference."""
    d, a = belief.dim, retr.moved or belief.dim
    w_d, w_q = set_weights(d, alpha), set_weights(Q.shape[0], alpha)
    xis = sigma_points(belief.cov, w_d.lam)
    xis = np.concatenate([xis[:a], xis[d:d + a]])
    noise = sigma_core._noise_points(Q.tobytes(), Q.shape, alpha, 1 + 2 * a,
                                     xis.ndim - 2)[0]
    offsets = retr.phi(belief.mean, xis)
    states = np.empty((len(noise),) + offsets.shape[1:])
    states[0] = belief.mean
    states[1:1 + 2 * a] = offsets
    states[1 + 2 * a:] = belief.mean
    out = f(states, omega, noise)
    mean_new = out[0].copy()
    imgs = retr.phi_inv(mean_new, out[1:])
    cov = w_d.w_j * sigma_core._gram(imgs[:2 * a], imgs[:2 * a])
    cov = cov + w_q.w_j * sigma_core._gram(imgs[2 * a:], imgs[2 * a:])
    cov[..., a:, a:] = belief.cov[..., a:, a:]
    return Belief(mean_new, 0.5 * (cov + cov.swapaxes(-1, -2)))


@pytest.mark.parametrize("runs", [None, 3])
def test_propagate_stacks_only_the_sampled_columns_bit_for_bit(runs):
    """slam2d with 16 landmarks (d = 35, moved = 3): every step's mean and
    covariance equal the frozen build-2d-then-slice path byte for byte,
    for one belief and for a stack of runs."""
    rng = np.random.Generator(np.random.Philox(key=2727))
    model = make("slam2d", landmarks=models.LandmarkSet(
        rng.uniform(-6.0, 6.0, (16, 2))))
    retr = model.retraction()
    assert (retr.moved, retr.dim) == (3, 35)
    belief = Belief(model.initial_mean, model.initial_cov)
    if runs:
        belief = Belief(retr.phi(model.initial_mean,
                                 0.05 * rng.standard_normal((runs, retr.dim))),
                        model.initial_cov * rng.uniform(0.5, 2.0, (runs, 1, 1)))
    ref = belief
    for u in model.inputs(5):
        belief = propagate(belief, u, model.f, model.Q, retr, model.alpha)
        ref = _propagate_sliced(ref, u, model.f, model.Q, retr, model.alpha)
        assert belief.mean.tobytes() == ref.mean.tobytes()
        assert belief.cov.tobytes() == ref.cov.tobytes()


def _update_through_sigma_points(belief, y, h, R, retr, alpha):
    """update as it was before it sampled through propagate's path: the
    whole sigma_points stack and its own mean-and-offsets stack.  Frozen as
    the bit-for-bit reference."""
    d, w = belief.dim, set_weights(belief.dim, alpha)
    xis = sigma_points(belief.cov, w.lam)
    offsets = retr.phi(belief.mean, xis)
    points = np.empty((1 + 2 * d,) + offsets.shape[1:])
    points[0] = belief.mean
    points[1:] = offsets
    y_all = h(points)
    y0, ys = y_all[0], y_all[1:]
    y_bar = w.w_m * y0 + w.w_j * np.add.reduce(ys, axis=0)
    dy0 = y0 - y_bar
    dys = ys - y_bar
    S = (w.w_0c * (dy0[..., :, None] * dy0[..., None, :])
         + w.w_j * sigma_core._gram(dys, dys) + R)
    K = sigma_core._gain(S, w.w_j * sigma_core._gram(xis, dys))
    mean_new = retr.phi(belief.mean, (K @ (y - y_bar)[..., None])[..., 0])
    cov = belief.cov - K @ S @ K.swapaxes(-1, -2)
    return Belief(mean_new, 0.5 * (cov + cov.swapaxes(-1, -2)))


@pytest.mark.parametrize("name", ["slam2d", "inertial_nav"])
@pytest.mark.parametrize("runs", [None, 3])
def test_update_samples_through_propagates_path_bit_for_bit(name, runs):
    """slam2d with 16 landmarks (d = 35) and inertial_nav (d = 9): every
    update's mean and covariance equal the frozen sigma_points path byte
    for byte, for one belief and for a stack of runs."""
    rng = np.random.Generator(np.random.Philox(key=2929))
    model = (make(name, landmarks=models.LandmarkSet(rng.uniform(-6.0, 6.0, (16, 2))))
             if name == "slam2d" else make(name))
    retr = model.retraction()
    truth, inputs, _ = simulate(model, 4, [5, 6, 7][:runs or 1])
    belief = Belief(model.initial_mean, model.initial_cov)
    if runs:
        belief = Belief(retr.phi(model.initial_mean,
                                 0.05 * rng.standard_normal((runs, retr.dim))),
                        model.initial_cov * rng.uniform(0.5, 2.0, (runs, 1, 1)))
    ref = belief
    for n, u in enumerate(inputs, start=1):
        belief = propagate(belief, u, model.f, model.Q, retr, model.alpha)
        ref = propagate(ref, u, model.f, model.Q, retr, model.alpha)
        y = model.h(truth[n] if runs else truth[n, 0])
        belief = update(belief, y, model.h, model.R, retr, model.alpha)
        ref = _update_through_sigma_points(ref, y, model.h, model.R, retr, model.alpha)
        assert belief.mean.tobytes() == ref.mean.tobytes()
        assert belief.cov.tobytes() == ref.cov.tobytes()


def test_sampling_the_moved_coordinates_leaves_the_jitter_out_of_the_tail():
    """A covariance that needs the jittered Cholesky (a landmark coordinate
    with zero variance): the full transform carries the jitter delta =
    1e-9 trace(P) / d into the tail block, while the tail block copied
    from P lacks it; the pose rows and columns agree."""
    model = make("slam2d")
    retr = model.retraction()
    P = model.initial_cov.copy()
    P[5, 5] = 0.0
    u = model.inputs(1)[0]
    a, d = retr.moved, retr.dim
    reduced = propagate(Belief(model.initial_mean, P), u, model.f, model.Q, retr,
                        model.alpha)
    full = propagate(Belief(model.initial_mean, P), u, model.f, model.Q,
                     dataclasses.replace(retr, moved=None), model.alpha)
    delta = 1e-9 * np.trace(P) / d
    assert np.array_equal(reduced.cov[a:, a:], P[a:, a:])
    assert np.abs(full.cov[a:, a:] - P[a:, a:] - delta * np.eye(d - a)).max() <= 1e-15
    assert _rel(reduced.cov[:a], full.cov[:a]) <= 1e-12


# ---------------------------------------------------------------------------
# filter_run


def test_filter_run_dead_reckoning():
    F = np.array([[1.0, 0.1], [0.0, 1.0]])
    Q = np.diag([0.01, 0.02])
    model = linear_model(F, Q, np.eye(2), np.eye(2), np.zeros(2), np.eye(2))
    beliefs = filter_run(model, [np.zeros(2)] * 10, None)
    x, P = np.zeros(2), np.eye(2)
    for b in beliefs:
        x, P = F @ x, F @ P @ F.T + Q
        assert np.abs(b.mean - x).max() < 1e-10
        assert np.abs(b.cov - P).max() < 1e-8


def test_filter_run_matches_kalman_trace():
    rng = np.random.Generator(np.random.Philox(key=4))
    F = np.array([[1.0, 0.1], [0.0, 0.95]])
    Q = np.diag([0.02, 0.05])
    H = np.array([[1.0, 0.0]])
    R = np.array([[0.25]])
    P0 = np.diag([0.5, 0.3])
    x0 = np.array([0.2, -0.1])
    steps = 40
    controls = [rng.standard_normal(2) * 0.1 for _ in range(steps)]
    measurements = {n: rng.standard_normal(1) for n in range(1, steps + 1)}

    model = linear_model(F, Q, H, R, x0, P0, controls=controls)
    beliefs = filter_run(model, controls, measurements)
    expected = kf_run(x0, P0, F, Q, H, R, controls, measurements)
    for b, (ex, eP) in zip(beliefs, expected):
        assert np.abs(b.mean - ex).max() < 1e-8
        assert np.abs(b.cov - eP).max() < 1e-8


@pytest.mark.parametrize("name", ["attitude3d", "inertial_nav"])
def test_filter_run_takes_a_numpy_alpha(name):
    """A 0-d array alpha is checked to a float before it keys the noise
    cache: the run equals the float alpha's bit for bit."""
    model = make(name)
    truth, inputs, meas = simulate(model, 10, 3)
    ref = filter_run(make(name, alpha=0.5), inputs, meas)
    for alpha in (np.array(0.5), np.float64(0.5)):
        run = filter_run(make(name, alpha=alpha), inputs, meas)
        assert all(b.mean.tobytes() == r.mean.tobytes() and b.cov.tobytes() == r.cov.tobytes()
                   for b, r in zip(run, ref))


def test_filter_run_deterministic():
    model = linear_model(np.eye(2), 0.1 * np.eye(2), np.eye(2),
                         0.2 * np.eye(2), np.zeros(2), np.eye(2))
    inputs = [np.array([0.1, -0.2])] * 15
    meas = {5: np.array([1.0, 2.0]), 10: np.array([0.5, -0.5])}
    a = filter_run(model, inputs, meas)
    b = filter_run(model, inputs, meas)
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.mean, bb.mean)
        assert np.array_equal(ba.cov, bb.cov)


def test_filter_run_reports_failing_step():
    model = linear_model(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)),
                         np.zeros((1, 1)), np.zeros(1), np.eye(1))
    # constant h with R = 0 makes the innovation covariance singular
    meas = {3: np.array([0.0])}
    with pytest.raises(FilterStepError) as exc_info:
        filter_run(model, [np.zeros(1)] * 5, meas)
    assert exc_info.value.step == 3
    assert isinstance(exc_info.value.cause, SingularInnovationCovariance)


@pytest.mark.parametrize("case, cause", [
    ("nan_R", SingularInnovationCovariance), ("inf_R", SingularInnovationCovariance),
    ("nan_h_row", SingularInnovationCovariance), ("nan_y", NonFiniteState)])
@pytest.mark.parametrize("bad_step", [3, 6])
def test_filter_run_rejects_a_non_finite_update_at_its_step(case, cause, bad_step):
    """LAPACK factors NaN without an error, so update checks S and the
    measurement: a NaN or inf entering R, one sigma row of h or y at a step
    fails that step, the run's last one (6) included, and never returns
    NaN.  R turns bad in place, past ModelSpec's own check of it."""
    model = make("attitude3d", measure_every=1)
    _, inputs, meas = simulate(model, 6, 3)
    meas = dict(meas)
    if case == "nan_y":
        meas[bad_step] = np.array(meas[bad_step], dtype=float)
        meas[bad_step][1] = np.nan
    calls = []

    def h(state, h=model.h, R=model.R):  # one call per update, one update a step
        calls.append(None)
        out = np.array(h(state))
        if len(calls) == bad_step and case == "nan_h_row":
            out[1] = np.nan  # the first sigma point's image
        elif len(calls) == bad_step and case.endswith("_R"):
            R[0, 0] = np.nan if case == "nan_R" else np.inf
        return out

    with pytest.raises(FilterStepError) as exc_info:
        filter_run(dataclasses.replace(model, h=h), inputs, meas)
    assert exc_info.value.step == bad_step
    assert type(exc_info.value.cause) is cause


def _corrupt(kind, d):
    """Corrupts states: the d x d rotation block scaled by 1.01, reflected
    (det -1, still orthonormal) or NaN, the x of the last column, a group
    element's position, inf, or the last d entries, a Euclidean block,
    NaN."""
    def corrupt(X):
        X = np.array(X)
        if kind == "scaled":
            X[..., :d, :d] *= 1.01
        elif kind.startswith("reflected"):
            X[..., d - 1, :] *= -1.0
        elif kind == "nan":
            X[..., :d, :d] = np.nan
        elif kind == "inf_position":
            X[..., 0, -1] = np.inf
        else:
            X[..., -d:] = np.nan
        return X
    return corrupt


_MEAN_ONLY = ("scaled", "reflected", "nan")  # the other kinds hit every state


@pytest.mark.parametrize("name,d,kind", [
    (name, d, kind)
    for name, d in (("attitude3d", 3), ("inertial_nav", 3), ("localization2d", 2))
    for kind in _MEAN_ONLY
] + [("attitude3d", 3, "reflected_all"), ("linear", 2, "nan_tail"),
     ("imu_gnss", 6, "nan_tail"), ("inertial_nav", 3, "inf_position")])
def test_filter_run_rejects_bad_state_from_f_at_its_step(name, d, kind):
    """A user f whose new mean at step 7 is not a rotation fails that step
    with NotARotation; d = 2 goes through log_so2.  inverse(mean) checks the
    mean itself, so NaN and an f that reflects every state of the step
    alike (its relative products stay rotations) fail there.  NaN in a
    Euclidean block, or inf in a position column, fails as NonFiniteState."""
    if name == "linear":
        model = dataclasses.replace(linear_model(
            np.eye(2), 0.01 * np.eye(2), np.eye(2), 0.1 * np.eye(2),
            np.zeros(2), np.eye(2)), measure_every=2)
    else:
        model = make(name, measure_every=2)
    _, inputs, meas = simulate(model, 10, 3)
    inputs = list(inputs)  # one object per row, for the identity test in f
    corrupt = _corrupt(kind, d)
    mean = filter_run(model, inputs[:6], meas)[-1].mean  # entering step 7

    def f(state, omega, w):
        out = model.f(state, omega, w)
        if omega is not inputs[6]:
            return out
        if kind not in _MEAN_ONLY:
            return corrupt(out)
        # the zero-noise image of the mean, inside the one stacked call, is
        # the new mean
        hit = np.all(state == mean, axis=(-2, -1)) & ~np.any(w, axis=-1)
        out = np.array(out)
        out[hit] = corrupt(out[hit])
        return out

    with pytest.raises(FilterStepError) as exc_info:
        filter_run(dataclasses.replace(model, f=f), inputs, meas)
    assert exc_info.value.step == 7
    assert isinstance(exc_info.value.cause, NonFiniteState
                      if kind in ("nan_tail", "inf_position") else NotARotation)


def test_filter_run_wraps_linalg_error():
    model = make("attitude3d")

    def f(state, omega, w):
        if np.isnan(omega).any():
            raise np.linalg.LinAlgError("singular matrix inside f")
        return model.f(state, omega, w)

    inputs = list(model.inputs(5))
    inputs[2] = np.full(3, np.nan)  # drives step 3
    with pytest.raises(FilterStepError) as exc_info:
        filter_run(dataclasses.replace(model, f=f), inputs)
    assert exc_info.value.step == 3
    assert isinstance(exc_info.value.cause, np.linalg.LinAlgError)


@pytest.mark.parametrize("length", [1, 3])
def test_filter_run_reports_wrong_length_measurement(length):
    model = make("localization2d")  # R is 2 x 2
    inputs = model.inputs(5)
    meas = {2: np.zeros(2), 4: np.zeros(length)}
    with pytest.raises(FilterStepError) as exc_info:
        filter_run(model, inputs, meas)
    assert exc_info.value.step == 4
    assert isinstance(exc_info.value.cause, DimensionMismatch)


@pytest.mark.parametrize("name", example_names())
def test_filter_run_reports_an_input_of_the_wrong_width(name):
    model = make(name)
    with pytest.raises(FilterStepError) as exc_info:
        filter_run(model, model.inputs(3)[:, :-1])
    assert exc_info.value.step == 1
    assert isinstance(exc_info.value.cause, DimensionMismatch)


def test_update_intermediate_quantities_match_formulas():
    # fixed instance: recompute the gain by hand from the same moments
    H = np.array([[2.0, 0.0], [0.0, 0.5]])
    P = np.diag([1.0, 4.0])
    R = 0.5 * np.eye(2)
    x = np.zeros(2)
    y = np.array([1.0, -2.0])
    out = update(Belief(x, P), y, lambda s: s @ H.T, R, additive_retraction(2), 1.0)
    S = H @ P @ H.T + R          # exact for linear h under the UT
    K = P @ H.T @ np.linalg.inv(S)
    assert np.abs(out.mean - K @ y).max() < 1e-10
    assert np.abs(out.cov - (P - K @ S @ K.T)).max() < 1e-10
