"""The public surface is what the README documents or the package uses: an
export that only the tests call would fail here.  Every count, seed or
dimension passes one integer rule and every spread, step or scale one
number rule, so each boundary refuses the same bad values with its own
error class; every covariance passes one covariance rule, every array's
shape one shape rule and every NaN or inf test one finiteness rule, each
written once."""

import ast
import math
import re
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import manifold_ukf as mu
from manifold_ukf import lie_groups as lie
from manifold_ukf.errors import (
    DimensionMismatch,
    InvalidAlpha,
    NonFiniteState,
    NonPSDCovariance,
    SingularInnovationCovariance,
)
from manifold_ukf.models import LandmarkSet, augment_landmark, example_names, make
from manifold_ukf.montecarlo import benchmark, simulate
from manifold_ukf.retraction import (
    Retraction,
    additive_retraction,
    check_retraction,
    componentwise_so3_r6,
    covariance_retrieval,
    group_retraction,
    mixed_retraction,
)
from manifold_ukf.sigma_core import Belief, propagate, set_weights, sigma_points, update

ROOT = Path(__file__).resolve().parents[1]


def _identifiers_used_in_src():
    """Every name, attribute, imported name and imported module that src/
    refers to outside __init__.py; a def or class statement names what it
    defines without referring to it."""
    used = set()
    for path in (ROOT / "src" / "manifold_ukf").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                used.add(node.module)
    return used


def test_every_export_is_documented_or_used_in_src():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = _identifiers_used_in_src()
    orphans = [name for name in mu.__all__ if name not in used
               and not re.search(rf"`[^`\n]*\b{name}\b[^`\n]*`", readme)]
    assert orphans == []


def test_every_export_is_a_submodule_or_defined_in_the_package():
    """__all__ is computed from the names __init__.py binds, so an import of
    a foreign module or name there would become an export; this fails on it."""
    def home(obj):
        if isinstance(obj, types.ModuleType):
            return obj.__name__
        return getattr(obj, "__module__", "")

    foreign = [name for name in mu.__all__
               if not home(getattr(mu, name)).startswith("manifold_ukf.")]
    assert foreign == []


def test_readme_python_blocks_run():
    """The README's python blocks, run in order in one namespace: the quick
    start, the broadcast contract's f and h, and landmark augmentation, for
    which a slam2d model, its initial belief, a landmark observation and its
    covariance are bound first."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        if "augment_landmark(" in block:
            model = mu.make("slam2d")
            namespace.update(model=model, y_body=np.array([1.0, -0.5]),
                             belief=mu.Belief(model.initial_mean, model.initial_cov),
                             obs_cov=0.01 * np.eye(2))
        exec(compile(block, "README.md", "exec"), namespace)
    model = namespace["model"]
    assert namespace["belief"].dim == model.initial_cov.shape[0] + 2
    assert namespace["h"](np.ones((4, 2))).shape == (4, 1)


def _propagate(alpha):
    m = make("attitude3d")
    return propagate(Belief(m.initial_mean, m.initial_cov), m.inputs(1)[0], m.f, m.Q,
                     m.retraction(), alpha)


# integer rule: the argument's name, its least value, a value it takes and
# the call with `v` in its place
INT_RULE = {
    "set_weights-n": ("dimension", 1, 3, lambda v: set_weights(v, 0.5)),
    "simulate-steps": ("steps", 1, 2, lambda v: simulate(make("attitude3d"), v, 0)),
    "simulate-seed": ("seed", 0, 1, lambda v: simulate(make("attitude3d"), 2, v)),
    "benchmark-runs": ("runs", 1, 1, lambda v: benchmark(
        make("attitude3d"), ["so3_left"], runs=v, seed=0, steps=2)),
    "benchmark-seed": ("seed", 0, 1, lambda v: benchmark(
        make("attitude3d"), ["so3_left"], runs=1, seed=v, steps=2)),
    "ModelSpec-measure_every": ("measure_every", 1, 2, lambda v: replace(
        make("attitude3d"), measure_every=v)),
    "Retraction-dim": ("dim", 1, 3, lambda v: Retraction("r", v, None, None)),
    "Retraction-moved": ("moved", 1, 3, lambda v: replace(  # blocks 1, 2, 4
        mixed_retraction(2, 1, 4, "right", "landmarks"), moved=v)),
    "group_retraction-d": ("d", 2, 3, lambda v: group_retraction(v, 1)),
    "group_retraction-k": ("k", 0, 1, lambda v: group_retraction(3, v)),
}

# number rule: the argument's name, its error class and the call
NUMBER_RULE = {
    "set_weights-alpha": ("alpha", InvalidAlpha, lambda v: set_weights(3, v)),
    "propagate-alpha": ("alpha", InvalidAlpha, _propagate),
    "ModelSpec-alpha": ("alpha", InvalidAlpha, lambda v: replace(
        make("attitude3d"), alpha=v)),
    "ModelSpec-dt": ("dt", ValueError, lambda v: replace(make("attitude3d"), dt=v)),
    "check_retraction-epsilons": ("epsilons", ValueError, lambda v: check_retraction(
        group_retraction(3, 0), np.eye(3), (v,))),
}

NOT_NUMBERS = [True, np.True_, "0.5", b"0.5", None, math.nan, math.inf,
               np.array([0.5, 0.5]), np.array("0.5"), np.array(b"0.5"),
               np.complex128(0.5 + 1j)]


def _refused():
    """(name, error class, call, value) for each boundary and bad value:
    the integer rule also refuses 2.5 and every int below its bound."""
    for name, (what, low, _, call) in INT_RULE.items():
        for v in NOT_NUMBERS + [2.5, *range(-1, low)]:
            if not (name == "Retraction-moved" and v is None):  # None: all move
                yield pytest.param(what, ValueError, call, v, id=f"{name}-{v!r}")
    for name, (what, error, call) in NUMBER_RULE.items():
        for v in NOT_NUMBERS + [0, -1]:
            yield pytest.param(what, error, call, v, id=f"{name}-{v!r}")


@pytest.mark.parametrize("what, error, call, value", _refused())
def test_every_boundary_refuses_what_its_rule_refuses(what, error, call, value):
    """A bool, a str or bytes (numpy's 0-d ones included), a complex value,
    None, NaN, inf, an array or a value below the bound is refused with the
    boundary's error class, naming the argument, and is not taken as 1,
    truncated, parsed or passed on to numpy."""
    with pytest.raises(error, match=f"{what} must"):
        call(value)


@pytest.mark.parametrize("name", [*INT_RULE, *NUMBER_RULE])
def test_every_boundary_takes_numpy_scalars_and_0d_arrays(name):
    if name in INT_RULE:
        _, _, good, call = INT_RULE[name]
        values = (np.int64(good), np.array(good))
    else:
        call = NUMBER_RULE[name][2]
        values = (np.float64(0.5), np.float32(0.5), np.array(0.5))
    for value in values:
        call(value)


@pytest.mark.parametrize("what, call", [
    ("epsilons", lambda: check_retraction(group_retraction(3, 0), np.eye(3), None)),
    ("seed", lambda: simulate(make("attitude3d"), 2, [1, [2, 3]])),
], ids=["check_retraction-epsilons-None", "simulate-seed-ragged"])
def test_a_malformed_container_is_refused_naming_it(what, call):
    """Not a raw TypeError from iterating None, nor numpy's ValueError from
    the shape of a ragged list."""
    with pytest.raises(ValueError, match=f"^{what} must be .* sequence of"):
        call()


def test_each_seed_of_a_sequence_passes_the_integer_rule():
    """A sequence of seeds is checked seed by seed; an int array is one."""
    m = make("attitude3d")
    for seeds in ([1.5, 2], [1, True], [0, -1], ["1", 2]):
        with pytest.raises(ValueError, match="seed must"):
            simulate(m, 2, seeds)
    ref = simulate(m, 2, [1, 2])
    assert np.array_equal(simulate(m, 2, np.array([1, 2]))[0], ref[0])


def test_group_retraction_checks_its_rotation_block_when_built():
    with pytest.raises(DimensionMismatch, match="must be 2 or 3"):
        group_retraction(4, 0)


def _step(kind, P=None, **given):
    """propagate or update on attitude3d, with the model's arguments and
    initial belief except a given P, Q or R."""
    m = make("attitude3d")
    belief = Belief(m.initial_mean, m.initial_cov if P is None else P)
    if kind == "update":
        return update(belief, given.get("y", np.zeros(len(m.R))), given.get("h", m.h),
                      given.get("R", m.R), m.retraction(), m.alpha)
    return propagate(belief, m.inputs(1)[0], m.f, given.get("Q", m.Q), m.retraction(),
                     m.alpha)


def _augment(obs_cov=np.eye(2), y_new=(1.0, 0.0)):
    m = make("slam2d")
    return augment_landmark(Belief(m.initial_mean, m.initial_cov), y_new,
                            m.retraction(), obs_cov)


# covariance rule: the name each boundary gives the covariance and the call
# with `v` in its place
COVARIANCE_RULE = {
    "ModelSpec-Q": ("attitude3d Q", lambda v: replace(make("attitude3d"), Q=v)),
    "ModelSpec-R": ("attitude3d R", lambda v: replace(make("attitude3d"), R=v)),
    "ModelSpec-initial_cov": ("attitude3d initial_cov",
                              lambda v: replace(make("attitude3d"), initial_cov=v)),
    "propagate-Q": ("Q", lambda v: _step("propagate", Q=v)),
    "propagate-P": ("P", lambda v: _step("propagate", P=v)),
    "update-R": ("R", lambda v: _step("update", R=v)),
    "update-P": ("P", lambda v: _step("update", P=v)),
    "sigma_points-P": ("P", lambda v: sigma_points(v, 0.0)),
    "augment_landmark-obs_cov": ("obs_cov", _augment),
    "covariance_retrieval-P": ("P", lambda v: covariance_retrieval(
        np.eye(3), np.array([0.0, 0.0, 1.0]), v)),
}

BAD_COVARIANCES = {
    "not-numeric": (np.array([["a", "b"], ["c", "d"]]), DimensionMismatch, "is not a numeric"),
    "not-square": (np.ones((2, 3)), DimensionMismatch, "must be square"),
    "nan": (np.diag([1.0, np.nan]), NonPSDCovariance, "holds NaN or inf$"),
    "inf": (np.diag([np.inf, 1.0]), NonPSDCovariance, "holds NaN or inf$"),
}


@pytest.mark.parametrize("fault", BAD_COVARIANCES)
@pytest.mark.parametrize("name", COVARIANCE_RULE)
def test_every_covariance_boundary_refuses_what_the_rule_refuses(name, fault):
    """One fault, one class, at every boundary: a covariance that is not
    numeric or not square is a DimensionMismatch and one that holds NaN or
    inf a NonPSDCovariance, each naming the covariance as its boundary
    does."""
    what, call = COVARIANCE_RULE[name]
    value, error, message = BAD_COVARIANCES[fault]
    with pytest.raises(error, match=f"^{what} {message}") as info:
        call(value)
    assert type(info.value) is error


def _pose(v):
    """The SE(2) identity with v in its position column."""
    X = np.eye(3)
    X[0, 2] = v
    return X


# finiteness rule: the name each boundary gives the array, its error class
# and the call with a NaN or inf `v` in one entry; the covariance boundaries
# are COVARIANCE_RULE's
FINITE_RULE = {
    "log_sek-X": ("a translation column", NonFiniteState, lambda v: lie.log_sek(_pose(v), 2)),
    "inverse-X": ("a translation column", NonFiniteState, lambda v: lie.inverse(_pose(v), 2)),
    "group-phi_inv-ref": ("a translation column", NonFiniteState, lambda v: group_retraction(
        2, 1).phi_inv(_pose(v), np.eye(3))),
    "group-phi_inv-state": ("a translation column", NonFiniteState, lambda v: group_retraction(
        2, 1).phi_inv(np.eye(3), _pose(v))),
    "additive-phi_inv-ref": ("a Euclidean state or ref", NonFiniteState,
                             lambda v: additive_retraction(2).phi_inv([v, 0.0], np.zeros(2))),
    "additive-phi_inv-state": ("a Euclidean state or ref", NonFiniteState,
                               lambda v: additive_retraction(2).phi_inv(np.zeros(2), [v, 0.0])),
    "update-h": ("innovation covariance", SingularInnovationCovariance,
                 lambda v: _step("update", h=lambda states: v)),
    "update-y": ("measurement y", NonFiniteState, lambda v: _step("update", y=[v] + [0.0] * 5)),
    "LandmarkSet": ("landmarks", NonFiniteState, lambda v: LandmarkSet([[v, 0.0]])),
    "augment_landmark-y_new": ("y_new", NonFiniteState, lambda v: _augment(y_new=(v, 0.0))),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FINITE_RULE)
def test_every_finiteness_boundary_refuses_nan_and_inf(name, value):
    """One wording, "{what} holds NaN or inf", with the class each boundary
    has always raised; for h's output no numpy warning first (0 * inf in the
    weighted mean at alpha = 1)."""
    what, error, call = FINITE_RULE[name]
    with pytest.raises(error, match=f"^{what} holds NaN or inf$") as info:
        call(value)
    assert type(info.value) is error


def test_an_h_output_that_overflows_is_a_non_finite_innovation_covariance():
    """Finite outputs whose squares overflow: not numpy's overflow warning."""
    with pytest.raises(SingularInnovationCovariance,
                       match="^innovation covariance holds NaN or inf$"):
        _step("update", h=lambda states: 1e200 * states.reshape(states.shape[:-2] + (9,))[
            ..., :6])


def _raising(errors, *phrases):
    """(module, function) for each function of src/, Class.function for a
    method, that raises one of `errors` with a message whose literal text
    holds one of `phrases`; a raise of a parameter (a rule's `error`) may be
    any of them."""
    for path in (ROOT / "src" / "manifold_ukf").glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                if not isinstance(func, ast.FunctionDef):
                    continue
                params = {arg.arg for arg in func.args.args}
                for node in ast.walk(func):
                    exc = node.exc if isinstance(node, ast.Raise) else None
                    if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                            and exc.func.id in {*errors, *params}):
                        continue
                    text = "".join(c.value for arg in exc.args for c in ast.walk(arg)
                                   if isinstance(c, ast.Constant) and isinstance(c.value, str))
                    if any(phrase in text for phrase in phrases):
                        yield path.name, (f"{top.name}.{func.name}" if func is not top
                                          else func.name)
                        break


def test_the_covariance_rule_is_written_once():
    """No boundary keeps its own copy of the covariance square check: exactly
    one function in src/ raises its fault (the finite check is _finite's)."""
    found = set(_raising(("DimensionMismatch", "NonPSDCovariance"), "must be square"))
    assert found == {("lie_groups.py", "_square_finite")}


def test_the_finiteness_rule_is_written_once():
    """Exactly one function in src/ raises a NaN or inf fault, with the
    class its caller names ("finite" alone would match "positive definite");
    the command line's reader, which names a file's line, raises UsageError."""
    assert set(_raising(("NonFiniteState", "NonPSDCovariance", "SingularInnovationCovariance",
                         "DimensionMismatch"), "NaN or inf", "not finite", "be finite")) == {
        ("lie_groups.py", "_finite")}


def test_the_square_state_rule_is_written_once():
    """Group states are squared by lie_groups._square alone, and no entry
    keeps a hand-written "expected (..., d, d)" shape test."""
    assert set(_raising(("DimensionMismatch",), "square matrices")) == {
        ("lie_groups.py", "_square")}
    assert not set(_raising(("DimensionMismatch",), "expected ("))


def test_the_shape_rule_is_written_once():
    """No boundary keeps its own copy of a shape check worded "{what} must
    be (...)": besides the rule, only _measured, which relates R to y, and
    LandmarkSet's rank check raise one."""
    assert set(_raising(("DimensionMismatch",), "must be (")) == {
        ("lie_groups.py", "_shaped"), ("sigma_core.py", "_measured"),
        ("models.py", "LandmarkSet.__post_init__")}


def _f(name, omega=None, w=None):
    """The example's f on its initial mean, with its first input and zero
    noise unless given."""
    m = make(name)
    return m.f(m.initial_mean, m.inputs(1)[0] if omega is None else omega,
               np.zeros(len(m.Q)) if w is None else w)


# shape rule: the name each boundary gives the argument, the shape it asks
# for and the call with `v` in its place
SHAPE_RULE = {
    **{f"{fn.__name__}-omega": ("omega", (..., 3), fn) for fn in (
        lie.wedge_so3, lie.exp_so3, lie.left_jacobian_so3, lie.inv_left_jacobian_so3)},
    "exp_sek-xi": ("xi", (..., 6), lambda v: lie.exp_sek(v, 3, 1)),
    "group-phi-xi": ("xi", (..., 3), lambda v: group_retraction(2, 1).phi(np.eye(3), v)),
    "additive-phi-xi": ("xi", (..., 3), lambda v: additive_retraction(3).phi(np.ones(3), v)),
    "additive-phi_inv-state": ("state", (..., 3), lambda v: additive_retraction(3).phi_inv(
        np.ones(3), v)),
    **{f"{name}.f-{what}": (what, (..., width), lambda v, name=name, what=what: _f(
        name, **{what: v})) for name in example_names()
       for what, width in (("omega", make(name).inputs(1).shape[1]),
                           ("w", len(make(name).Q)))},
    "augment_landmark-y_new": ("y_new", (2,), lambda v: _augment(y_new=v)),
    "augment_landmark-obs_cov": ("obs_cov", (2, 2), _augment),
    "covariance_retrieval-R_hat": ("R_hat", (3, 3), lambda v: covariance_retrieval(
        v, np.ones(3), np.eye(3))),
    "covariance_retrieval-L": ("L", (3,), lambda v: covariance_retrieval(
        np.eye(3), v, np.eye(3))),
    "covariance_retrieval-P": ("P", (3, 3), lambda v: covariance_retrieval(
        np.eye(3), np.ones(3), v)),
    "log_so3-C": ("C", (..., 3, 3), lie.log_so3),
    "log_so2-C": ("C", (..., 2, 2), lie.log_so2),
    "so3xr6-split": ("extended poses", (..., 5, 5), lambda v: componentwise_so3_r6().phi(
        v, np.zeros(9))),
    **{f"{name}-landmarks": (f"{name} landmarks", (..., width), lambda v, name=name: make(
        name, landmarks=LandmarkSet(v))) for name, width in (("inertial_nav", 3),
                                                            ("slam2d", 2))},
}


def _misshapen():
    """(name, value) for each boundary and each shape it refuses: one entry
    too many on each axis it fixes (in a stack of two for a (..., n) shape),
    a 0-d value (not for landmarks: LandmarkSet refuses it first) and,
    where the shape is fixed, an extra leading axis."""
    for name, (_, shape, _) in SHAPE_RULE.items():
        wider = tuple(2 if n is ... else n + 1 for n in shape)
        yield pytest.param(name, np.zeros(wider), id=f"{name}-width")
        if not name.endswith("landmarks"):
            yield pytest.param(name, np.float64(0.0), id=f"{name}-0d")
        if shape[0] is not ...:
            yield pytest.param(name, np.zeros((1,) + shape), id=f"{name}-extra-axis")


@pytest.mark.parametrize("name, value", _misshapen())
def test_every_shape_boundary_names_an_argument_of_the_wrong_shape(name, value):
    """One fault, one class and one wording, "{what} must be (...)", at
    every boundary whose argument has a shape of its own."""
    what, _, call = SHAPE_RULE[name]
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(what)} must be") as info:
        call(value)
    assert type(info.value) is DimensionMismatch


def test_the_shape_rule_words_what_it_asks_for():
    assert lie._shaped([1, 2], "v", (2,)).dtype == float
    for shape, value, message in [
            ((..., 3), np.zeros((2, 4)), "v must be (..., 3), got shape (2, 4)"),
            ((..., 3, 3), np.zeros(3), "v must be (..., 3, 3), got shape (3,)"),
            ((2,), np.zeros((1, 2)), "v must be (2,), got shape (1, 2)"),
            ((), np.zeros(1), "v must be (), got shape (1,)")]:
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            lie._shaped(value, "v", shape)
