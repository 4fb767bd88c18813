"""The public surface is what the README documents or the package uses: an
export that only the tests call would fail here.  Every count, seed or
dimension passes one integer rule and every spread, step or scale one
number rule, so each boundary refuses the same bad values with its own
error class; every covariance passes one covariance rule, written once."""

import ast
import math
import re
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import manifold_ukf as mu
from manifold_ukf.errors import DimensionMismatch, InvalidAlpha, NonPSDCovariance
from manifold_ukf.models import augment_landmark, make
from manifold_ukf.montecarlo import benchmark, simulate
from manifold_ukf.retraction import (
    Retraction,
    check_retraction,
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
        return update(belief, np.zeros(len(m.R)), m.h, given.get("R", m.R), m.retraction(),
                      m.alpha)
    return propagate(belief, m.inputs(1)[0], m.f, given.get("Q", m.Q), m.retraction(),
                     m.alpha)


def _augment(obs_cov):
    m = make("slam2d")
    return augment_landmark(Belief(m.initial_mean, m.initial_cov), (1.0, 0.0),
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


def _covariance_checks(tree):
    """The functions of a module that raise a covariance's shape or finite
    fault: DimensionMismatch or NonPSDCovariance with a message holding
    "must be square" or "holds NaN or inf"."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id in ("DimensionMismatch", "NonPSDCovariance")):
                continue
            text = "".join(c.value for arg in exc.args for c in ast.walk(arg)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if "must be square" in text or "holds NaN or inf" in text:
                yield func.name
                break


def test_the_covariance_rule_is_written_once():
    """No boundary keeps its own copy of the covariance square or finite
    check: exactly one function in src/ raises either fault."""
    found = {(path.name, name) for path in (ROOT / "src" / "manifold_ukf").glob("*.py")
             for name in _covariance_checks(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("lie_groups.py", "_square_finite")}
