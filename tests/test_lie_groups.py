"""Group primitive tests.

Expected values marked as derived were computed with the truncated
power-series exponential in oracles.py and frozen here as literals.
"""

import ast
import math
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_ukf import lie_groups as lie
from manifold_ukf.errors import (
    DimensionMismatch,
    MalformedEmbedding,
    NearPiRotation,
    NonFiniteState,
    NotARotation,
)

from manifold_ukf.models import augment_landmark, example_names, make
from manifold_ukf.retraction import (
    componentwise_so3_r6,
    covariance_retrieval,
    group_retraction,
    mixed_retraction,
    mixed_state,
)
from manifold_ukf.sigma_core import Belief, propagate, sigma_points, update

from oracles import (
    matrix_exp_series,
    small_angle_two_branch,
    so2_coeffs_two_branch,
    wedge_sek,
    wedge_so2,
)

RNG = np.random.Generator(np.random.Philox(key=20240915))


def random_rotvec(rng, max_norm):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, max_norm)


# ---------------------------------------------------------------------------
# wedge / vee


def test_wedge_so3_reference_matrix():
    W = lie.wedge_so3(np.array([1.0, 2.0, 3.0]))
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(W, expected)


def test_wedge_so3_zero():
    assert np.array_equal(lie.wedge_so3(np.zeros(3)), np.zeros((3, 3)))


def test_wedge_matches_cross_product():
    for _ in range(20):
        w = RNG.standard_normal(3)
        v = RNG.standard_normal(3)
        assert np.allclose(lie.wedge_so3(w) @ v, np.cross(w, v), atol=1e-14)


def test_wedge_so3_shape_check():
    with pytest.raises(DimensionMismatch):
        lie.wedge_so3(np.zeros(2))


# ---------------------------------------------------------------------------
# exp / log on SO(3)


def test_exp_so3_zero_is_identity():
    assert np.array_equal(lie.exp_so3(np.zeros(3)), np.eye(3))


def test_exp_so3_quarter_turn():
    # frozen from the 30-term series oracle
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    got = lie.exp_so3(np.array([math.pi / 2, 0.0, 0.0]))
    assert np.abs(got - expected).max() < 1e-15
    oracle = matrix_exp_series(lie.wedge_so3(np.array([math.pi / 2, 0.0, 0.0])))
    assert np.abs(got - oracle).max() < 1e-12


def test_exp_so3_matches_series():
    for _ in range(50):
        w = random_rotvec(RNG, 3.0)
        oracle = matrix_exp_series(lie.wedge_so3(w))
        assert np.abs(lie.exp_so3(w) - oracle).max() < 1e-10


def test_exp_so3_preserves_norm():
    for _ in range(20):
        w = RNG.standard_normal(3)
        v = RNG.standard_normal(3)
        assert abs(np.linalg.norm(lie.exp_so3(w) @ v) - np.linalg.norm(v)) < 1e-12


def test_exp_so3_rotation_invariants_up_to_norm_10():
    for _ in range(200):
        w = random_rotvec(RNG, 10.0)
        C = lie.exp_so3(w)
        assert np.abs(C.T @ C - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(C) - 1.0) < 1e-12


def test_log_so3_identity():
    assert np.array_equal(lie.log_so3(np.eye(3)), np.zeros(3))


def test_log_so3_quarter_turn():
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.abs(lie.log_so3(C) - np.array([math.pi / 2, 0.0, 0.0])).max() < 1e-12


def test_log_exp_roundtrip_1000():
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(1000):
        w = random_rotvec(rng, 3.0)
        assert np.abs(lie.log_so3(lie.exp_so3(w)) - w).max() < 1e-9


def test_log_so3_small_angles():
    for scale in (1e-5, 1e-7, 1e-10, 1e-13):
        w = np.array([scale, -0.5 * scale, 0.25 * scale])
        back = lie.log_so3(lie.exp_so3(w))
        assert np.abs(back - w).max() < 1e-15 + 1e-6 * scale


def test_log_so3_near_pi_error():
    with pytest.raises(NearPiRotation):
        lie.log_so3(lie.exp_so3(np.array([math.pi - 1e-7, 0.0, 0.0])))
    # just inside the guard band still works
    w = np.array([math.pi - 1e-3, 0.0, 0.0])
    assert np.abs(lie.log_so3(lie.exp_so3(w)) - w).max() < 1e-9


def test_log_so3_accurate_near_pi():
    # theta / sin(theta) would lose digits here; the axis comes from the
    # symmetric part instead
    rng = np.random.Generator(np.random.Philox(key=31))
    for gap in (1e-4, 1e-5, 2e-6):
        for _ in range(20):
            u = rng.standard_normal(3)
            w = (math.pi - gap) * u / np.linalg.norm(u)
            assert np.abs(lie.log_so3(lie.exp_so3(w)) - w).max() < 1e-13
            xi = np.concatenate([w, rng.standard_normal(6)])  # SE_2(3)
            assert np.abs(lie.log_sek(lie.exp_sek(xi, 3, 2), 3) - xi).max() < 1e-13


def test_log_so3_rejects_non_rotation():
    with pytest.raises(NotARotation):
        lie.log_so3(1.1 * np.eye(3))
    with pytest.raises(NotARotation):
        lie.log_so3(np.diag([1.0, 1.0, -1.0]))  # det = -1
    with pytest.raises(DimensionMismatch):
        lie.log_so3(np.eye(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_are_not_rotations(bad):
    """NaN compares false against any tolerance, so the checks must not pass
    it; one bad entry in one element of a stack fails the call.  In a
    translation column of SE_k(d) it raises NonFiniteState, before inverse
    or log_sek multiply it by anything."""
    X = lie.exp_sek(np.array([0.3, -0.2, 0.1, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 3, 2)
    for log, C, d in ((lie.log_so3, lie.exp_so3(np.array([0.1, 0.2, 0.3])), 3),
                      (lie.log_so2, lie.exp_so2(0.4), 2),
                      (lambda M: lie.log_sek(M, 3), X, 3),
                      (lambda M: lie.log_sek(M, 2), lie.exp_sek(np.ones(3), 2, 1), 2)):
        whole = C.copy()
        whole[:d, :d] = bad  # the rotation block; the bottom rows stay [0 I]
        with pytest.raises(NotARotation):
            log(whole)
        stack = np.array([C, C, C])
        stack[1, 0, 1] = bad
        with pytest.raises(NotARotation):
            log(stack)
    for d, C in ((3, X), (2, lie.exp_sek(np.ones(3), 2, 1))):
        stack = np.array([C, C, C])
        stack[1, 0, -1] = bad
        for fn in (lie.log_sek, lie.inverse):
            with pytest.raises(NonFiniteState):
                fn(stack, d)


@pytest.mark.parametrize("d, k", [(3, 0), (3, 2), (2, 1)])
def test_inf_in_a_rotation_block_raises_no_warning_first(d, k):
    """inf meets the zeros of an identity block in C^T C, where numpy would
    warn (an error under the test settings) before the check could raise."""
    X = np.eye(d + k)
    X[0, 0] = np.inf
    with pytest.raises(NotARotation):
        lie.inverse(X, d)
    with pytest.raises(NotARotation):
        lie.log_sek(np.stack([np.eye(d + k), X, np.eye(d + k)]), d)


def test_reflections_are_not_rotations_in_2d_and_3d():
    """The determinant check on a stack with one reflection (det -1, columns
    still orthonormal), for both rotation sizes."""
    for log, C in ((lie.log_so3, lie.exp_so3(np.array([0.1, 0.2, 0.3]))),
                   (lie.log_so2, lie.exp_so2(0.4))):
        stack = np.array([C, C, C])
        stack[2, -1] *= -1.0
        with pytest.raises(NotARotation, match="determinant"):
            log(stack)
        log(stack[:2])


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_rotation_check_decisions_on_a_stack(layout):
    """The rotation check forms C^T C and the determinant from a contiguous
    copy of C^T; its decisions on one element of a stack, for an (N, 3, 3)
    stack and for the strided rotation blocks of an (N, 5, 5) stack.  A
    column scaled by 1 + 2e-9 moves C^T C by 4e-9 and fails, one scaled by
    1 + 2e-10 by 4e-10 and passes; 1 + 5e-10 would sit on the 1e-9 bound."""
    xi = 0.5 * np.random.Generator(np.random.Philox(key=36)).standard_normal((6, 9))
    X = lie.exp_sek(xi, 3, 2)

    def check(edit):
        stack = (X[:, :3, :3] if layout == "contiguous" else X).copy()
        edit(stack[4, :3, :3])  # element 4's rotation block, in place
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the verdict
            return lie.log_so3(stack) if layout == "contiguous" else lie.log_sek(stack, 3)

    def entry(i, j, value):
        def edit(C):
            C[i, j] = value
        return edit

    def scaled(j, factor):
        def edit(C):
            C[:, j] *= factor
        return edit

    for j in range(3):
        check(scaled(j, 1.0 + 2e-10))
        for edit in (entry(0, j, 1e200), entry(2, j, -1e200), entry(1, j, np.nan),
                     scaled(j, 1.0 + 2e-9), scaled(j, 1.0 - 2e-9),
                     scaled(j, -1.0)):  # a reflection: orthonormal, det -1
            with pytest.raises(NotARotation):
                check(edit)


def test_exp_log_so2():
    assert np.array_equal(lie.exp_so2(0.0), np.eye(2))
    th = 0.8
    C = lie.exp_so2(th)
    assert np.abs(C - matrix_exp_series(wedge_so2(th))).max() < 1e-12
    assert abs(lie.log_so2(C) - th) < 1e-12
    with pytest.raises(NearPiRotation):
        lie.log_so2(lie.exp_so2(math.pi - 1e-8))
    with pytest.raises(NotARotation):
        lie.log_so2(2.0 * np.eye(2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3))
def test_roundtrip_property_so3(coords):
    w = np.array(coords)
    n = np.linalg.norm(w)
    if n > math.pi - 0.01:  # stay on the injectivity domain
        w = w / n * (math.pi - 0.01)
    assert np.abs(lie.log_so3(lie.exp_so3(w)) - w).max() <= 1e-9


# ---------------------------------------------------------------------------
# Left Jacobians


def jacobian_series(W, terms=30):
    # sum_{i>=0} W^i / (i+1)!
    out = np.eye(W.shape[0])
    term = np.eye(W.shape[0])
    fact = 1.0
    for i in range(1, terms + 1):
        term = term @ W
        fact *= i + 1
        out = out + term / fact
    return out


def test_left_jacobian_so3_matches_series():
    for _ in range(50):
        w = random_rotvec(RNG, 3.0)
        J = lie.left_jacobian_so3(w)
        assert np.abs(J - jacobian_series(lie.wedge_so3(w))).max() < 1e-10
        assert np.abs(lie.inv_left_jacobian_so3(w) @ J - np.eye(3)).max() < 1e-10


def test_left_jacobian_so3_small_angle():
    w = np.array([1e-6, -2e-6, 5e-7])
    assert np.abs(lie.left_jacobian_so3(w) - jacobian_series(lie.wedge_so3(w))).max() < 1e-14
    assert np.array_equal(lie.left_jacobian_so3(np.zeros(3)), np.eye(3))


def test_left_jacobian_so2_matches_series():
    for th in (0.0, 1e-7, 1e-3, 0.5, 2.0, -1.3):
        J = lie.left_jacobian_so2(th)
        assert np.abs(J - jacobian_series(wedge_so2(th))).max() < 1e-12


# Rotation parts of every kind the small-angle rule meets: exact zeros of
# either sign (the Cholesky zeros of sigma points and their negations), a
# tiny angle, one just under the cutoff, and ordinary angles.
_SIGNED_ZEROS_3 = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]]
_SIGNED_ZEROS_2 = [[0.0], [-0.0]]
_TINY_3, _TINY_2 = [[1e-12, 0.0, -0.0], [0.0, 9.9e-5, 0.0]], [[1e-12], [-9.9e-5]]
_ORDINARY_3, _ORDINARY_2 = [[0.3, -0.2, 0.5], [-1.1, 0.4, 0.2]], [[0.7], [-2.1], [7.0], [-4.0]]


def _rotation_stacks(d):
    """Stacks of rotation parts: exact zeros beside ordinary angles (every
    small element is +-0.0), the same with tiny angles (the two-branch
    path), exact zeros alone and ordinary angles alone."""
    zeros, tiny, ordinary = ((_SIGNED_ZEROS_3, _TINY_3, _ORDINARY_3) if d == 3
                             else (_SIGNED_ZEROS_2, _TINY_2, _ORDINARY_2))
    return [np.array(rows) for rows in (zeros + ordinary, zeros + tiny + ordinary,
                                        tiny[:1] + zeros, zeros, ordinary)]


def _tangent_stacks(d, k):
    """_rotation_stacks with translation columns, zero ones among them, so
    that a signed zero of a coefficient can reach the output."""
    rng = np.random.Generator(np.random.Philox(key=27 + 10 * d + k))
    out = []
    for rot in _rotation_stacks(d):
        trans = rng.standard_normal((len(rot), k * d))
        trans[::2] = 0.0
        trans[1::4] = -0.0
        out.append(np.concatenate([rot, trans], axis=-1))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _lie_small_angle_cases():
    """(label, function, stack) for every function the small-angle rule
    serves."""
    cases = []
    for stack in _rotation_stacks(3):
        cases += [("exp_so3", lie.exp_so3, stack),
                  ("left_jacobian_so3", lie.left_jacobian_so3, stack),
                  ("inv_left_jacobian_so3", lie.inv_left_jacobian_so3, stack)]
    for stack in _rotation_stacks(2):
        cases.append(("left_jacobian_so2", lie.left_jacobian_so2, stack[:, 0]))
    for d in (2, 3):
        for k in (0, 1, 2):
            for stack in _tangent_stacks(d, k):
                exp = (lambda xi, d=d, k=k: lie.exp_sek(xi, d, k))
                cases.append((f"exp_sek({d},{k})", exp, stack))
                cases.append((f"log_sek({d},{k})",
                              lambda X, d=d: lie.log_sek(X, d), exp(stack)))
    return cases


def test_exact_zero_angles_give_the_two_branch_bits(monkeypatch):
    """Every function of the small-angle rule, on stacks mixing exact +-0.0
    angles with tiny and ordinary ones, returns the bits of the rule that
    always runs the series on the whole stack, with SO(2)'s b as that rule
    gives it (oracles), and each row the bits of its own call; signed zeros
    count."""
    cases = _lie_small_angle_cases()
    got = [fn(stack) for _, fn, stack in cases]
    rows = [[fn(row) for row in stack] for _, fn, stack in cases]
    monkeypatch.setattr(lie, "_small_angle", small_angle_two_branch)
    monkeypatch.setattr(lie, "_so2_coeffs", so2_coeffs_two_branch)
    for (label, fn, stack), out, alone in zip(cases, got, rows):
        assert _same_bits(out, fn(stack)), (label, stack)
        for i, row in enumerate(alone):
            assert _same_bits(out[i], row), (label, stack[i])


def test_exact_zero_angles_keep_the_sign_of_so2s_odd_coefficient():
    """b = (1 - cos t) / t is odd: at t = -0.0 it is -0.0, also when the
    stack's only small angles are exact zeros."""
    J = lie.left_jacobian_so2(np.array([0.0, -0.0, 0.5]))
    assert np.signbit(J[:, 1, 0]).tolist() == [False, True, False]
    assert np.signbit(J[:, 0, 1]).tolist() == [True, False, True]


def test_rotation_check_passes_an_empty_stack():
    lie._require_rotation(np.empty((0, 3, 3)), 3)
    assert lie.log_so3(np.empty((0, 3, 3))).shape == (0, 3)
    assert lie.log_sek(np.empty((0, 5, 5)), 3).shape == (0, 9)


_NEAR_PI_3 = [[math.pi - 1e-7, 0.0, 0.0], [0.0, -3.1, 1e-3], [-0.0, 0.0, 0.0]]
_NEAR_PI_2 = [[math.pi - 1e-9], [-3.14], [-0.0]]


def _exp_core_cases():
    """(label, public, core, stack): _tangent_stacks and stacks with angles
    near pi, each also with a leading run axis of two runs."""
    cases = []
    for d, near_pi in ((2, _NEAR_PI_2), (3, _NEAR_PI_3)):
        for k in (0, 1, 2):
            trans = np.linspace(-1.0, 1.0, len(near_pi) * k * d).reshape(len(near_pi), -1)
            for stack in _tangent_stacks(d, k) + [np.hstack([near_pi, trans])]:
                cases.append((f"exp_sek({d},{k})", lambda xi, d=d, k=k: lie.exp_sek(xi, d, k),
                              lambda xi, d=d, k=k: lie._exp_sek(xi, d, k), stack))
                if k == 0:
                    public = lie.exp_so3 if d == 3 else (lambda xi: lie.exp_so2(xi[..., 0]))
                    cases.append((f"exp_so{d}", public, cases[-1][2], stack))
    for stack in _rotation_stacks(3) + [np.array(_NEAR_PI_3)]:
        cases.append(("_exp_so3", lie.exp_so3, lie._exp_so3, stack))
    return [(label, public, core, runs) for label, public, core, stack in cases
            for runs in (stack, np.stack([stack, -stack[::-1]]))]


@pytest.mark.parametrize("label, public, core, xi", _exp_core_cases())
def test_exp_cores_give_the_bits_of_the_public_functions(label, public, core, xi):
    """The unchecked cores that phi and the built-in dynamics call return
    exp_so3's, exp_so2's and exp_sek's bits, run by run as on the stack."""
    out = core(xi)
    assert _same_bits(out, public(xi)), label
    if xi.ndim == 3:
        for run, alone in zip(out, xi):
            assert _same_bits(run, core(alone)), label


def test_count_nonzero_is_numpys_c_entry():
    """_count_nonzero is private numpy API (numpy._core.multiarray): a numpy
    that moves or changes it fails here by name."""
    assert isinstance(lie._count_nonzero, types.BuiltinFunctionType)
    strided = (RNG.standard_normal((6, 9)) > 0.0)[::2, ::3]
    assert not strided.flags.c_contiguous
    for a in (np.zeros(0, bool), np.zeros((3, 0), bool), np.array(True), np.array(False),
              strided, RNG.standard_normal((13, 4, 3, 3)) > 0.0):
        got = lie._count_nonzero(a)
        assert got == np.count_nonzero(a) and type(got) is type(np.count_nonzero(a))


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_the_declared_numpy_floor_has_numpy_core():
    """numpy 1.x names its core numpy.core, so a src/ module that imports
    numpy._core needs a numpy floor of 2.0 or above in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        deps = [d.strip() for d in tomllib.load(fh)["project"]["dependencies"]]
    floors = [re.fullmatch(r"numpy\s*>=\s*(\d+)(\.\d+)*", d) for d in deps
              if re.match(r"numpy\b", d)]
    assert len(floors) == 1 and floors[0], f"no one numpy>=X.Y floor in {deps}"
    core = sorted(path.name for path in (root / "src" / "manifold_ukf").glob("*.py")
                  if any(m.startswith("numpy._core") for m in _imported_modules(path)))
    assert not core or int(floors[0].group(1)) >= 2, (
        f"{core} import numpy._core, but pyproject.toml declares {floors[0].group(0)}")


# ---------------------------------------------------------------------------
# SE_k(d)


def test_exp_sek_zero_is_identity():
    assert np.array_equal(lie.exp_sek(np.zeros(9), 3, 2), np.eye(5))


def test_exp_sek_pure_translation():
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([0.25, 4.0, -1.0])
    X = lie.exp_sek(np.concatenate([np.zeros(3), a, b]), 3, 2)
    expected = np.eye(5)
    expected[:3, 3] = a
    expected[:3, 4] = b
    assert np.array_equal(X, expected)


def test_exp_sek_matches_series():
    for d, k in ((2, 0), (3, 0), (2, 1), (3, 1), (3, 2)):
        for _ in range(25):
            xi = RNG.standard_normal(lie.tangent_dim(d, k))
            got = lie.exp_sek(xi, d, k)
            oracle = matrix_exp_series(wedge_sek(xi, d, k))
            assert np.abs(got - oracle).max() < 1e-10


def test_log_sek_identity_and_translation():
    assert np.array_equal(lie.log_sek(np.eye(5), 3), np.zeros(9))
    X = np.eye(4)
    X[:2, 2] = [3.0, -1.0]
    X[:2, 3] = [0.5, 2.0]
    assert np.array_equal(lie.log_sek(X, 2), np.array([0.0, 3.0, -1.0, 0.5, 2.0]))


def test_log_exp_sek_roundtrip_1000():
    rng = np.random.Generator(np.random.Philox(key=11))
    for d, k in ((2, 1), (3, 1), (3, 2)):
        td = lie.tangent_dim(d, k)
        rd = lie.rot_dim(d)
        for _ in range(1000 // 3):
            xi = rng.standard_normal(td)
            n = np.linalg.norm(xi[:rd])
            if n > 3.0:
                xi[:rd] *= 3.0 / n
            back = lie.log_sek(lie.exp_sek(xi, d, k), d)
            assert np.abs(back - xi).max() < 1e-9


def test_log_sek_malformed_embedding():
    X = np.eye(5)
    X[4, 0] = 1e-14  # bottom rows must be exactly [0 I]
    with pytest.raises(MalformedEmbedding):
        lie.log_sek(X, 3)
    Y = np.eye(4)
    Y[3, 3] = 1.0 + 1e-15
    with pytest.raises(MalformedEmbedding):
        lie.log_sek(Y, 2)


def test_exp_sek_length_check():
    with pytest.raises(DimensionMismatch):
        lie.exp_sek(np.zeros(8), 3, 2)
    with pytest.raises(DimensionMismatch):
        lie.exp_sek(np.zeros(9), 4, 1)


# ---------------------------------------------------------------------------
# composition / inverse


def random_sek(rng, d, k, max_rot=2.5):
    xi = rng.standard_normal(lie.tangent_dim(d, k))
    rd = lie.rot_dim(d)
    n = np.linalg.norm(xi[:rd])
    if n > max_rot:
        xi[:rd] *= max_rot / n
    return lie.exp_sek(xi, d, k)


def test_compose_inverse_law():
    for d, k in ((2, 1), (3, 1), (3, 2)):
        X = random_sek(RNG, d, k)
        assert np.abs((X @ lie.inverse(X, d)) - np.eye(d + k)).max() < 1e-12
        assert np.abs(lie.inverse(lie.inverse(X, d), d) - X).max() < 1e-14


def test_compose_exp_opposite():
    for _ in range(20):
        xi = RNG.standard_normal(9)
        A = lie.exp_sek(xi, 3, 2)
        B = lie.exp_sek(-xi, 3, 2)
        assert np.abs((A @ B) - np.eye(5)).max() < 1e-10


def test_inverse_closed_form():
    # inverse is (C^T, -C^T p), never a generic solve
    X = random_sek(RNG, 3, 2)
    Xi = lie.inverse(X, 3)
    assert np.array_equal(Xi[:3, :3], X[:3, :3].T)
    assert np.allclose(Xi[:3, 3:], -(X[:3, :3].T @ X[:3, 3:]), atol=1e-15)
    with pytest.raises(DimensionMismatch):
        lie.inverse(np.eye(3)[:2], 2)  # not square


def test_group_preserves_embedding():
    X = random_sek(RNG, 3, 2)
    Y = random_sek(RNG, 3, 2)
    Z = X @ Y
    assert np.array_equal(Z[3:, :3], np.zeros((2, 3)))
    assert np.array_equal(Z[3:, 3:], np.eye(2))


def test_polar_project():
    C = lie.exp_so3(np.array([0.4, -0.2, 0.9]))
    noisy = C + 1e-8 * RNG.standard_normal((3, 3))
    fixed = lie.polar_project(noisy)
    assert np.abs(fixed.T @ fixed - np.eye(3)).max() < 1e-14
    assert np.abs(fixed - C).max() < 1e-7


# the public functions and the arguments after the array they take
PUBLIC_AFTER_ARRAY = {
    "wedge_so3": (), "exp_so3": (), "log_so3": (), "exp_so2": (), "log_so2": (),
    "left_jacobian_so3": (), "inv_left_jacobian_so3": (), "left_jacobian_so2": (),
    "polar_project": (), "exp_sek": (3, 2), "log_sek": (3,), "inverse": (3,)}


def _filter_step(name, **given):
    """propagate (given omega or Q) or update (given y or R) on the example's
    initial belief, with the other arguments the model's own."""
    m = make(name)
    belief, retr = Belief(m.initial_mean, m.initial_cov), m.retraction()
    if given.keys() & {"y", "R"}:
        args = {"y": np.zeros(m.R.shape[0]), "R": m.R, **given}
        return update(belief, args["y"], m.h, args["R"], retr, m.alpha)
    args = {"omega": m.inputs(1)[0], "Q": m.Q, **given}
    return propagate(belief, args["omega"], m.f, args["Q"], retr, m.alpha)


def _augment(y_new=(1.0, 0.0), obs_cov=np.eye(2), runs=()):
    """augment_landmark on slam2d's initial belief, repeated over runs."""
    m = make("slam2d")
    belief = Belief(np.tile(m.initial_mean, runs + (1,)),
                    np.tile(m.initial_cov, runs + (1, 1)))
    return augment_landmark(belief, y_new, m.retraction(), obs_cov)


# public functions outside the Lie layer: the argument named, and the call
# with `bad` in its place; propagate's omega reaches each built-in f
OUTSIDE_LIE = {
    "mixed_state": ("group", lambda bad: mixed_state(bad, np.zeros(2))),
    "covariance_retrieval": ("R_hat", lambda bad: covariance_retrieval(
        bad, np.ones(3), np.eye(3))),
    "sigma_points": ("P", lambda bad: sigma_points(bad, 0.0)),
    "propagate-Q": ("Q", lambda bad: _filter_step("attitude3d", Q=bad)),
    "update-y": ("y", lambda bad: _filter_step("attitude3d", y=bad)),
    "update-R": ("R", lambda bad: _filter_step("attitude3d", R=bad)),
    "augment_landmark": ("y_new", _augment),
    **{f"{name}.f": ("omega", lambda bad, name=name: _filter_step(name, omega=bad))
       for name in example_names()},
}


@pytest.mark.parametrize("bad", ["abc", [[1.0, 2.0], [3.0]]], ids=["string", "ragged"])
@pytest.mark.parametrize("name", [*PUBLIC_AFTER_ARRAY, *OUTSIDE_LIE])
def test_public_functions_reject_input_that_is_not_numeric(name, bad):
    if name in PUBLIC_AFTER_ARRAY:
        with pytest.raises(DimensionMismatch, match="is not a numeric array"):
            getattr(lie, name)(bad, *PUBLIC_AFTER_ARRAY[name])
    else:
        what, call = OUTSIDE_LIE[name]
        with pytest.raises(DimensionMismatch, match=f"^{what} is not a numeric array"):
            call(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: lie.exp_so3("abc"), "omega is not a numeric array: 'abc'"),
    (lambda: lie.wedge_so3("abc"), "omega is not a numeric array: 'abc'"),
    (lambda: lie.exp_so2("abc"), "theta is not a numeric array: 'abc'"),
    (lambda: lie.exp_sek("abc", 3, 1), "xi is not a numeric array: 'abc'"),
    (lambda: lie.exp_so3(np.zeros((2, 4))), r"omega must be \(\.\.\., 3\), got shape \(2, 4\)"),
    (lambda: lie.wedge_so3(np.zeros(4)), r"omega must be \(\.\.\., 3\), got shape \(4,\)"),
    (lambda: lie.exp_sek(np.zeros((2, 4)), 3, 0), r"xi must be \(\.\.\., 3\), got shape \(2, 4\)"),
    (lambda: lie.exp_sek(np.zeros(4), 2, 1), r"xi must be \(\.\.\., 3\), got shape \(4,\)"),
    (lambda: lie.exp_sek(np.zeros(8), 3, 2), r"xi must be \(\.\.\., 9\), got shape \(8,\)"),
    (lambda: group_retraction(3, 1).phi(np.eye(4), np.zeros((2, 5))),
     r"xi must be \(\.\.\., 6\), got shape \(2, 5\)"),
    (lambda: group_retraction(2, 0).phi(np.eye(2), "abc"), "xi is not a numeric array: 'abc'"),
], ids=["exp_so3-str", "wedge_so3-str", "exp_so2-str", "exp_sek-str", "exp_so3-width",
        "wedge_so3-width", "exp_sek-so3-width", "exp_sek-se2-width", "exp_sek-se23-width",
        "phi-se3-width", "phi-so2-str"])
def test_public_exps_keep_their_checks_and_messages(call, message):
    """The exp entries (and the group phi, which calls the core) check their
    argument as before the cores were split off, a width by the shape rule."""
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: lie.exp_sek(1.0, 2, 0), r"xi must be \(\.\.\., 1\), got shape \(\)"),
    (lambda: group_retraction(2, 1).phi(1.0, np.zeros(3)),
     r"expected square matrices of size >= 2, got \(\)"),
    (lambda: group_retraction(2, 1).phi(np.eye(3), 1.0),
     r"xi must be \(\.\.\., 3\), got shape \(\)"),
    (lambda: mixed_state(np.eye(3), 1.0), r"euclid is a 0-d value, not a \(\.\.\., m\) block"),
    (lambda: mixed_retraction(2, 1, 2).phi(1.0, np.zeros(5)),
     r"mixed states \(\) hold no 3x3 block"),
    (lambda: mixed_retraction(2, 1, 2).phi_inv(1.0, 1.0), r"mixed states \(\) hold no 3x3 block"),
    (lambda: mixed_state(1.0, np.zeros(2)), r"expected square matrices of size >= 2, got \(\)"),
    (lambda: mixed_retraction(2, 1, 2).phi(mixed_state(np.eye(3), np.zeros(2)), 1.0),
     r"xi is a 0-d value, not a \(\.\.\., dim\) tangent vector"),
    (lambda: componentwise_so3_r6().phi(np.eye(5), 1.0),
     r"xi is a 0-d value, not a \(\.\.\., dim\) tangent vector"),
], ids=["exp_sek-xi", "phi-state", "phi-xi", "mixed_state-euclid", "mixed-phi-state",
        "mixed-phi_inv-ref", "mixed_state-group", "mixed-phi-xi", "so3xr6-phi-xi"])
def test_a_0d_tangent_vector_or_state_is_a_dimension_mismatch(call, message):
    """A scalar where a vector or a matrix belongs is named, not read past
    its shape as a raw IndexError."""
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        call()


# filter steps and the other public functions given a numeric argument of
# the wrong shape: the argument named, and the call; each built-in f gets its
# input one entry short
MISSHAPEN = {
    "propagate-Q-vector": ("Q", lambda: _filter_step("attitude3d", Q=np.ones(3))),
    "propagate-Q-2x3": ("Q", lambda: _filter_step("attitude3d", Q=np.ones((2, 3)))),
    "update-R-vector": ("R", lambda: _filter_step("attitude3d", R=np.ones(6))),
    "update-R-6x5": ("R", lambda: _filter_step("attitude3d", R=np.ones((6, 5)))),
    "update-y-and-R-scalar": ("R", lambda: _filter_step("attitude3d", y=0.0, R=1.0)),
    "augment_landmark-y_new-3": ("y_new", lambda: _augment(np.ones(3))),
    "augment_landmark-y_new-scalar": ("y_new", lambda: _augment(1.0)),
    "augment_landmark-obs_cov-3x3": ("obs_cov", lambda: _augment(obs_cov=np.eye(3))),
    "augment_landmark-run-stack": ("belief", lambda: _augment(runs=(2,))),
    "augment_landmark-0d-cov": ("belief", lambda: augment_landmark(
        Belief(make("slam2d").initial_mean, np.zeros(())), (1.0, 0.0),
        make("slam2d").retraction(), np.eye(2))),
    "covariance_retrieval-R_hat-stack": ("R_hat", lambda: covariance_retrieval(
        np.stack([np.eye(3)] * 4), np.ones(3), np.eye(3))),
    "covariance_retrieval-R_hat-2x2": ("R_hat", lambda: covariance_retrieval(
        np.eye(2), np.ones(3), np.eye(3))),
    "covariance_retrieval-L-2": ("L", lambda: covariance_retrieval(
        np.eye(3), np.ones(2), np.eye(3))),
    "covariance_retrieval-P-2x2": ("P", lambda: covariance_retrieval(
        np.eye(3), np.ones(3), np.eye(2))),
    **{f"{name}.f": ("omega", lambda name=name: _filter_step(
        name, omega=make(name).inputs(1)[0][:-1])) for name in example_names()},
}


@pytest.mark.parametrize("name", MISSHAPEN)
def test_filter_steps_name_an_argument_of_the_wrong_shape(name):
    """Not numpy's broadcast or matmul error, and not the name of another
    function's argument (sigma_points' P for a bad Q)."""
    what, call = MISSHAPEN[name]
    with pytest.raises(DimensionMismatch, match=f"^{what} must be"):
        call()
