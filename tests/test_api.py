"""The public surface is what the README documents or the package uses: an
export that only the tests call would fail here."""

import ast
import re
import types
from pathlib import Path

import numpy as np

import manifold_ukf as mu

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
