"""The public surface is what the README documents or the package uses: an
export that only the tests call would fail here."""

import ast
import re
from pathlib import Path

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
