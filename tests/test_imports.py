"""Every module imports on its own, in a fresh interpreter, and every public
name in it has a caller outside the tests.

The package namespace imports none of its modules, so the order in which a
caller's imports load them is not fixed; an import cycle would fail only for
the modules that start it.
"""
import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import inls

MODULES = ["inls"] + [f"inls.{m.name}" for m in pkgutil.iter_modules(inls.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_imports_alone(module):
    src = str(Path(inls.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr


REPO = Path(__file__).resolve().parents[1]

#: Public names with no caller yet, each with the open ROADMAP item that will
#: call it; an entry leaves when its item lands.
NOT_YET_CALLED = {
    "cylindrical_phi_R": "items 11 and 16: the cylindrical localized-virial weight",
    "localized_virial": "items 11 and 16: the series.csv localized_virial column",
}


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for member in [node, *members]:
            if isinstance(member, defs) and not member.name.startswith("_"):
                yield member


def _references(tree):
    """Names the code loads, attributes it reads and names it imports;
    docstrings and comments are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_has_a_caller():
    # code that only tests call belongs under tests/, not in the library
    defined, referenced = {}, set()
    for path in sorted((REPO / "src" / "inls").glob("*.py")) + sorted((REPO / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        referenced.update(_references(tree))
        if path.parent.name == "inls":
            for node in _public_definitions(tree):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    uncalled = {
        name: where
        for name, where in defined.items()
        if name not in referenced and name not in NOT_YET_CALLED
    }
    assert not uncalled, f"public names no library or benchmark code calls: {uncalled}"
    stale = [name for name in NOT_YET_CALLED if name in referenced or name not in defined]
    assert not stale, f"allowlisted names that now have a caller or are gone: {stale}"
