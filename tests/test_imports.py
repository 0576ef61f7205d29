"""Every module imports on its own, in a fresh interpreter; the modules
import each other in one direction only; and every public name in them has
a caller outside the tests.

The package namespace imports none of its modules.  Each module imports
the ``inls`` modules it needs at module level, and their import graph has no
cycle (imports under ``if TYPE_CHECKING:`` only serve annotations), so any
module can be imported first.  No function imports an ``inls`` module, which
would hide a dependency, and a cycle with it, from that graph.
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

#: Public names that nothing in ``src/inls`` or ``bench`` calls, as
#: ``module.name``, each with why it stays.
NOT_YET_CALLED = {
    "diagnostics.cylindrical_phi_R": "items 11 and 16: the cylindrical localized-virial weight",
    "diagnostics.localized_virial": "items 11 and 16: the series.csv localized_virial column",
    "diagnostics.energy": "the 5a acceptance test imports it and stays as written",
}


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    those classes, as (name, class or None, node)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, None, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield member.name, node.name, member


def _inls_module(node):
    """The ``inls`` module an ``ImportFrom`` reads from: its name, "" for
    the package itself, None outside the package."""
    if node.level:
        return node.module or ""
    if node.module == "inls" or (node.module or "").startswith("inls."):
        return node.module[len("inls.") :] if "." in node.module else ""
    return None


def _loaded_modules(node):
    """The ``inls`` modules an import statement loads; "" is the package."""
    if isinstance(node, ast.ImportFrom):
        source = _inls_module(node)
        if source == "":  # from . import grids
            return [alias.name for alias in node.names]
        return [] if source is None else [source]
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return [name[len("inls.") :] for name in names if name.startswith("inls.")]
    return []


def _is_type_checking(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING",
        "typing.TYPE_CHECKING",
    )


def _import_sites(nodes, function=None):
    """(function or None, imported module) for every ``inls`` import that
    runs when the module loads (function None) or when a function runs,
    skipping ``if TYPE_CHECKING:`` bodies."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _import_sites(node.body, function or node.name)
            continue
        for name in _loaded_modules(node):
            yield function, name
        children = node.orelse if _is_type_checking(node) else ast.iter_child_nodes(node)
        yield from _import_sites(children, function)


def _import_graph():
    """Each ``src/inls`` module's module-level ``inls`` imports, and the
    imports made inside its functions as ``module.function: imported``."""
    graph, late = {}, {}
    for path in sorted((REPO / "src" / "inls").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = set()
        for function, name in _import_sites(tree.body):
            if function is None:
                graph[path.stem].add(name)
            else:
                late.setdefault(f"{path.stem}.{function}", set()).add(name)
    return graph, late


def test_no_function_imports_an_inls_module():
    _, late = _import_graph()
    assert not late, f"functions that import inls modules: {late}"


def test_module_imports_form_no_cycle():
    graph, _ = _import_graph()
    assert "__init__" in graph and not graph["__init__"], "the package imports its modules"
    remaining = {module: names - {""} for module, names in graph.items()}
    while remaining:  # peel off the modules that import no remaining module
        ready = {module for module, names in remaining.items() if not names & set(remaining)}
        assert ready, f"inls modules in an import cycle: {remaining}"
        remaining = {module: names for module, names in remaining.items() if module not in ready}


def _references(tree, module):
    """What a file's code reads, as (module, name) pairs for the functions
    and classes of ``inls`` modules and as bare attribute names for methods:
    ``module.name`` through an imported module, ``from module import name``
    and, in ``module`` itself, loaded names.  Docstrings and comments are
    not code."""
    modules, qualified, attributes = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _inls_module(node)
            for alias in node.names if source is not None else ():
                if source == "":  # from inls import grids
                    modules[alias.asname or alias.name] = alias.name
                else:
                    qualified.add((source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("inls.") and alias.asname:
                    modules[alias.asname] = alias.name[len("inls.") :]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                qualified.add((modules[owner.id], node.attr))
            elif (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "inls"
            ):
                qualified.add((owner.attr, node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
            qualified.add((module, node.id))
    return qualified, attributes


def test_every_public_name_has_a_caller():
    # code that only tests call belongs under tests/, not in the library
    defined, qualified, attributes = {}, set(), set()
    for path in sorted((REPO / "src" / "inls").glob("*.py")) + sorted((REPO / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = path.stem if path.parent.name == "inls" else None
        names, attrs = _references(tree, module)
        qualified |= names
        attributes |= attrs
        if module is not None:
            for name, owner, node in _public_definitions(tree):
                key = f"{module}.{name}" if owner is None else f"{module}.{owner}.{name}"
                defined.setdefault(key, f"{path.name}:{node.lineno}")
    def has_caller(key):
        module, *owner, name = key.split(".")
        return name in attributes if owner else (module, name) in qualified

    uncalled = {
        key: where
        for key, where in defined.items()
        if not has_caller(key) and key not in NOT_YET_CALLED
    }
    assert not uncalled, f"public names no library or benchmark code calls: {uncalled}"
    stale = [key for key in NOT_YET_CALLED if key not in defined or has_caller(key)]
    assert not stale, f"allowlisted names that now have a caller or are gone: {stale}"
