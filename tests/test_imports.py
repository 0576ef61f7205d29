"""Every module imports on its own, in a fresh interpreter.

The package namespace imports none of its modules, so the order in which a
caller's imports load them is not fixed; an import cycle would fail only for
the modules that start it.
"""
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
