"""Every module imports first, each in a fresh interpreter.

The modules import one another without a cycle: `polytope` imports
`char_engine`, which imports only `root_datum` and `linalg`, so any module
can be the first one loaded.

Every process that runs the library pays for its import, so no module loads
`dataclasses` or `inspect` (which `dataclasses` and, from Python 3.12,
`importlib.resources` load).  The interpreter runs with -S, so no site hook
loads them first.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from semiroot import polytope

PACKAGE = Path(polytope.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


def test_every_module_is_listed():
    assert {"char_engine", "polytope", "cli"} <= set(MODULES)


def modules_loaded_by(module: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = f"import sys, semiroot.{module}; print(*sys.modules)"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return set(run.stdout.split())


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    assert not {"dataclasses", "inspect"} & modules_loaded_by(module)


def test_char_engine_loads_no_polytope():
    assert "semiroot.polytope" not in modules_loaded_by("char_engine")
