"""Every module imports first, each in a fresh interpreter.

`char_engine` and `polytope` import each other, so each reads the other's
functions as module attributes at call time; a `from .char_engine import`
in `polytope` would fail whenever `char_engine` is imported first.

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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = f"import sys, semiroot.{module}; print(*sys.modules)"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert not {"dataclasses", "inspect"} & set(run.stdout.split())
