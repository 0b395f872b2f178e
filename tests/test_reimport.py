"""Purging and re-importing the package frees the copy it replaces.

A module-level alias built by ``typing`` (``typing.Callable[...]``,
``Union[...]``) passes through typing's global cache, which keeps every
earlier import of the package alive.  Purging the package inside the test
process would break the other tests, so the check runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import gc, importlib, sys, weakref

def purge():
    for name in [n for n in sys.modules
                 if n == "relaxround" or n.startswith("relaxround.")]:
        del sys.modules[name]

importlib.import_module("relaxround")
classes = {f"{module.__name__}.{name}": weakref.ref(value)
           for module in [m for n, m in sys.modules.items()
                          if n.startswith("relaxround.")]
           for name, value in vars(module).items()
           if isinstance(value, type) and value.__module__ == module.__name__}
purge()
importlib.import_module("relaxround")
gc.collect()
print(len(classes), "relaxround.lp.Polytope" in classes,
      *sorted(name for name, ref in classes.items() if ref() is not None))
"""


def test_a_purged_package_copy_is_freed():
    """No class of the first copy, lp.Polytope among them, outlives it."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    count, polytope, *alive = result.stdout.split()
    assert int(count) > 20 and polytope == "True"
    assert alive == []
