"""Pytest bootstrap: make ``src/`` importable without an installed package.

Also for the worker fleet's fork server, which imports ``repro`` at its start
and finds it through ``$PYTHONPATH``, not through this process's ``sys.path``.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_PATHS = [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
if _SRC not in map(os.path.abspath, _PATHS):
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + _PATHS)
