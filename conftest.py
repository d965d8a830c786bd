"""Make this checkout's package importable for its tests.

The checkout's `src` goes on sys.path only when no `mpadmm` is
importable already, so a PYTHONPATH (or an install) that names another
copy decides which package the tests run against:
``PYTHONPATH=<other checkout>/src python -m pytest tests`` tests that
copy.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("mpadmm") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
