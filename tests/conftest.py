"""The tests import cmscan from this checkout's src (pyproject's pytest
``pythonpath``); the ``python -m cmscan`` children they start find it
there too, through PYTHONPATH."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
