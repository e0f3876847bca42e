"""Test this checkout's ``src/``, also in the child processes tests start.

``pyproject.toml`` puts ``src`` on this process's path; child interpreters
(``python -m fsvc.cli``) get it through ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
