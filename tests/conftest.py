"""Let the CLI tests' ``python -m dds.cli`` subprocesses import this
checkout's src/ without an install, as the pytest process itself does
through ``pythonpath`` in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
