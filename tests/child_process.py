"""Run a Python child process on this checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args):
    """``python *args`` with this checkout's src first on PYTHONPATH, its
    output captured as text, and a 10 s timeout."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": path})
