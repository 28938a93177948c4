"""Smoke tests: example scripts run and print what they promise.

The README points new users at ``examples/quickstart.py`` first, so the
suite executes it the same way a reader would (a fresh interpreter) and
checks the landmark output lines, including the traced-rerun summary.
``examples/custom_losses.py`` is run the same way, since it is the
documented recipe for plugging a user-defined loss into the solver.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_example(name: str) -> str:
    """Run ``examples/<name>`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart_runs_clean():
    out = run_example("quickstart.py")
    assert "Estimated source reliability" in out
    assert "Resolved truths" in out
    assert "Converged after" in out
    # the traced rerun prints a RunReport summary
    assert "Traced rerun:" in out
    assert "objective (Eq. 1):" in out


def test_custom_losses_runs_clean():
    out = run_example("custom_losses.py")
    # the user-defined loss registered in the script gets a result row
    assert any(line.startswith("log_absolute ")
               for line in out.splitlines())
