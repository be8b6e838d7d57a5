"""Fixtures shared by the test modules: the pinned results of
``tests/pins.json`` and a runner for the package's commands as CI runs
them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PINS = Path(__file__).with_name("pins.json")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def pins() -> dict:
    """Every pinned result, keyed by check name; each float is the ``repr``
    string it is compared with.  A change that moves a result on purpose
    edits its one key here."""
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def python_dev():
    """``run(*args, cwd=None)`` runs ``python -X dev -W error::RuntimeWarning
    *args`` with the package's source first on PYTHONPATH, so that a warning
    or a silent overflow fails the command, and returns its stdout.  A
    nonzero exit fails the test with the command's stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(*args, cwd=None) -> str:
        cmd = [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", *args]
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
