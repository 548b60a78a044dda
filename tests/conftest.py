"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import pytest

import heatloop


@pytest.fixture
def run_python():
    """Run ``python *args`` in a child process that imports the same
    heatloop as the tests, installed or not."""
    src = os.path.dirname(os.path.dirname(heatloop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env)

    return run
