"""Every narrative script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfkit

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # the child imports the same hopfkit as this test session
    package_root = str(Path(hopfkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
