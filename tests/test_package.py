"""The public namespace of the package."""

import os
import subprocess
import sys
from pathlib import Path

import hopfkit


def test_all_is_sorted_unique_and_resolves():
    names = hopfkit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hopfkit, name)] == []


def test_import_does_not_load_the_cli():
    # the library never depends on its command line: a fresh interpreter that
    # imports hopfkit has loaded neither hopfkit.cli nor argparse
    package_root = str(Path(hopfkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
    code = "import sys, hopfkit; print(sorted({'hopfkit.cli', 'argparse'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
