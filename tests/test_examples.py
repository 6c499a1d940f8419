"""Every script under ``examples/`` runs to completion on this checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_the_six_examples_are_found():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script):
    search_path = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": search_path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
