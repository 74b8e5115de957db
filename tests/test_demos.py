"""Every script under demos/ runs to completion against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusioncat

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty parameter list would turn every smoke test below into a skip
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # run in a scratch directory (demo 06 writes its pixmap to the cwd)
    # against the same package the tests import
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusioncat.__file__)))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
