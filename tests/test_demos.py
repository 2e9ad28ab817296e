"""Each demo script runs to completion as a separate process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # demos write their scratch files under TMPDIR and must remove them, and
    # like the suite they turn a RuntimeWarning into an error
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(scratch),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(scratch.iterdir())
