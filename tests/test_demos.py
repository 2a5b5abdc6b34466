"""Every demo script runs to completion against the installed sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [sys.executable, str(ROOT / "demos" / demo)]
    if demo == "run_pipeline.py":
        args.append(str(tmp_path / "out"))
    done = subprocess.run(args, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
