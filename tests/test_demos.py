"""Smoke test: every demo script runs to completion and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # run from an empty directory, so a demo cannot litter the checkout
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
