"""The demos run to completion against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def _demo_files() -> dict:
    return {str(p.relative_to(DEMO_DIR)): p.stat().st_mtime_ns
            for p in DEMO_DIR.rglob("*") if p.is_file()}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    """Each demo exits 0, prints its result, and writes nothing under demos/."""
    before = _demo_files()
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert _demo_files() == before
