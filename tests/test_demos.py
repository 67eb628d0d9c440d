"""Every demo runs to the end and writes nothing into the checkout.

Each demo runs from the checkout in a fresh interpreter, with this
checkout's package on the path and a temporary working directory, which
is where the demos that write CSV and SVG files put them.  The seeded
telegraph demo also prints exactly its pinned output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import donor_halo

SRC = str(Path(donor_halo.__file__).resolve().parent.parent)
DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
DATA = Path(__file__).resolve().parent / "data"


def test_demos_are_found():
    assert DEMOS


def _run(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    before = sorted(DEMO_DIR.iterdir())
    result = _run(demo, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stderr == ""
    assert result.stdout
    assert sorted(DEMO_DIR.iterdir()) == before


def test_telegraph_demo_prints_its_pinned_output(tmp_path):
    """The seeded telegraph demo prints exactly its pinned output."""
    result = _run(DEMO_DIR / "06_telegraph_noise.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DATA / "demo_06_telegraph_noise.txt").read_text()
