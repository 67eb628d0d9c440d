"""Every demo runs to the end and writes nothing into the checkout.

Each demo runs from the checkout in a fresh interpreter, with this
checkout's package on the path and a temporary working directory, which
is where the demos that write CSV and SVG files put them.
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


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    before = sorted(DEMO_DIR.iterdir())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, env=env, cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stderr == ""
    assert result.stdout
    assert sorted(DEMO_DIR.iterdir()) == before
