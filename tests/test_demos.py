"""Every demo runs to the end.

The demos write their CSV and SVG files next to themselves, so each one
runs from a copy in a temporary directory, in a fresh interpreter, with
this checkout's package on the path.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import donor_halo

SRC = str(Path(donor_halo.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copyfile(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            text=True, env=env, cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stderr == ""
    assert result.stdout
