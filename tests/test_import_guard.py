"""Production imports and non-verify commands must not load scipy or the oracles.

scipy is used only by ``verify``, ``nuclear_field`` and the oracles; it
costs most of a cold start.  The ``radius`` and ``profile`` commands run
the root finder, where a scipy solver would be the easy thing to reach
for, and ``validity`` evaluates the closed forms whose matrix oracles
live in ``donor_halo.oracles``.  The check runs in a fresh interpreter
and looks at module names, not at wall time, so it does not depend on
the speed of the host.
"""

import os
import subprocess
import sys
from pathlib import Path

import donor_halo

SRC = str(Path(donor_halo.__file__).resolve().parent.parent)

PROBE = """
import sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def step(label):
    loaded = scipy_modules()
    if loaded:
        print(f"{label} loaded {len(loaded)} scipy modules, first {loaded[0]}")
        sys.exit(1)
    if "donor_halo.oracles" in sys.modules:
        print(f"{label} imported donor_halo.oracles")
        sys.exit(1)

import donor_halo
step("import donor_halo")
import donor_halo.cli
step("import donor_halo.cli")
assert donor_halo.cli.main(["materials"]) == 0
step("cli.main(['materials'])")
assert donor_halo.cli.main(["power", "--out", sys.argv[1]]) == 0
step("cli.main(['power', '--out', PATH])")
assert donor_halo.cli.main(["radius", "--f0-min", "1e-12", "--out", sys.argv[1]]) == 0
step("cli.main(['radius', '--f0-min', '1e-12', '--out', PATH])")
assert donor_halo.cli.main(["profile", "--points", "300", "--out", sys.argv[1]]) == 0
step("cli.main(['profile', '--points', '300', '--out', PATH])")
assert donor_halo.cli.main(["validity", "--r", "0.7", "--out", sys.argv[2]]) == 0
step("cli.main(['validity', '--r', '0.7', '--out', PATH])")
print("ok")
"""


def test_no_scipy_on_production_import_path(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "out.csv"),
                             str(tmp_path / "report.txt")],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "out.csv").read_text().startswith("# donor-halo")
    assert (tmp_path / "report.txt").read_text().startswith("regime report: GaAs:As75")
