"""scipy and numpy.polynomial stay test-only; the oracles stay off production paths.

scipy once cost most of a cold start.  It now serves only the tests, as
the referee of the numpy quadrature and matrix oracles, so no run of the
program may load it: not ``verify``, not ``nuclear_field``, not any other
command.  The same holds for ``numpy.polynomial``, which ``import numpy``
does not load: the Gauss-Legendre nodes are constants of
``donor_halo.numerics``, and only the tests compute them again.  The
``radius`` and ``profile`` commands run the root finder, where a scipy
solver would be the easy thing to reach for, and ``validity`` evaluates
the closed forms whose matrix oracles live in ``donor_halo.oracles``;
those commands must not import the oracles either.  The checks run in
fresh interpreters and look at module names, not at wall time, so they
do not depend on the speed of the host.
"""

import os
import subprocess
import sys
from pathlib import Path

import donor_halo

SRC = str(Path(donor_halo.__file__).resolve().parent.parent)

FORBIDDEN = """
import sys

def refuse_forbidden_modules(label):
    loaded = sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy"
                    or name.split(".")[:2] == ["numpy", "polynomial"])
    if loaded:
        print(f"{label} loaded {len(loaded)} forbidden modules, first {loaded[0]}")
        sys.exit(1)
"""

PROBE = FORBIDDEN + """
def step(label):
    refuse_forbidden_modules(label)
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


VERIFY_PROBE = FORBIDDEN + """
step = refuse_forbidden_modules

import donor_halo.checks
step("import donor_halo.checks")
import numpy as np
from donor_halo import get_material, nuclear_field, profile
field = nuclear_field(profile(1e-2, np.linspace(0.05, 3.0, 8)), get_material("GaAs:As75"))
assert 0.0 < field.b_n_exact < get_material("GaAs:As75").b_n0
step("nuclear_field")
from donor_halo import cli
for suite in ("exact-oracles", "properties", "reference-numbers"):
    code = cli.main(["verify", "--suite", suite, "--out", sys.argv[1]])
    assert code in (0, 4), code
    step(f"cli.main(['verify', '--suite', '{suite}'])")
print("ok")
"""


def _probe(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_no_scipy_on_production_import_path(tmp_path):
    result = _probe(PROBE, str(tmp_path / "out.csv"), str(tmp_path / "report.txt"))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "out.csv").read_text().startswith("# donor-halo")
    assert (tmp_path / "report.txt").read_text().startswith("regime report: GaAs:As75")


def test_no_scipy_in_verify_or_nuclear_field(tmp_path):
    result = _probe(VERIFY_PROBE, str(tmp_path / "verify.txt"))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "ok"
    assert "reference-numbers/diffusion-quad-modified" in (tmp_path / "verify.txt").read_text()
