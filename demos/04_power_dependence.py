#!/usr/bin/env python3
"""Nuclear field versus light excitation power.

The donor occupancy, not the power itself, controls the quadrupolar
depolarization: the modulation needs *partial* occupancy, peaking near
one half.  Sweeping the excitation power for the GaAs defaults shows:

* the occupancy rising toward its capture-limited ceiling,
* the polarized-core fraction s(rho_q) dipping by an order of magnitude
  in a broad window around the reference power P0,
* the reduced nuclear field alpha_n, which also folds in spin exchange
  with the growing free-electron population and therefore keeps falling
  at high power.

Writes power.csv and power.svg into the working directory, through the
command-line driver.
"""

import sys

import numpy as np

from donor_halo import get_material, power_sweep
from donor_halo.cli import main
from donor_halo.kinetics import power_scale

gaas = get_material("GaAs:As75")
sweep = power_sweep(np.geomspace(0.1, 100.0, 31), gaas)

print(f"reference power density P0 = {power_scale(gaas):.3e} W/m^2")
print(f"{'P/P0':>9} {'occupancy':>10} {'nf/NA':>9} {'s(rho_q)':>9} "
      f"{'alpha_n':>9} {'diffusion?':>10}")
for i in range(0, sweep.p_over_p0.size, 3):
    print(f"{sweep.p_over_p0[i]:>9.3g} {sweep.occupancy[i]:>10.4f} "
          f"{sweep.nf_over_na[i]:>9.4f} {sweep.s_rho_q[i]:>9.5f} "
          f"{sweep.alpha_n[i]:>9.5f} {'yes' if sweep.diffusion_flag[i] else '':>10}")

i0 = int(np.argmin(np.abs(sweep.p_over_p0 - 1.0)))
print(f"\nnear P0: occupancy {sweep.occupancy[i0]:.3f}, "
      f"s(rho_q) reduced {0.5 / sweep.s_rho_q[i0]:.0f}x below the 0.5 "
      "spin-diffusion ceiling")
print("flagged low-power rows sit where bulk spin diffusion dominates and")
print("the local steady-state picture does not apply.")

for out, fmt in (("power.csv", "csv"), ("power.svg", "svg")):
    code = main(["power", "--material", gaas.name, "--p-min", "0.1", "--p-max", "100",
                 "--points", "31", "--format", fmt, "--out", out])
    if code:
        sys.exit(code)
print("\nwrote power.csv and power.svg")
