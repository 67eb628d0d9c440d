#!/usr/bin/env python3
"""How the polarized-core radius depends on the channel competition.

The amplitude f0 measures hyperfine strength relative to quadrupolar
strength (occupancy-scaled).  Sweeping it maps out the quadrupolar
radius rho_q and the fraction s(rho_q) of the electron orbital that the
polarized core covers -- the step-model estimate of the nuclear field
in units of its homogeneous-polarization value.

Writes radius.csv into the working directory, through the command-line
driver.
"""

import sys

import numpy as np

from donor_halo import radius_sweep
from donor_halo.cli import main

table = radius_sweep(np.geomspace(1e-4, 1.0, 17))

print(f"{'f0':>10} {'rho_q (a0*)':>12} {'s(rho_q)':>10}")
for f0, rho, s in table:
    print(f"{f0:>10.2e} {rho:>12.4f} {s:>10.5f}")

print("\nBoth columns rise monotonically with f0: a stronger hyperfine")
print("channel pushes the depolarization boundary outward.  Around")
print("f0 ~ 1e-2 (GaAs at half occupancy) the core holds only a few")
print("percent of the orbital; without quadrupolar relaxation the")
print("spin-diffusion boundary at 1.4 a0* would hold about half.")

code = main(["radius", "--f0-min", "1e-4", "--f0-max", "1", "--points", "17",
             "--out", "radius.csv"])
if code:
    sys.exit(code)
print("\nwrote radius.csv")
