#!/usr/bin/env python3
"""Radial profile of the steady nuclear polarization around one donor.

Close to the donor the trapped electron screens almost none of the
Coulomb field, so trapping/recombination barely modulates it and the
nuclei stay fully polarized by the hyperfine channel.  Further out the
modulated quadrupolar coupling takes over and the polarization
collapses.  The collapse happens sooner along the magnetic field
(smaller angular denominator) than perpendicular to it.

Writes profile.csv and profile.svg into the working directory, through
the command-line driver.
"""

import sys

import numpy as np

from donor_halo import half_polarization_radius, quadrupolar_radius, screening_fraction
from donor_halo.cli import main

F0 = 1e-2     # hyperfine/quadrupolar amplitude at half occupancy, GaAs-like

print(f"competition amplitude f0 = {F0:g}")
print(f"half-polarization radius along the field     : "
      f"{half_polarization_radius(0.0, F0):.3f} a0*")
print(f"half-polarization radius perpendicular to it : "
      f"{half_polarization_radius(np.pi / 2, F0):.3f} a0*")
rho_q = quadrupolar_radius(F0)
print(f"sphere-averaged (quadrupolar) radius         : {rho_q:.3f} a0*")
print(f"enclosed-charge fraction there, s(rho_q)     : "
      f"{screening_fraction(rho_q):.4f}")
print("\nOnly about 3% of the electron orbital overlaps the polarized core:")
print("the nuclear field on the electron drops by the same factor.")

for out, fmt in (("profile.csv", "csv"), ("profile.svg", "svg")):
    code = main(["profile", "--f0", repr(F0), "--r-max", "1.5", "--points", "160",
                 "--format", fmt, "--out", out])
    if code:
        sys.exit(code)
print("\nwrote profile.csv and profile.svg")
