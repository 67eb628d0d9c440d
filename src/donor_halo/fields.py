"""Donor electrostatics and electric-field-gradient geometry.

The ionized donor produces a Coulomb field that the trapped electron
screens; the screening fraction ``s(r)`` is the fraction of the 1s
orbital charge enclosed within radius r.  For a zincblende host the
field couples to the nuclear quadrupole moment through a single
third-rank tensor component, and this module carries the closed-form
frame transformation of that tensor (``oracles.efg_transform_rotation``
rotates the tensor numerically to check it).

Radial arguments are plain floats in units of the effective Bohr
radius; pass a :class:`Radius` to supply metres explicitly.  All
functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MaterialError, NumericalError
from .materials import E_CHARGE, EPSILON_0, HBAR, MaterialRecord
from .numerics import as_operand


class Radius(NamedTuple):
    """Unit-tagged radial distance (``unit`` is ``"bohr"`` or ``"m"``)."""

    value: float
    unit: str = "bohr"

    def in_bohr(self, bohr_radius: float) -> float:
        if self.unit == "bohr":
            return self.value
        if self.unit == "m":
            return self.value / bohr_radius
        raise MaterialError(f"unknown radius unit {self.unit!r}")


def _as_bohr(r: float | Radius, mat: MaterialRecord) -> float:
    if isinstance(r, Radius):
        return r.in_bohr(mat.bohr_radius)
    return float(r)


@dataclass(frozen=True)
class Geometry:
    """Field orientations relative to the crystal frame.

    theta, phi: polar angle of the electric field direction from the
    surface normal z and azimuth of the z-field plane from x.
    theta_b, phi_b: same two angles for the magnetic field direction,
    which defines the nuclear quantization frame.
    """

    theta: float = 0.0
    phi: float = 0.0
    theta_b: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self) -> None:
        for name, value, upper in (
            ("theta", self.theta, math.pi),
            ("theta_b", self.theta_b, math.pi),
        ):
            if not 0.0 <= value <= upper:
                raise MaterialError(f"{name} must lie in [0, pi], got {value}")
        for name, value in (("phi", self.phi), ("phi_b", self.phi_b)):
            if not 0.0 <= value < 2.0 * math.pi:
                raise MaterialError(f"{name} must lie in [0, 2*pi), got {value}")


@dataclass(frozen=True)
class FieldPoint:
    """Electric-field state at one distance from the donor."""

    r_bohr: float        # distance in units of a0*
    e_off: float         # ionized-donor field, V/m
    screening: float     # enclosed-charge fraction s(r)
    e_on: float          # field with the electron present, V/m
    f0q: float           # static quadrupolar energy scale, J


#: Horner coefficients 1/(k+3)!, k = 15 down to 0, of the series
#: s = x^3 e^-x sum_k x^k/(k+3)! in x = 2r; on x < 1 the k > 15 terms
#: add less than 5e-17 of the sum
_SERIES = tuple(1.0 / math.factorial(k + 3) for k in range(15, -1, -1))


def screening_fraction(r_bohr):
    """Fraction of the 1s electron charge inside radius r (a0* units).

    Equals 1 - (1 + x + x^2/2) e^-x with x = 2r; rises from 0 at the donor
    site to 1 far away, i.e. it is exactly the normalized radial charge
    CDF.  Below x = 1 that difference cancels (all digits are lost by
    r = 1e-8), so there the positive series x^3 e^-x sum x^k/(k+3)! is
    summed instead.  Takes a float or an array.
    """
    x = 2.0 * (r_bohr if isinstance(r_bohr, float) else as_operand(r_bohr))
    if isinstance(x, float):
        if x < 0.0:
            raise MaterialError("radius must be non-negative")
        if x < 1.0:
            return _cdf_series(x, math)
        return -math.expm1(-x) - (x + 0.5 * x * x) * math.exp(-x)
    if (x < 0.0).any():
        raise MaterialError("radius must be non-negative")
    out = -np.expm1(-x) - (x + 0.5 * x * x) * np.exp(-x)
    small = x < 1.0
    if small.any():
        out[small] = _cdf_series(x[small], np)
    return out


def _cdf_series(x, xp):
    acc = 0.0
    for c in _SERIES:
        acc = acc * x + c
    return x * x * x * xp.exp(-x) * acc


def screening_density(r_bohr):
    """Radial charge density 4 r^2 exp(-2r); the derivative of the CDF.

    Takes a float or an array.
    """
    r = r_bohr if isinstance(r_bohr, float) else as_operand(r_bohr)
    exp = math.exp if isinstance(r, float) else np.exp
    return 4.0 * r * r * exp(-2.0 * r)


def coulomb_field(r: float | Radius, mat: MaterialRecord) -> float:
    """Unscreened donor field e / (4 pi eps eps0 r^2) in V/m."""
    r_b = _as_bohr(r, mat)
    if r_b <= 0.0:
        raise MaterialError("field diverges at the donor site; r must be positive")
    r_m = r_b * mat.bohr_radius
    denominator = 4.0 * math.pi * mat.epsilon * EPSILON_0 * r_m * r_m
    field = E_CHARGE / denominator if denominator else math.inf
    if field == math.inf:
        raise NumericalError(f"Coulomb field at r = {r_b:g} a0* is out of float range; "
                             "check r, bohr_radius and epsilon")
    return field


def donor_field(r: float | Radius, occupancy: float, mat: MaterialRecord) -> FieldPoint:
    """Electric-field state at distance r for donor occupancy in [0, 1]."""
    if not 0.0 <= occupancy <= 1.0:
        raise MaterialError("occupancy must lie in [0, 1]")
    r_b = _as_bohr(r, mat)
    e_off = coulomb_field(r_b, mat)
    s = screening_fraction(r_b)
    f0q = HBAR * mat.gamma * (1.0 - s * occupancy) * mat.b_q * e_off
    return FieldPoint(r_bohr=r_b, e_off=e_off, screening=s,
                      e_on=e_off * (1.0 - s), f0q=f0q)


def hyperfine_field_instant(r: float | Radius, mat: MaterialRecord) -> float:
    """Instant hyperfine field b_e*(a0*) exp(-2 (r/a0* - 1)), in T."""
    anchor = mat.require_hyperfine_field()
    r_b = _as_bohr(r, mat)
    if r_b < 0.0:
        raise MaterialError("radius must be non-negative")
    return anchor * math.exp(-2.0 * (r_b - 1.0))


# --- EFG frame transformation -------------------------------------------

class EfgComponents(NamedTuple):
    """Six independent gradient components in the magnetic-field frame (V/m^2)."""

    xx: float
    yy: float
    zz: float
    yz: float
    xz: float
    xy: float


def rotation_to_field_frame(theta_b: float, phi_b: float) -> np.ndarray:
    """Rows are the field-frame basis vectors (X', Y', Z') in crystal coordinates.

    Z' is the magnetic-field direction at polar angles (theta_b, phi_b);
    X' lies in the plane spanned by z and Z'; Y' completes the
    right-handed triad.
    """
    st, ct = math.sin(theta_b), math.cos(theta_b)
    sp, cp = math.sin(phi_b), math.cos(phi_b)
    x_axis = np.array([ct * cp, ct * sp, -st])
    y_axis = np.array([-sp, cp, 0.0])
    z_axis = np.array([st * cp, st * sp, ct])
    return np.vstack([x_axis, y_axis, z_axis])


def efg_crystal_frame(e_field: np.ndarray, r14: float) -> np.ndarray:
    """Symmetric traceless EFG matrix in crystal coordinates.

    In a zincblende lattice only the fully off-diagonal tensor entries
    survive, all equal to r14, so V_xy = r14 Ez and cyclic.
    """
    ex, ey, ez = np.asarray(e_field, dtype=float)
    return r14 * np.array([
        [0.0, ez, ey],
        [ez, 0.0, ex],
        [ey, ex, 0.0],
    ])


def efg_transform(e_field: np.ndarray, geometry: Geometry, r14: float) -> EfgComponents:
    """Closed-form gradient components in the magnetic-field frame."""
    ex, ey, ez = np.asarray(e_field, dtype=float)
    st, ct = math.sin(geometry.theta_b), math.cos(geometry.theta_b)
    s2t, c2t = math.sin(2 * geometry.theta_b), math.cos(2 * geometry.theta_b)
    sp, cp = math.sin(geometry.phi_b), math.cos(geometry.phi_b)
    s2p, c2p = math.sin(2 * geometry.phi_b), math.cos(2 * geometry.phi_b)
    return EfgComponents(
        xx=r14 * (-s2t * sp * ex - s2t * cp * ey + ct * ct * s2p * ez),
        yy=r14 * (-s2p * ez),
        zz=r14 * (s2t * sp * ex + s2t * cp * ey + st * st * s2p * ez),
        yz=r14 * (ct * cp * ex - ct * sp * ey + st * c2p * ez),
        xz=r14 * (c2t * sp * ex + c2t * cp * ey + 0.5 * s2t * s2p * ez),
        xy=r14 * (-st * cp * ex + st * sp * ey + ct * c2p * ez),
    )


def field_direction(theta: float, phi: float) -> np.ndarray:
    """Unit vector at polar angle theta from z, azimuth phi from x."""
    return np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])
