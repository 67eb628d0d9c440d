"""Donor electrostatics and electric-field-gradient geometry.

The ionized donor produces a Coulomb field that the trapped electron
screens; the screening fraction ``s(r)`` is the fraction of the 1s
orbital charge enclosed within radius r.  For a zincblende host the
field couples to the nuclear quadrupole moment through a single
third-rank tensor component, and this module carries the closed-form
frame transformation of that tensor (``oracles.efg_transform_rotation``
rotates the tensor numerically to check it).

Radial arguments are plain floats in units of the effective Bohr
radius.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .materials import E_CHARGE, EPSILON_0, HBAR, MaterialRecord
from .numerics import AZIMUTH, FINITE, NON_NEGATIVE, POLAR, POSITIVE, UNIT, require


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
        for name in ("theta", "phi", "theta_b", "phi_b"):
            require(getattr(self, name), name, AZIMUTH if name.startswith("phi") else POLAR)


@dataclass(frozen=True)
class FieldPoint:
    """Electric-field state at one distance from the donor."""

    e_off: float         # ionized-donor field, V/m
    screening: float     # enclosed-charge fraction s(r)
    f0q: float           # static quadrupolar energy scale, J


#: Horner coefficients 1/(k+3)!, k = 15 down to 0, of the series
#: s = x^3 e^-x sum_k x^k/(k+3)! in x = 2r; on x < 1 the k > 15 terms
#: add less than 5e-17 of the sum
_SERIES = tuple(1.0 / math.factorial(k + 3) for k in range(15, -1, -1))

#: above x = 800 the tail (1 + x + x^2/2) e^-x is 0 in floats, so s = 1 and
#: log s = 0; x is clipped there so that x^2 stays finite
_LOG_TAIL_END = 800.0


def screening_fraction(r_bohr):
    """Fraction of the 1s electron charge inside radius r (a0* units).

    Equals 1 - (1 + x + x^2/2) e^-x with x = 2r; rises from 0 at the donor
    site to 1 far away, i.e. it is exactly the normalized radial charge
    CDF.  Below x = 1 that difference cancels (all digits are lost by
    r = 1e-8), so there the positive series x^3 e^-x sum x^k/(k+3)! is
    summed instead; above x = 800 it is 1.  Takes a float or an array.
    """
    r = require(r_bohr, "radius", NON_NEGATIVE)
    if isinstance(r, float):
        x = 2.0 * r
        if x < 1.0:
            return _cdf_series(x, math)
        x = min(x, _LOG_TAIL_END)
        return -math.expm1(-x) - (x + 0.5 * x * x) * math.exp(-x)
    tail = np.minimum(r, 0.5 * _LOG_TAIL_END)      # clipped before 2r can overflow
    tail *= 2.0
    out = -np.expm1(-tail) - (tail + 0.5 * tail * tail) * np.exp(-tail)
    small = r < 0.5
    if small.any():
        out[small] = _cdf_series(2.0 * r[small], np)
    return out


def _series_sum(x):
    acc = 0.0
    for c in _SERIES:
        acc = acc * x + c
    return acc


def _cdf_series(x, xp):
    return x * x * x * xp.exp(-x) * _series_sum(x)


def log_screening_fraction(r_bohr):
    """log s(r), finite for every positive float r (a0* units).

    With x = 2r: below x = 1 it is 3 log x - x + log sum x^k/(k+3)!, the
    log of the series :func:`screening_fraction` sums, so it stays finite
    where s itself underflows.  From x = 1 on it is
    log1p(-(1 + x + x^2/2) e^-x), with x clipped to [1, 800] so that x^2
    stays finite (Maechler, "Accurately computing log(1 - exp(-|a|))",
    2012).  Takes a float or an array.
    """
    return _log_screening(require(r_bohr, "radius", POSITIVE))


def _log_screening(r):
    """log s at r > 0, float or array, with no guard."""
    if isinstance(r, float):
        x = 2.0 * r
        if x < 1.0:
            return 3.0 * math.log(x) - x + math.log(_series_sum(x))
        x = min(x, _LOG_TAIL_END)
        return math.log1p(-(1.0 + x + 0.5 * x * x) * math.exp(-x))
    tail = np.clip(r, 0.5, 0.5 * _LOG_TAIL_END)    # clipped before 2r can overflow
    tail *= 2.0
    out = np.log1p(-(1.0 + tail + 0.5 * tail * tail) * np.exp(-tail))
    small = r < 0.5
    if small.any():
        xs = 2.0 * r[small]
        out[small] = 3.0 * np.log(xs) - xs + np.log(_series_sum(xs))
    return out


def screening_density(r_bohr):
    """Radial charge density 4 r^2 exp(-2r); the derivative of the CDF.

    From r = 400 on it is 0.0 in floats, so r is clipped there and r^2
    stays finite.  Takes a float or an array.
    """
    r = require(r_bohr, "radius", NON_NEGATIVE)
    if isinstance(r, float):
        r, exp = min(r, 0.5 * _LOG_TAIL_END), math.exp
    else:
        r, exp = np.minimum(r, 0.5 * _LOG_TAIL_END), np.exp
    return 4.0 * r * r * exp(-2.0 * r)


def coulomb_field(r: float, mat: MaterialRecord) -> float:
    """Unscreened donor field e / (4 pi eps eps0 r^2) in V/m (r in a0* units)."""
    r_m = require(r, "radius", POSITIVE) * mat.bohr_radius
    denominator = 4.0 * math.pi * mat.epsilon * EPSILON_0 * r_m * r_m
    field = E_CHARGE / denominator if denominator else math.inf
    if field == math.inf:
        raise NumericalError(f"Coulomb field at r = {r:g} a0* is out of float range; "
                             "check r, bohr_radius and epsilon")
    return field


def donor_field(r: float, occupancy: float, mat: MaterialRecord) -> FieldPoint:
    """Electric-field state at distance r (a0* units) for donor occupancy in [0, 1]."""
    require(occupancy, "occupancy", UNIT)
    e_off = coulomb_field(r, mat)
    s = screening_fraction(r)
    f0q = HBAR * mat.gamma * (1.0 - s * occupancy) * mat.b_q * e_off
    return FieldPoint(e_off=e_off, screening=s, f0q=f0q)


def hyperfine_field_instant(r: float, mat: MaterialRecord) -> float:
    """Instant hyperfine field b_e*(a0*) exp(-2 (r/a0* - 1)), in T (r in a0* units)."""
    anchor = mat.require_hyperfine_field()
    return anchor * math.exp(-2.0 * (require(r, "radius", NON_NEGATIVE) - 1.0))


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
    ex, ey, ez = require(e_field, "e_field", FINITE).tolist()     # floats: no numpy warnings
    r14 = require(r14, "r14", FINITE)
    st, ct = math.sin(geometry.theta_b), math.cos(geometry.theta_b)
    s2t, c2t = math.sin(2 * geometry.theta_b), math.cos(2 * geometry.theta_b)
    sp, cp = math.sin(geometry.phi_b), math.cos(geometry.phi_b)
    s2p, c2p = math.sin(2 * geometry.phi_b), math.cos(2 * geometry.phi_b)
    components = EfgComponents(
        xx=r14 * (-s2t * sp * ex - s2t * cp * ey + ct * ct * s2p * ez),
        yy=r14 * (-s2p * ez),
        zz=r14 * (s2t * sp * ex + s2t * cp * ey + st * st * s2p * ez),
        yz=r14 * (ct * cp * ex - ct * sp * ey + st * c2p * ez),
        xz=r14 * (c2t * sp * ex + c2t * cp * ey + 0.5 * s2t * s2p * ez),
        xy=r14 * (-st * cp * ex + st * sp * ey + ct * c2p * ez),
    )
    if not all(map(math.isfinite, components)):
        raise NumericalError("EFG components are out of float range; check e_field and r14")
    return components


def field_direction(theta: float, phi: float) -> np.ndarray:
    """Unit vector at polar angle theta from z, azimuth phi from x."""
    return np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])
