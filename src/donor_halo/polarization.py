"""Steady-state nuclear polarization profiles, radii, and field sweeps.

The local steady-state polarization is p = f/(1+f) with f the
hyperfine-to-quadrupolar rate ratio: close to the donor the modulated
field vanishes and nuclei stay fully polarized; further out the
quadrupolar channel wins and the polarization collapses.  The sphere
where the angular-averaged polarization crosses one half defines the
quadrupolar radius, which replaces the spin-diffusion radius in the
nuclear-field estimate.  The power sweep ties all of it to the
excitation power density.

Radial arguments are in units of the effective Bohr radius.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MaterialError, NumericalError
from .fields import Geometry, _log_screening, screening_density, screening_fraction
from .kinetics import (GAMMA_MIN_DIFFUSION, KineticState, invert_power,
                       power_map, power_scale)
from .materials import MaterialRecord
from .numerics import FINITE, POSITIVE, POSITIVE_FINITE, UNIT_OPEN, gauss_legendre, require
from .relaxation import (_LOG_FLOAT_MAX, intrinsic_ratio, log_radial_profile,
                         radial_profile_inverse, rates)

#: no-quadrupolar spin-diffusion radius, in a0* units; the diffusion
#: constant is calibrated so the rate/diffusion balance crosses here
RHO_D_REFERENCE = 1.4

#: root a* of a / sqrt(3 (1+a)) * atan(sqrt(3 / (1+a))) = 1/2: the sphere
#: average p_avg depends on r and f0 only through a = f0 * phi(r), so it
#: crosses one half where f0 * phi(r) = a*, whatever f0 is
A_STAR = 1.811442418380441


def _angular_denominator(theta):
    theta = require(theta, "theta", FINITE)
    cos = math.cos if isinstance(theta, float) else np.cos
    return 1.0 + 3.0 * cos(theta) ** 2


def _log(x):
    return math.log(x) if isinstance(x, float) else np.log(x)


#: f and a are built as exp(min(log, 700)): 1 + e^700 is finite and p = 1
#: there in floats
_LOG_RATIO_CAP = 700.0


def p_point(r, theta, f0):
    """Normalized steady polarization f/(1+f) at (r, theta) for ratio amplitude f0.

    f = f0 * phi(r) / (1 + 3 cos^2 theta) is built from its log, so p is
    finite for every positive float r and f0, never above 1, and exactly
    1 where f exceeds e^700.  Takes floats or arrays (broadcast together).
    """
    f0 = require(f0, "f0", POSITIVE_FINITE)
    log_phi, denominator = log_radial_profile(r), _angular_denominator(theta)
    if isinstance(log_phi, float) and isinstance(f0, float) and isinstance(denominator, float):
        f = math.exp(min(math.log(f0) + log_phi - math.log(denominator), _LOG_RATIO_CAP))
    else:
        f = np.exp(np.minimum(np.log(f0) + log_phi - np.log(denominator), _LOG_RATIO_CAP))
    return f / (1.0 + f)


def p_avg(r, f0):
    """Sphere-averaged polarization, closed form.

    With a = f0 * phi(r) and t = sqrt(3 / (1+a)) the average over the
    solid angle is a/(1+a) * arctan(t)/t.  Both factors are at most 1 in
    floats, and a is built from its log as in :func:`p_point`.  Takes
    floats or arrays.
    """
    log_a = _log(require(f0, "f0", POSITIVE_FINITE)) + log_radial_profile(r)
    if isinstance(log_a, float):
        a = math.exp(min(log_a, _LOG_RATIO_CAP))
        t = math.sqrt(3.0 / (1.0 + a))
        return a / (1.0 + a) * (math.atan(t) / t)
    a = np.exp(np.minimum(log_a, _LOG_RATIO_CAP))
    t = np.sqrt(3.0 / (1.0 + a))
    return a / (1.0 + a) * (np.arctan(t) / t)


def quadrupolar_radius(f0):
    """Radius where the sphere-averaged polarization crosses one half.

    That is phi^-1(A_STAR / f0): unique because phi decreases
    monotonically with distance (a0* units).  Takes a float or an array.
    """
    return radial_profile_inverse(math.log(A_STAR) - _log(require(f0, "f0", POSITIVE_FINITE)))


def half_polarization_radius(theta, f0):
    """Radius where p(r, theta) crosses one half along a fixed direction.

    That is phi^-1((1 + 3 cos^2 theta) / f0).
    """
    log_a = _log(_angular_denominator(theta))
    return radial_profile_inverse(log_a - _log(require(f0, "f0", POSITIVE_FINITE)))


@dataclass(frozen=True)
class RadialProfile:
    """Polarization profile sampled on the caller's grid, plus the derived radii."""

    p_parallel: np.ndarray        # theta = 0 (along the magnetic field)
    p_perpendicular: np.ndarray   # theta = pi/2
    p_avg: np.ndarray
    f0: float
    rho_q: float                  # a0* units
    s_at_rho_q: float
    rho_d: float | None = None    # a0* units, when a diffusion radius was found


def profile(f0: float, r_grid: np.ndarray, rho_d: float | None = None) -> RadialProfile:
    """Tabulate the three polarization curves on a radial grid."""
    grid = np.asarray(r_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
        raise MaterialError("r_grid must be 1-D and strictly increasing")
    rho_q = quadrupolar_radius(f0)
    return RadialProfile(
        p_parallel=p_point(grid, 0.0, f0),
        p_perpendicular=p_point(grid, math.pi / 2.0, f0),
        p_avg=p_avg(grid, f0),
        f0=f0,
        rho_q=rho_q,
        s_at_rho_q=screening_fraction(rho_q),
        rho_d=rho_d if rho_d is None else require(rho_d, "rho_d", POSITIVE_FINITE),
    )


def radius_sweep(f0_grid: np.ndarray) -> np.ndarray:
    """Table (f0, rho_q, s(rho_q)) over a grid of ratio amplitudes.

    Returns an array of shape (n, 3).
    """
    f0 = np.asarray(f0_grid, dtype=float).reshape(-1)
    rho = quadrupolar_radius(f0)
    return np.column_stack((f0, rho, screening_fraction(rho)))


class NuclearField(NamedTuple):
    b_n_step: float    # step-profile estimate, T
    b_n_exact: float   # weighted radial integral of the averaged profile, T


#: truncation radius for the exact nuclear-field integral; the orbital
#: weight beyond it, 313 e^-24, is 1.2e-8 of the fully polarized field
FIELD_INTEGRAL_UPPER = 12.0

#: panel edges of the exact nuclear-field integral: 24 log-spaced panels
#: from 1e-9 to 8, so that the edge of a halo of any size falls in panels
#: of its own scale, and one panel on to FIELD_INTEGRAL_UPPER
_FIELD_PANELS = np.append(np.geomspace(1e-9, 8.0, 25), FIELD_INTEGRAL_UPPER)


def nuclear_field(prof: RadialProfile, mat: MaterialRecord) -> NuclearField:
    """Nuclear hyperfine field from a polarization profile.

    The step estimate replaces the averaged profile by a unit step at the
    quadrupolar radius (capped by the diffusion radius when that is
    smaller), giving b_n0 * s(rho).  The exact value integrates the
    averaged profile against the orbital weight, by the composite
    Gauss-Legendre rule with one more panel edge at rho_q, where the
    profile turns over.
    """
    rho_eff = prof.rho_q if prof.rho_d is None else min(prof.rho_q, prof.rho_d)
    step = mat.b_n0 * screening_fraction(rho_eff)
    edges = _FIELD_PANELS
    if edges[0] < prof.rho_q < edges[-1]:
        edges = np.insert(edges, np.searchsorted(edges, prof.rho_q), prof.rho_q)
    value = gauss_legendre(lambda r: screening_density(r) * p_avg(r, prof.f0), edges)
    return NuclearField(b_n_step=step, b_n_exact=mat.b_n0 * value)


# --- spin diffusion ---------------------------------------------------------

def _hyperfine_rate(r: float, state: KineticState, b_field: float,
                    mat: MaterialRecord) -> float:
    return rates(r, Geometry(), state, b_field, mat).inv_t1h


def calibrate_diffusion(state: KineticState, b_field: float, mat: MaterialRecord) -> float:
    """Diffusion constant (m^2/s) placing the no-quadrupolar balance at RHO_D_REFERENCE.

    Chosen once so that the hyperfine rate alone equals D/rho^2 at the
    reference radius, on the outward (decreasing) branch; then held fixed.
    """
    r_m = RHO_D_REFERENCE * mat.bohr_radius
    return r_m * r_m * _hyperfine_rate(RHO_D_REFERENCE, state, b_field, mat)


class DiffusionRadius(NamedTuple):
    value: float | None   # a0* units; None when diffusion wins everywhere
    has_solution: bool


#: root of 4 r^3 e^{-2r} = s(r), where s(r)^2 / r^2 peaks: past it both
#: channels of the diffusion balance fall with r
R_B = 1.6918171414265903
_LOG_R_B = math.log(R_B)
_LOG_2 = math.log(2.0)


def _last_positive(func, lo: float, hi: float) -> float:
    """Bisect [lo, hi], to a few ulps, for where func turns from > 0 to <= 0."""
    resolution = 8.0 * sys.float_info.epsilon * max(1.0, abs(lo), abs(hi))
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if func(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def diffusion_radius(state: KineticState, b_field: float, diffusion_constant: float,
                     mat: MaterialRecord, *, f0: float | None = None) -> DiffusionRadius:
    """Largest radius where direct relaxation still matches spin diffusion.

    Balances the geometry-averaged total relaxation rate against
    D / rho^2 and returns the outermost crossing; inside it, diffusion
    is negligible.  When the rate never reaches the diffusion efficiency
    the returned value is None (diffusion dominates at all distances).

    The quadrupolar channel enters through the angular-averaged inverse
    ratio 2/(f0 * phi(r)); by default f0 follows from the kinetic state,
    and can be overridden to probe a prescribed competition strength.
    f0 = inf turns the channel off: the balance is then the hyperfine
    rate alone against diffusion.  A derived f0 past the float range
    (occupancy below about 1e-321) is that inf.

    On u = log r the balance is L = log(Gamma_1 a0*^2 / D) + log(r^2
    e^{-4(r-1)} + 2 s^2 / (f0 r^2)), Gamma_1 the hyperfine rate at r = 1.
    L rises below r = 1/2, falls past R_B, and has one maximum between,
    found by bisecting the sign of dL/du; the value is None exactly when
    L <= 0 there.  Otherwise the root is bisected between the maximum and
    a closed-form end past which each channel is below D/2; a root past
    the largest float raises NumericalError.
    """
    require(diffusion_constant, "diffusion constant", POSITIVE_FINITE)
    if f0 is None:
        occ = require(state.occupancy, "occupancy", UNIT_OPEN)
        f0 = intrinsic_ratio(mat) / (occ * (1.0 - occ))     # inf past the float range
    log_quad = _LOG_2 - math.log(require(f0, "f0", POSITIVE))   # -inf at f0 = inf
    rate_bohr = _hyperfine_rate(1.0, state, b_field, mat)
    if not rate_bohr > 0.0:
        return DiffusionRadius(value=None, has_solution=False)
    log_0 = math.log(rate_bohr * mat.bohr_radius ** 2) - math.log(diffusion_constant)

    def balance(u: float) -> tuple[float, float]:
        """L and dL/du at r = e^u."""
        r = math.exp(u)
        log_s = _log_screening(r)
        hyper = 2.0 * u - 4.0 * (r - 1.0)       # log r^2 e^{-4(r-1)}
        quad = log_quad + 2.0 * (log_s - u)     # log 2 s^2 / (f0 r^2)
        total = max(hyper, quad) + math.log1p(math.exp(-abs(hyper - quad)))
        # d/du of the channels: 2 - 4r, and 2 r s'/s - 2 with r s' = 4 r^3 e^{-2r}
        slope = (math.exp(hyper - total) * (2.0 - 4.0 * r) + math.exp(quad - total)
                 * (math.exp(3.0 * (u + _LOG_2) - 2.0 * r - log_s) - 2.0))
        return log_0 + total, slope

    peak = _last_positive(lambda u: balance(u)[1], -_LOG_2, _LOG_R_B)
    if not balance(peak)[0] > 0.0:
        return DiffusionRadius(value=None, has_solution=False)
    # past far each channel is below D/2, as log r <= r - 1 and s <= 1
    far = max(_LOG_R_B, math.log(1.0 + max(log_0 + _LOG_2, 0.0) / 2.0),
              (log_0 + log_quad + _LOG_2) / 2.0)
    if far > _LOG_FLOAT_MAX and balance(_LOG_FLOAT_MAX)[0] > 0.0:
        raise NumericalError(f"diffusion radius lies past {sys.float_info.max:g} a0*")
    root = _last_positive(lambda u: balance(u)[0], peak, min(far, _LOG_FLOAT_MAX))
    return DiffusionRadius(value=math.exp(root), has_solution=True)


# --- excitation-power sweep --------------------------------------------------

@dataclass(frozen=True)
class PowerSweep:
    """Power dependence of the occupancy, radii and reduced nuclear field."""

    p_over_p0: np.ndarray
    occupancy: np.ndarray
    nf_over_na: np.ndarray
    s_rho_q: np.ndarray          # screening at the effective (capped) radius
    alpha_n: np.ndarray          # reduced nuclear field
    diffusion_flag: np.ndarray   # True where bulk spin diffusion dominates
    f00: float
    rho_d: float                 # cap radius used, a0* units


def power_sweep(p_over_p0: np.ndarray, mat: MaterialRecord, *,
                quadrupolar: bool = True) -> PowerSweep:
    """Sweep the excitation power and track the reduced nuclear field.

    Per point: occupancy by inverting the power map; free-electron
    density from the carrier balance; the competition amplitude from the
    occupancy; the quadrupolar radius (capped by the diffusion radius)
    and its screening fraction; and the reduced nuclear field
    alpha_n = [occ N_D / (n_f + occ N_D)] * s(rho).  Points below
    GAMMA_MIN_DIFFUSION are computed anyway but flagged: there bulk spin
    diffusion dominates and the local model is not valid.

    The diffusion cap is RHO_D_REFERENCE.  With quadrupolar=False the
    radius saturates at that cap, the no-relaxation ceiling.
    """
    grid = require(p_over_p0, "P/P0", POSITIVE_FINITE)
    if np.ndim(grid) != 1 or grid.size == 0:
        raise MaterialError("power grid must be 1-D and non-empty")
    f00 = intrinsic_ratio(mat)
    with np.errstate(over="ignore"):        # an infinite power is the plateau
        power = grid * power_scale(mat)
    occ = invert_power(power, mat)
    nf = power_map(occ, mat).free_density
    if quadrupolar:
        rho_eff = np.minimum(quadrupolar_radius(f00 / (occ * (1.0 - occ))),
                             RHO_D_REFERENCE)
    else:
        rho_eff = np.full_like(grid, RHO_D_REFERENCE)
    s_rho = screening_fraction(rho_eff)
    trapped = occ * mat.donor_density
    return PowerSweep(
        p_over_p0=grid,
        occupancy=occ,
        nf_over_na=nf / mat.acceptor_density,
        s_rho_q=s_rho,
        alpha_n=trapped / (nf + trapped) * s_rho,
        diffusion_flag=occ < GAMMA_MIN_DIFFUSION,
        f00=f00,
        rho_d=RHO_D_REFERENCE,
    )
