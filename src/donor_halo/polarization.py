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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MaterialError
from .fields import Geometry, screening_density, screening_fraction
from .kinetics import (GAMMA_MIN_DIFFUSION, KineticState, invert_power,
                       power_map, power_scale)
from .materials import MaterialRecord
from .numerics import as_operand, gauss_legendre, solve
from .relaxation import (intrinsic_ratio, radial_profile, radial_profile_inverse,
                         rates)

#: no-quadrupolar spin-diffusion radius, in a0* units; the diffusion
#: constant is calibrated so the rate/diffusion balance crosses here
RHO_D_REFERENCE = 1.4

_SQRT3 = math.sqrt(3.0)


#: root a* of a / sqrt(3 (1+a)) * atan(sqrt(3 / (1+a))) = 1/2: the sphere
#: average p_avg depends on r and f0 only through a = f0 * phi(r), so it
#: crosses one half where f0 * phi(r) = a*, whatever f0 is
A_STAR = 1.811442418380441


def _positive_finite(value, what: str):
    """value (float or array) as an operand; MaterialError unless 0 < value < inf."""
    if isinstance(value, float):
        if 0.0 < value < math.inf:
            return value
    else:
        value = as_operand(value)
        if np.all((0.0 < value) & (value < math.inf)):
            return value
    raise MaterialError(f"{what} must be positive and finite")


def _angular_denominator(theta):
    theta = as_operand(theta)
    cos = math.cos if isinstance(theta, float) else np.cos
    return 1.0 + 3.0 * cos(theta) ** 2


def p_point(r, theta, f0):
    """Normalized steady polarization at (r, theta) for ratio amplitude f0.

    Takes floats or arrays (broadcast together).
    """
    r, f0 = _positive_finite(r, "r and f0"), _positive_finite(f0, "r and f0")
    f = f0 * radial_profile(r) / _angular_denominator(theta)
    return f / (1.0 + f)


def p_avg(r, f0):
    """Sphere-averaged polarization, closed form.

    With a = f0 * phi(r) the average over the solid angle is
    a / sqrt(3 (1+a)) * arctan(sqrt(3 / (1+a))).  Takes floats or arrays.
    """
    r, f0 = _positive_finite(r, "r and f0"), _positive_finite(f0, "r and f0")
    a = f0 * radial_profile(r)
    if isinstance(a, float):
        root = math.sqrt(1.0 + a)
        return a / (_SQRT3 * root) * math.atan(_SQRT3 / root)
    root = np.sqrt(1.0 + a)
    return a / (_SQRT3 * root) * np.arctan(_SQRT3 / root)


def _radius_where(f0, a):
    """phi^-1(a / f0): the radius where f0 * phi(r) = a."""
    f0 = _positive_finite(f0, "f0")
    if isinstance(f0, float) and isinstance(a, float):
        return radial_profile_inverse(a / f0)
    with np.errstate(over="ignore"):    # an infinite target is refused as such
        return radial_profile_inverse(a / f0)


def quadrupolar_radius(f0):
    """Radius where the sphere-averaged polarization crosses one half.

    That is phi^-1(A_STAR / f0): unique because phi decreases
    monotonically with distance (a0* units).  Takes a float or an array.
    """
    return _radius_where(f0, A_STAR)


def half_polarization_radius(theta, f0):
    """Radius where p(r, theta) crosses one half along a fixed direction.

    That is phi^-1((1 + 3 cos^2 theta) / f0).
    """
    return _radius_where(f0, _angular_denominator(theta))


@dataclass(frozen=True)
class RadialProfile:
    """Sampled polarization profile plus the derived radii."""

    r_grid: np.ndarray
    p_parallel: np.ndarray        # theta = 0 (along the magnetic field)
    p_perpendicular: np.ndarray   # theta = pi/2
    p_avg: np.ndarray
    f0: float
    rho_q: float                  # a0* units
    s_at_rho_q: float
    rho_d: float | None = None    # a0* units, when a diffusion solve was done


def profile(f0: float, r_grid: np.ndarray, rho_d: float | None = None) -> RadialProfile:
    """Tabulate the three polarization curves on a radial grid."""
    grid = np.asarray(r_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0) \
            or grid[0] <= 0.0:
        raise MaterialError("r_grid must be 1-D, positive and strictly increasing")
    rho_q = quadrupolar_radius(f0)
    return RadialProfile(
        r_grid=grid,
        p_parallel=p_point(grid, 0.0, f0),
        p_perpendicular=p_point(grid, math.pi / 2.0, f0),
        p_avg=p_avg(grid, f0),
        f0=f0,
        rho_q=rho_q,
        s_at_rho_q=screening_fraction(rho_q),
        rho_d=rho_d,
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


def calibrate_diffusion(state: KineticState, b_field: float, mat: MaterialRecord,
                        target: float = RHO_D_REFERENCE) -> float:
    """Diffusion constant (m^2/s) placing the no-quadrupolar balance at target.

    Chosen once so that the hyperfine rate alone equals D/rho^2 at the
    reference radius, on the outward (decreasing) branch; then held fixed.
    """
    if target <= 0.5:
        raise MaterialError("calibration target must sit on the outer branch")
    r_m = target * mat.bohr_radius
    return r_m * r_m * _hyperfine_rate(target, state, b_field, mat)


class DiffusionRadius(NamedTuple):
    value: float | None   # a0* units; None when diffusion wins everywhere
    has_solution: bool


def diffusion_radius(state: KineticState, b_field: float, diffusion_constant: float,
                     mat: MaterialRecord, *, include_quadrupolar: bool = True,
                     f0: float | None = None, r_max: float = 60.0,
                     tol: float = 1e-6) -> DiffusionRadius:
    """Largest radius where direct relaxation still matches spin diffusion.

    Balances the geometry-averaged total relaxation rate against
    D / rho^2 and returns the outermost crossing; inside it, diffusion
    is negligible.  When the rate never reaches the diffusion efficiency
    the returned value is None (diffusion dominates at all distances).

    The quadrupolar channel enters through the angular-averaged inverse
    ratio 2/(f0 * phi(r)); by default f0 follows from the kinetic state,
    and can be overridden to probe a prescribed competition strength.
    """
    if diffusion_constant <= 0.0:
        raise MaterialError("diffusion constant must be positive")
    occ = state.occupancy
    if include_quadrupolar:
        if f0 is None:
            if not 0.0 < occ < 1.0:
                raise MaterialError("quadrupolar channel needs partial occupancy")
            f0 = intrinsic_ratio(mat) / (occ * (1.0 - occ))
    # both rates share the e^{-4(r-1)} hyperfine envelope, and in the
    # quadrupolar one it cancels against the radial factor; evaluating the
    # cancelled forms keeps the balance finite far outside the orbit
    rate_bohr = _hyperfine_rate(1.0, state, b_field, mat)

    def excess(r: np.ndarray) -> np.ndarray:
        rate = rate_bohr * np.exp(-4.0 * (r - 1.0))
        if include_quadrupolar:
            s = screening_fraction(r)
            rate = rate + rate_bohr * 2.0 * s * s / (f0 * r ** 4)
        r_m = r * mat.bohr_radius
        return rate * r_m * r_m - diffusion_constant

    grid = np.geomspace(1e-3, r_max, 600)
    values = excess(grid)
    crossings = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    if crossings.size == 0 or values[crossings[-1]] <= 0.0:
        # never crosses from relaxation-dominant to diffusion-dominant
        return DiffusionRadius(value=None, has_solution=False)
    left = crossings[-1]
    # excess falls through zero on [grid[left], grid[left + 1]]
    root = solve(lambda r: -excess(r), grid[left:left + 1], grid[left + 1:left + 2],
                 what="diffusion radius", done=lambda r, f, lo, hi: hi - lo < tol)
    return DiffusionRadius(value=float(root[0]), has_solution=True)


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
    quadrupolar: bool


def power_sweep(p_over_p0: np.ndarray, mat: MaterialRecord, *,
                rho_d: float = RHO_D_REFERENCE, quadrupolar: bool = True,
                gamma_min: float = GAMMA_MIN_DIFFUSION) -> PowerSweep:
    """Sweep the excitation power and track the reduced nuclear field.

    Per point: occupancy by inverting the power map; free-electron
    density from the carrier balance; the competition amplitude from the
    occupancy; the quadrupolar radius (capped by the diffusion radius)
    and its screening fraction; and the reduced nuclear field
    alpha_n = [occ N_D / (n_f + occ N_D)] * s(rho).  Points below
    gamma_min are computed anyway but flagged: there bulk spin diffusion
    dominates and the local model is not valid.

    With quadrupolar=False the radius saturates at the diffusion cap, the
    no-relaxation ceiling.
    """
    grid = np.asarray(p_over_p0, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0.0):
        raise MaterialError("power grid must be 1-D and positive")
    f00 = intrinsic_ratio(mat)
    occ = invert_power(grid * power_scale(mat), mat)
    nf = power_map(occ, mat).free_density
    if quadrupolar:
        rho_eff = np.minimum(quadrupolar_radius(f00 / (occ * (1.0 - occ))), rho_d)
    else:
        rho_eff = np.full_like(grid, rho_d)
    s_rho = screening_fraction(rho_eff)
    trapped = occ * mat.donor_density
    return PowerSweep(
        p_over_p0=grid,
        occupancy=occ,
        nf_over_na=nf / mat.acceptor_density,
        s_rho_q=s_rho,
        alpha_n=trapped / (nf + trapped) * s_rho,
        diffusion_flag=occ < gamma_min,
        f00=f00,
        rho_d=rho_d,
        quadrupolar=quadrupolar,
    )
