"""Donor occupancy, telegraph-noise statistics, and the excitation-power map.

Photoelectron trapping and recombination make the donor charge state a
two-state Markov (telegraph) process, fixed by its two dwell times: the
occupancy is tau_occupied / (tau_occupied + tau_empty).  This module
carries the closed forms of that process: the steady-state occupancy and
correlation times, the exact two-state correlation function, the
Lorentzian spectral density, and the steady-state carrier balance
linking donor occupancy to the excitation power density.  The
matrix-exponential and Fourier-quadrature oracles live in
:mod:`donor_halo.oracles`, and the seeded Monte Carlo simulator that
checks the correlation function in :mod:`donor_halo.telegraph`.

Pure functions throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BracketError, MaterialError
from .materials import MaterialRecord
from .numerics import (FINITE, MAX_STEPS, NON_NEGATIVE, NON_NEGATIVE_FINITE, POSITIVE,
                       POSITIVE_FINITE, UNIT, UNIT_BELOW_ONE, UNIT_OPEN, any_true, ensure,
                       require)

#: below this donor occupancy, bulk spin diffusion dominates the nuclear
#: polarization and the local steady-state model loses validity
GAMMA_MIN_DIFFUSION = 0.15


@dataclass(frozen=True)
class KineticState:
    """Steady-state carrier kinetics around one donor."""

    occupancy: float        # fraction of time the donor holds an electron
    free_density: float     # free-electron density, m^-3
    tau_quad: float         # correlation time of the quadrupolar modulation, s
    tau_hyper: float        # correlation time of the hyperfine coupling, s


def occupancy(free_density: float, mat: MaterialRecord) -> KineticState:
    """Kinetic state for a given free-electron density.

    The donor occupancy follows from balancing capture against
    recombination; the quadrupolar correlation time combines the
    recombination and capture lifetimes.  The hyperfine correlation time
    is the spin-exchange time 1/(sigma_exchange * v * n_f), infinite at
    n_f = 0.
    """
    require(free_density, "free-electron density", NON_NEGATIVE_FINITE)
    tau_r = mat.recombination_time
    capture_rate = mat.sigma_capture * mat.velocity * free_density
    gamma_t = capture_rate * tau_r / (1.0 + capture_rate * tau_r)
    tau_quad = 1.0 / (1.0 / tau_r + capture_rate)
    exchange_rate = mat.sigma_exchange * mat.velocity * free_density
    tau_hyper = 1.0 / exchange_rate if exchange_rate > 0.0 else math.inf
    return KineticState(occupancy=gamma_t, free_density=free_density,
                        tau_quad=tau_quad, tau_hyper=tau_hyper)


def state_for_occupancy(gamma_t: float, mat: MaterialRecord) -> KineticState:
    """Kinetic state whose steady occupancy equals gamma_t (fixed tau_r)."""
    if require(gamma_t, "occupancy", UNIT_BELOW_ONE) == 0.0:
        return occupancy(0.0, mat)
    capture = (1.0 - gamma_t) * mat.sigma_capture * mat.velocity * mat.recombination_time
    n_f = ensure(gamma_t / capture if capture else math.inf,
                 "free-electron density in m^-3 (check sigma_capture, velocity and "
                 "recombination_time)", NON_NEGATIVE_FINITE)
    return occupancy(n_f, mat)


# --- telegraph correlation -------------------------------------------------

def telegraph_values(occ: float, screening: float) -> tuple[float, float]:
    """Fractional field modulation (h_empty, h_occupied); zero mean by weight."""
    require(occ, "occupancy", UNIT)
    require(screening, "screening", UNIT_BELOW_ONE)
    denom = 1.0 - screening * occ
    return screening * occ / denom, -screening * (1.0 - occ) / denom


def telegraph_amplitude(occ: float, screening: float) -> float:
    """Zero-lag correlation occ(1-occ) s^2 / (1 - s*occ)^2."""
    h_empty, h_occ = telegraph_values(occ, screening)
    return (1.0 - occ) * h_empty ** 2 + occ * h_occ ** 2


def dwell_occupancy(tau_occupied: float, tau_empty: float) -> float:
    """Stationary occupancy tau_occupied / (tau_occupied + tau_empty).

    The two dwell times fix the telegraph process completely; this is the
    fraction of time it spends occupied.
    """
    require(tau_occupied, "dwell times", POSITIVE_FINITE)
    require(tau_empty, "dwell times", POSITIVE_FINITE)
    return tau_occupied / (tau_occupied + tau_empty)


def telegraph_p_matrix(tau: float, tau_occupied: float, tau_empty: float) -> np.ndarray:
    """Closed-form conditional probabilities of the two-state process.

    Row alpha, column beta is P(state beta at lag tau | state alpha at 0),
    states ordered [empty, occupied]; every row relaxes exponentially to
    the stationary weights (1-occ, occ) at total rate
    1/tau_occupied + 1/tau_empty.
    """
    occ = dwell_occupancy(tau_occupied, tau_empty)
    lag = require(abs(tau), "|tau|", NON_NEGATIVE)
    stationary = np.array([1.0 - occ, occ])
    decay = math.exp(-lag * (1.0 / tau_occupied + 1.0 / tau_empty))
    return stationary[None, :] + (np.eye(2) - stationary[None, :]) * decay


def telegraph_correlation(tau: float, screening: float,
                          tau_occupied: float, tau_empty: float) -> float:
    """Exact autocorrelation of the field modulation at lag tau."""
    lag = require(abs(tau), "|tau|", NON_NEGATIVE)
    amplitude = telegraph_amplitude(dwell_occupancy(tau_occupied, tau_empty), screening)
    return amplitude * math.exp(-lag * (1.0 / tau_occupied + 1.0 / tau_empty))


# --- spectral density -------------------------------------------------------

def spectral_density(omega: float, amplitude: float, tau_c: float) -> float:
    """Lorentzian spectral density 2 * amplitude * tau_c / (1 + omega^2 tau_c^2)."""
    require(omega, "omega", FINITE)
    require(amplitude, "amplitude", FINITE)
    require(tau_c, "correlation time", POSITIVE_FINITE)
    x = omega * tau_c     # x * x, unlike x ** 2, overflows to inf and J to 0
    return ensure(2.0 * amplitude * tau_c / (1.0 + x * x),
                  "spectral density (check amplitude and tau_c)", FINITE)


# --- excitation power map ---------------------------------------------------

class PowerPoint(NamedTuple):
    power: float         # excitation power density, W/m^2
    p0: float            # doping-dependent power scale, W/m^2
    free_density: float  # m^-3


def gamma_ceiling(mat: MaterialRecord) -> float:
    """Largest occupancy reachable at any power: 1 / (1 + k/(sigma_c v))."""
    return 1.0 / (1.0 + mat.bimolecular_k / (mat.sigma_capture * mat.velocity))


def power_scale(mat: MaterialRecord) -> float:
    """P0 = L * h_nu * k * N_A * N_D."""
    return (mat.diffusion_length * mat.photon_energy * mat.bimolecular_k
            * mat.acceptor_density * mat.donor_density)


def power_map(gamma_t, mat: MaterialRecord) -> PowerPoint:
    """Excitation power density that sustains donor occupancy gamma_t.

    Solves the full steady-state balance: the free-electron density
    follows from the trapping balance, the hole population from charge
    neutrality, and the generation rate from the free-electron budget;
    power is the generation rate times (diffusion length * photon
    energy).  Takes a float or an array of occupancies; the fields follow
    suit (p0 stays a float).
    """
    gamma_t = require(gamma_t, "occupancy", UNIT_OPEN)
    capture = mat.sigma_capture * mat.velocity
    denom = capture * (1.0 - gamma_t) - mat.bimolecular_k * gamma_t
    if any_true(denom <= 0.0):
        raise MaterialError(f"capture-limited ceiling exceeded: occupancy {np.max(gamma_t)} "
                            f"is not reachable (max {gamma_ceiling(mat):.6f})")
    n_f = (mat.bimolecular_k * gamma_t
           * (mat.acceptor_density + gamma_t * mat.donor_density) / denom)
    generation = n_f * (
        (capture * (1.0 - gamma_t) + mat.bimolecular_k * gamma_t) * mat.donor_density
        + mat.bimolecular_k * (n_f + mat.acceptor_density)
    )
    return PowerPoint(
        power=generation * mat.diffusion_length * mat.photon_energy,
        p0=power_scale(mat),
        free_density=n_f,
    )


#: relative power mismatch at which invert_power stops
_POWER_RTOL = 1e-10


def invert_power(power, mat: MaterialRecord):
    """Occupancy sustained by a given power density (bisection).

    The power map is strictly increasing on (0, gamma_ceiling) and onto
    (0, inf), so the bisection always converges.  A power below the one
    at the floor of the bracket, occupancy 1e-16, raises BracketError.
    Beyond the top of the bracket the occupancy sits on its asymptotic
    plateau, and the top is returned.  Takes a float, bisected on floats,
    or an array, bisected in lockstep through the same midpoints, so both
    give identical occupancies.
    """
    power = require(power, "power", POSITIVE)
    lo, hi = 1e-16, gamma_ceiling(mat) * (1.0 - 1e-14)
    resolved = 4.0 * sys.float_info.epsilon      # bracket width relative to hi
    floor = power_map(lo, mat).power
    if any_true(power < floor):
        raise BracketError(f"power {np.min(power):.6g} W/m^2 is below {floor:.6g} W/m^2, "
                           f"which sustains occupancy {lo:g}")
    if not isinstance(power, float):
        top, tol = hi, _POWER_RTOL * power
        lo, hi = np.full(power.shape, lo), np.full(power.shape, hi)
        occ = 0.5 * (lo + hi)
        active = np.ones(power.shape, dtype=bool)
        for _ in range(MAX_STEPS):
            value = power_map(occ, mat).power
            active &= (np.abs(value - power) > tol) & (hi - lo > resolved * hi)
            if not active.any():
                return np.where(power_map(top, mat).power < power, top, occ)
            below = value < power
            np.copyto(lo, occ, where=active & below)
            np.copyto(hi, occ, where=active & ~below)
            np.copyto(occ, 0.5 * (lo + hi), where=active)
        raise BracketError("power inversion did not converge")
    if power_map(hi, mat).power < power:
        return hi             # asymptotic plateau beyond any finite bracket
    for _ in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        value = power_map(mid, mat).power
        if abs(value - power) <= _POWER_RTOL * power:
            return mid
        if hi - lo <= resolved * hi:
            # occupancy resolved to machine precision; near the ceiling
            # pole the power tolerance itself is unreachable in floats
            return mid
        if value < power:
            lo = mid
        else:
            hi = mid
    raise BracketError("power inversion did not converge")
