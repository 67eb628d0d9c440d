"""Spin-lattice relaxation rates and the hyperfine/quadrupolar competition.

Two channels relax a nucleus near the donor: the fluctuating hyperfine
contact field of the trapped electron (which also polarizes the
nucleus) and the trapping-modulated quadrupolar coupling (which only
depolarizes).  Their ratio f factorizes into an amplitude set by
material constants and occupancy, a steep radial profile, and a simple
angular denominator; that factorization is what the polarization
profiles are built from, and the raw rate quotient is kept around as a
consistency oracle for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MaterialError, NumericalError
from .fields import (Geometry, donor_field, hyperfine_field_instant,
                     log_screening_fraction)
from .kinetics import KineticState, spectral_density
from .materials import MaterialRecord
from .numerics import MAX_STEPS, all_true, as_operand
from .spin_algebra import angular_factor, transition_moment


@dataclass(frozen=True)
class RateBundle:
    """Both relaxation rates at one operating point."""

    inv_t1q: float       # quadrupolar rate, 1/s
    inv_t1h: float       # hyperfine rate, 1/s
    omega_1: float       # single-quantum nuclear transition frequency, rad/s
    omega_2: float       # double-quantum frequency (exactly 2 omega_1), rad/s
    omega_h: float       # electron-nucleus flip-flop frequency, rad/s
    f: float             # rate ratio inv_t1h / inv_t1q (inf when t1q never relaxes)


@dataclass(frozen=True)
class CompetitionFactors:
    """Factorized form of the hyperfine-to-quadrupolar rate ratio."""

    f00: float                  # intrinsic amplitude, independent of conditions
    f0: float                   # occupancy-scaled amplitude f00 / [occ (1-occ)]
    radial: float               # dimensionless radial profile phi(r)
    angular_denominator: float  # 1 + 3 cos^2(theta)
    f: float                    # full ratio f0 * radial / angular_denominator


def rates(r: float, geometry: Geometry, state: KineticState, b_field: float,
          mat: MaterialRecord, *, nuclear_field: float = 0.0,
          electron_spin_sign: int = +1) -> RateBundle:
    """Relaxation rates at reduced distance r for one kinetic state.

    The quadrupolar rate is proportional to occ(1-occ) and to the square
    of the modulated field amplitude b_q E_off s(r); the hyperfine rate
    is proportional to occ and the square of the instant hyperfine
    field.  nuclear_field shifts the electron flip-flop frequency by
    +/- gamma_e B_n according to electron_spin_sign; the default ignores
    that feedback.
    """
    if electron_spin_sign not in (+1, -1):
        raise MaterialError("electron_spin_sign must be +1 or -1")
    if b_field < 0.0:
        raise MaterialError("b_field must be non-negative")
    occ = state.occupancy
    point = donor_field(r, occ, mat)
    omega_1 = mat.gamma * b_field
    omega_2 = 2.0 * omega_1
    # modulation amplitude: the full ionized-donor field times s(r)
    coupling = mat.gamma * mat.b_q * point.e_off * point.screening
    k1 = angular_factor(1, geometry.theta, mat.spin)
    k2 = angular_factor(2, geometry.theta, mat.spin)
    inv_t1q = occ * (1.0 - occ) * coupling * coupling * (
        k1 * spectral_density(omega_1, 1.0, state.tau_quad)
        + k2 * spectral_density(omega_2, 1.0, state.tau_quad)
    )
    omega_h = mat.gamma_e * (b_field + electron_spin_sign * nuclear_field)
    b_e = hyperfine_field_instant(r, mat)
    if math.isinf(state.tau_hyper):
        inv_t1h = 0.0
    else:
        inv_t1h = occ * (mat.gamma * b_e) * (mat.gamma * b_e) \
            * spectral_density(omega_h, 1.0, state.tau_hyper)
    f = inv_t1h / inv_t1q if inv_t1q > 0.0 else math.inf
    return RateBundle(inv_t1q=inv_t1q, inv_t1h=inv_t1h,
                      omega_1=omega_1, omega_2=omega_2, omega_h=omega_h, f=f)


#: largest x with a finite exp(x)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def log_radial_profile(r):
    """log phi(r) = 4 - 4r + 4 log r - 2 log s(r), finite for every positive float r.

    phi(r) = e^{-4(r-1)} r^4 / s(r)^2 is the radial factor of the rate
    ratio (r in a0* units): it diverges at the donor (the modulated field
    vanishes faster than the hyperfine one) and decreases monotonically
    outward.  Takes a float or an array.
    """
    if not isinstance(r, float):
        r = as_operand(r)
    log_s = log_screening_fraction(r)     # raises unless r > 0
    log = math.log if isinstance(r, float) else np.log
    return 4.0 - 4.0 * r + 4.0 * log(r) - 2.0 * log_s


def radial_profile(r):
    """Radial factor phi(r) = exp(:func:`log_radial_profile`); float or array.

    phi passes the float range for r below about 4e-154 a0*; there a
    float or an array raises NumericalError (log_radial_profile stays
    finite).
    """
    log_phi = log_radial_profile(r)
    if isinstance(log_phi, float):
        if log_phi <= _LOG_FLOAT_MAX:
            return math.exp(log_phi)
    elif all_true(log_phi <= _LOG_FLOAT_MAX):
        return np.exp(log_phi)
    raise NumericalError("phi(r) exceeds the float range for r below about 4e-154 a0*; "
                         "use log_radial_profile")


_LOG_2 = math.log(2.0)
#: near the donor phi(r) -> (9/16) e^4 / r^2 from above; phi^-1 starts
#: from that asymptote, capped at r = 8 a0*
_LOG_SMALL_R_SCALE = math.log(9.0 / 16.0) + 4.0
_LOG_R_START_MAX = math.log(8.0)
#: far out log phi(r) -> 4 - 4r + 4 log r; below this log target (r beyond
#: about 250 a0*, past every radius, whose targets are -710 or more)
#: phi^-1 starts from r = -log_target / 4, which the capped steps from
#: r = 8 do not reach for targets below about -1e170
_FAR_LOG_TARGET = -1e3
#: largest Newton step of phi^-1, in log r
_MAX_LOG_STEP = 2.0
#: relative size (of u, or of 1 near u = 0) of a step or a bracket that
#: ends phi^-1: a few ulps
_RESOLUTION = 8.0 * np.finfo(float).eps


def _log_profile_on_log_r(u):
    """log phi and its slope d log phi / d log r at r = e^u (float or array).

    The slope is 4 - 4r - x^3 e^-x / s(r) with x = 2r, taken as one exp of
    logs so that it stays finite where s underflows.
    """
    exp = math.exp if isinstance(u, float) else np.exp
    r = exp(u)
    log_s = log_screening_fraction(r)
    return (4.0 - 4.0 * r + 4.0 * u - 2.0 * log_s,
            4.0 - 4.0 * r - exp(3.0 * (u + _LOG_2) - 2.0 * r - log_s))


def radial_profile_inverse(log_target):
    """Radius where log phi(r) equals log_target, for a float or an array.

    phi decreases strictly from +inf at the donor to 0 far away, so each
    finite log target has one root; it is found for every finite log
    target up to about 1490 (the radii pass -710 to 746).  The search runs
    on u = log r, where log phi is smooth.  It starts from the near-donor
    asymptote (capped at r = 8), or for log targets below -1000 from the
    far-field root r = -log_target / 4, takes Newton steps clipped to +-2,
    learns a bracket from the signs of log phi - log_target, and bisects
    only where a step leaves a bracket whose two ends are both known.  It
    stops when the step or the bracket is a few ulps of u, so r is found
    to a few 1e-16 relative for the radii, and far out to the rounding of
    u itself (3e-14 at r = 1e299).  An array runs the same iteration in
    lockstep; each element freezes once it has converged.
    """
    log_t = as_operand(log_target)
    if not all_true(abs(log_t) < math.inf):
        raise MaterialError("phi^-1 needs a finite log target")
    if isinstance(log_t, float):
        lo, hi = -math.inf, math.inf
        if log_t < _FAR_LOG_TARGET:
            u = math.log(-0.25 * log_t)
        else:
            u = min(0.5 * (_LOG_SMALL_R_SCALE - log_t), _LOG_R_START_MAX)
        for _ in range(MAX_STEPS):
            log_phi, slope = _log_profile_on_log_r(u)
            g = log_phi - log_t
            if g > 0.0:
                lo = u
            else:
                hi = u
            step = max(-_MAX_LOG_STEP, min(_MAX_LOG_STEP, g / slope))
            resolution = _RESOLUTION * max(1.0, abs(u))
            if abs(step) <= resolution or hi - lo <= resolution:
                return math.exp(u - step)
            u -= step
            if not lo < u < hi:
                u = 0.5 * (lo + hi)
        raise NumericalError(f"phi^-1 did not converge for log target {log_t}")
    lo, hi = np.full(log_t.shape, -np.inf), np.full(log_t.shape, np.inf)
    u = np.minimum(0.5 * (_LOG_SMALL_R_SCALE - log_t), _LOG_R_START_MAX)
    far = log_t < _FAR_LOG_TARGET
    u[far] = np.log(-0.25 * log_t[far])
    active = np.ones(log_t.shape, dtype=bool)
    for _ in range(MAX_STEPS):
        log_phi, slope = _log_profile_on_log_r(u)
        g = log_phi - log_t
        above = g > 0.0
        np.copyto(lo, u, where=above)
        np.copyto(hi, u, where=~above)
        step = np.clip(g / slope, -_MAX_LOG_STEP, _MAX_LOG_STEP)
        step[~active] = 0.0
        resolution = _RESOLUTION * np.maximum(1.0, np.abs(u))
        active &= (np.abs(step) > resolution) & (hi - lo > resolution)
        u -= step
        if not active.any():
            return np.exp(u)
        stray = active & ~((lo < u) & (u < hi))
        u[stray] = 0.5 * (lo[stray] + hi[stray])
    bad = log_t[active][0]
    raise NumericalError(f"phi^-1 did not converge for log target {bad}")


def intrinsic_ratio(mat: MaterialRecord) -> float:
    """Occupancy-independent amplitude of the rate ratio.

    (5/2) (sigma_c / sigma_e) [4I(I+1)-3]^{-1} [b_e*(a0*) / (b_q E_off(a0*))]^2;
    a pure material constant, independent of power, density or field.
    Spin 1/2 has no quadrupole moment, so the ratio is undefined there.
    """
    if mat.spin < 1.0:
        raise MaterialError(
            f"spin {mat.spin:g} has no quadrupole moment; the competition "
            f"amplitude needs a quadrupolar nucleus")
    b_e = mat.require_hyperfine_field()
    e_off_bohr = donor_field(1.0, 0.0, mat).e_off
    modulation = mat.b_q * e_off_bohr
    field_ratio = b_e / modulation if modulation else math.inf
    f00 = 2.5 * (mat.sigma_capture / mat.sigma_exchange) \
        / transition_moment(mat.spin) * field_ratio * field_ratio
    if not 0.0 < f00 < math.inf:
        raise NumericalError(f"competition amplitude f00 = {f00:g} is out of float range; "
                             "check record fields")
    return f00


def competition(r: float, theta: float, state: KineticState,
                mat: MaterialRecord) -> CompetitionFactors:
    """Factorized hyperfine-to-quadrupolar ratio at (r, theta).

    Valid in the motional-narrowing regime, where both spectral
    densities sit on their zero-frequency plateaus; there the raw rate
    quotient from :func:`rates` equals this factorization identically.
    """
    occ = state.occupancy
    if not 0.0 < occ < 1.0:
        raise MaterialError(
            "competition is defined for partial occupancy only (quadrupolar "
            "relaxation switches off at occupancy 0 or 1)"
        )
    f00 = intrinsic_ratio(mat)
    f0 = f00 / (occ * (1.0 - occ))
    radial = radial_profile(r)
    angular = 1.0 + 3.0 * math.cos(theta) ** 2
    return CompetitionFactors(f00=f00, f0=f0, radial=radial,
                              angular_denominator=angular,
                              f=f0 * radial / angular)
