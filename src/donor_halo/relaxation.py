"""Spin-lattice relaxation rates and the hyperfine/quadrupolar competition.

Two channels relax a nucleus near the donor: the fluctuating hyperfine
contact field of the trapped electron (which also polarizes the
nucleus) and the trapping-modulated quadrupolar coupling (which only
depolarizes).  In the motional-narrowing regime their ratio f
factorizes as f0 phi(r) / (1 + 3 cos^2 theta): the amplitude f0 =
:func:`intrinsic_ratio` / [occ (1 - occ)] is set by material constants
and occupancy, phi is the steep :func:`radial_profile`, and the angular
denominator is simple.  The polarization profiles are built from that
factorization; the raw rate quotient ``rates(...).f`` is kept as a
consistency oracle for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MaterialError, NumericalError
from .fields import (Geometry, _log_screening, coulomb_field, donor_field,
                     hyperfine_field_instant)
from .kinetics import KineticState, spectral_density
from .materials import MaterialRecord
from .numerics import MAX_STEPS, NON_NEGATIVE_FINITE, POSITIVE_FINITE, ensure, require
from .spin_algebra import angular_factor, transition_moment


@dataclass(frozen=True)
class RateBundle:
    """Both relaxation rates at one operating point."""

    inv_t1q: float       # quadrupolar rate, 1/s
    inv_t1h: float       # hyperfine rate, 1/s
    f: float             # rate ratio inv_t1h / inv_t1q (inf when t1q never relaxes)


def rates(r: float, geometry: Geometry, state: KineticState, b_field: float,
          mat: MaterialRecord) -> RateBundle:
    """Relaxation rates at reduced distance r for one kinetic state.

    The quadrupolar rate is proportional to occ(1-occ) and to the square
    of the modulated field amplitude b_q E_off s(r); the hyperfine rate
    is proportional to occ and the square of the instant hyperfine
    field, at the electron flip-flop frequency gamma_e B.
    """
    require(b_field, "b_field", NON_NEGATIVE_FINITE)
    occ = state.occupancy
    point = donor_field(r, occ, mat)
    w1 = mat.gamma * b_field        # single-quantum nuclear frequency; double is 2 w1
    wh = mat.gamma_e * b_field      # electron-nucleus flip-flop frequency
    ensure((2.0 * w1, wh), "Larmor frequency in rad/s (check b_field)", NON_NEGATIVE_FINITE)
    # modulation amplitude: the full ionized-donor field times s(r)
    coupling = mat.gamma * mat.b_q * point.e_off * point.screening
    k1 = angular_factor(1, geometry.theta, mat.spin)
    k2 = angular_factor(2, geometry.theta, mat.spin)
    inv_t1q = occ * (1.0 - occ) * coupling * coupling * (
        k1 * spectral_density(w1, 1.0, state.tau_quad)
        + k2 * spectral_density(2.0 * w1, 1.0, state.tau_quad)
    )
    b_e = hyperfine_field_instant(r, mat)
    if math.isinf(state.tau_hyper):
        inv_t1h = 0.0
    else:
        inv_t1h = occ * (mat.gamma * b_e) * (mat.gamma * b_e) \
            * spectral_density(wh, 1.0, state.tau_hyper)
    f = inv_t1h / inv_t1q if inv_t1q > 0.0 else math.inf
    return RateBundle(inv_t1q=inv_t1q, inv_t1h=inv_t1h, f=f)


#: largest x with a finite exp(x)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def log_radial_profile(r):
    """log phi(r) = 4 - 4r + 4 log r - 2 log s(r) for positive finite r.

    phi(r) = e^{-4(r-1)} r^4 / s(r)^2 is the radial factor of the rate
    ratio (r in a0* units): it diverges at the donor (the modulated field
    vanishes faster than the hyperfine one) and decreases monotonically
    outward.  log phi is finite up to r = 4.5e307 and -inf past it, where
    phi is 0 in floats.  Takes a float or an array.
    """
    r = require(r, "radius", POSITIVE_FINITE)
    if isinstance(r, float):
        return 4.0 - 4.0 * r + 4.0 * math.log(r) - 2.0 * _log_screening(r)
    with np.errstate(over="ignore"):        # 4r, and so -log phi, is inf past 4.5e307
        four_r = 4.0 * r
    return 4.0 - four_r + 4.0 * np.log(r) - 2.0 * _log_screening(r)


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
    elif (log_phi <= _LOG_FLOAT_MAX).all():
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
#: log targets of phi^-1: log phi(5e-324) = 1492.3, so past 1490 the root
#: is below the smallest float
_LOG_TARGETS = (-sys.float_info.max, 1490.0, "finite and at most 1490")
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
    log_s = _log_screening(r)
    return (4.0 - 4.0 * r + 4.0 * u - 2.0 * log_s,
            4.0 - 4.0 * r - exp(3.0 * (u + _LOG_2) - 2.0 * r - log_s))


def radial_profile_inverse(log_target):
    """Radius where log phi(r) equals log_target, for a float or an array.

    phi decreases strictly from +inf at the donor to 0 far away, so each
    finite log target has one root; a target above 1490 (the radii pass
    -710 to 746), whose root is below the smallest float, is refused.  The
    search runs on u = log r, where log phi is smooth.  It starts from the
    near-donor asymptote (capped at r = 8), or for log targets below -1000
    from the far-field root r = -log_target / 4, takes Newton steps clipped
    to +-2, learns a bracket from the signs of log phi - log_target, and
    bisects only where a step leaves a bracket whose two ends are both
    known.  It stops when the step or the bracket is a few ulps of u, so r
    is found to a few 1e-16 relative for the radii, and far out to the
    rounding of u itself (3e-14 at r = 1e299).  An array runs the same
    iteration in lockstep; each element freezes once it has converged.
    """
    log_t = require(log_target, "log target", _LOG_TARGETS)
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
    modulation = mat.b_q * coulomb_field(1.0, mat)
    field_ratio = b_e / modulation if modulation else math.inf
    return ensure(2.5 * (mat.sigma_capture / mat.sigma_exchange)
                  / transition_moment(mat.spin) * field_ratio * field_ratio,
                  "competition amplitude f00 (check record fields)", POSITIVE_FINITE)

