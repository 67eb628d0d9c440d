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
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, MaterialError, NumericalError
from .fields import Geometry, donor_field, hyperfine_field_instant, screening_fraction
from .kinetics import KineticState, spectral_density
from .materials import MaterialRecord
from .numerics import (NEWTON_RESOLUTION, all_true, any_true, as_operand,
                       expand_bracket, solve)
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


def radial_profile(r):
    """Radial factor e^{-4(r-1)} r^4 / s(r)^2 of the rate ratio (r in a0* units).

    Diverges at the donor (the modulated field vanishes faster than the
    hyperfine one) and decreases monotonically outward.  Takes a float or
    an array.
    """
    if not isinstance(r, float):
        r = as_operand(r)
    if any_true(r <= 0.0):
        raise MaterialError("radius must be positive")
    s = screening_fraction(r)
    exp = math.exp if isinstance(r, float) else np.exp
    return exp(-4.0 * (r - 1.0)) * r ** 4 / (s * s)


def _log_profile_on_log_r(u):
    """log phi and its slope d log phi / d log r at r = e^u (float or array).

    log phi = 4 - 4r + 4 log r - 2 log s(r); r s'(r) = x^3 e^-x / 2, x = 2r.
    """
    exp, log = (math.exp, math.log) if isinstance(u, float) else (np.exp, np.log)
    r = exp(u)
    x = 2.0 * r
    s = screening_fraction(r)
    return 4.0 - 4.0 * r + 4.0 * u - 2.0 * log(s), 4.0 - 4.0 * r - x * x * x * exp(-x) / s


#: phi^-1 starts its search on [1e-3, 8] a0* and widens that as needed
_LOG_R_BRACKET = (math.log(1e-3), math.log(8.0))
#: near the donor phi(r) -> (9/16) e^4 / r^2 from above, the first
#: scalar guess (capped at the top of the starting bracket)
_SMALL_R_SCALE = 9.0 / 16.0 * math.exp(4.0)
#: largest target: its root lies near 5e-95 a0*, where s(r) ~ r^3 is still
#: a normal float; smaller targets have no lower limit (log phi is
#: evaluated in log form)
_TARGET_MAX = 1e190


def radial_profile_inverse(target):
    """Radius where phi(r) equals target, for a float or an array of targets.

    phi is strictly decreasing from +inf at the donor to 0 far away, so
    each positive finite target has one root.  It is found on u = log r,
    where log phi is smooth, by Newton steps safeguarded by bisection, to
    a relative error of a few 1e-16 in r.  A float target iterates on
    floats; an array goes through :func:`donor_halo.numerics.solve` in
    lockstep, after its bracket has grown to hold every root.
    """
    target = as_operand(target)
    inside = (0.0 < target) & (target <= _TARGET_MAX)
    if not all_true(inside):
        bad = target if isinstance(target, float) else target[~inside][0]
        raise BracketError(f"no radius where phi = {bad}: phi^-1 needs a target "
                           f"in (0, {_TARGET_MAX:g}]")
    if isinstance(target, float):
        return _inverse_float(target)
    log_t = np.log(target)

    def rising(u):   # log_t - log phi, increasing in u = log r
        log_phi, slope = _log_profile_on_log_r(u)
        return log_t - log_phi, -slope

    # a widened bracket end can sit where s(r) underflows; log phi is +inf
    # there, which still has the right sign
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = expand_bracket(lambda u: rising(u)[0],
                                np.full(log_t.shape, _LOG_R_BRACKET[0]),
                                np.full(log_t.shape, _LOG_R_BRACKET[1]), what="phi^-1")
        return np.exp(solve(rising, lo, hi, what="phi^-1", newton=True))


def _inverse_float(target: float) -> float:
    log_t = math.log(target)
    lo, hi = -math.inf, math.inf        # u-bracket learned from the signs
    u = min(0.5 * math.log(_SMALL_R_SCALE / target), _LOG_R_BRACKET[1])
    for _ in range(100):
        log_phi, slope = _log_profile_on_log_r(u)
        g = log_phi - log_t
        if g != g:
            raise BracketError(f"phi^-1 undefined at r = {math.exp(u)} for target {target}")
        if g > 0.0:
            lo = u
        else:
            hi = u
        step = max(-2.0, min(2.0, g / slope))
        resolution = NEWTON_RESOLUTION * max(1.0, abs(u))
        if abs(step) <= resolution or hi - lo <= resolution:
            return math.exp(u - step)
        u -= step
        if not lo < u < hi:          # Newton left a bracket with both ends known
            u = 0.5 * (lo + hi)
    raise NumericalError(f"phi^-1 did not converge for target {target}")


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
