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

from .errors import MaterialError
from .fields import Geometry, donor_field, hyperfine_field_instant, screening_fraction
from .kinetics import KineticState, spectral_density
from .materials import MaterialRecord


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


def transition_moment(spin: float) -> float:
    """Spin factor 4 I (I+1) - 3 common to both quadrupolar channels."""
    return 4.0 * spin * (spin + 1.0) - 3.0


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
    moment = transition_moment(mat.spin)
    omega_1 = mat.gamma * b_field
    omega_2 = 2.0 * omega_1
    # modulation amplitude: the full ionized-donor field times s(r)
    coupling = mat.gamma * mat.b_q * point.e_off * point.screening
    st2 = math.sin(geometry.theta) ** 2
    ct2 = math.cos(geometry.theta) ** 2
    k1 = 0.4 * moment * st2
    k2 = 1.6 * moment * ct2
    inv_t1q = occ * (1.0 - occ) * coupling ** 2 * (
        k1 * spectral_density(omega_1, 1.0, state.tau_quad)
        + k2 * spectral_density(omega_2, 1.0, state.tau_quad)
    )
    omega_h = mat.gamma_e * (b_field + electron_spin_sign * nuclear_field)
    b_e = hyperfine_field_instant(r, mat)
    if math.isinf(state.tau_hyper):
        inv_t1h = 0.0
    else:
        inv_t1h = occ * (mat.gamma * b_e) ** 2 \
            * spectral_density(omega_h, 1.0, state.tau_hyper)
    f = inv_t1h / inv_t1q if inv_t1q > 0.0 else math.inf
    return RateBundle(inv_t1q=inv_t1q, inv_t1h=inv_t1h,
                      omega_1=omega_1, omega_2=omega_2, omega_h=omega_h, f=f)


def radial_profile(r: float) -> float:
    """Radial factor e^{-4(r-1)} r^4 / s(r)^2 of the rate ratio (r in a0* units).

    Diverges at the donor (the modulated field vanishes faster than the
    hyperfine one) and decreases monotonically outward.
    """
    if r <= 0.0:
        raise MaterialError("radius must be positive")
    s = screening_fraction(r)
    return math.exp(-4.0 * (r - 1.0)) * r ** 4 / (s * s)


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
    field_ratio = b_e / (mat.b_q * e_off_bohr)
    return 2.5 * (mat.sigma_capture / mat.sigma_exchange) \
        / transition_moment(mat.spin) * field_ratio ** 2


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
