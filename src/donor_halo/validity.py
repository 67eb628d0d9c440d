"""Operating-regime diagnostics for the donor-halo model.

The rate theory holds in a window of magnetic field: large enough that
the Zeeman reservoir dwarfs the spin-spin and quadrupolar ones and that
a common nuclear spin temperature can establish itself, yet small
enough that every fluctuation is motionally narrowed.  This module
evaluates each bound for a concrete operating point and renders a
structured report.  The spin-temperature radius is a closed form in five
record fields, which :mod:`donor_halo.oracles` checks by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import MaterialError
from .fields import Geometry
from .kinetics import GAMMA_MIN_DIFFUSION, KineticState
from .materials import E_CHARGE, EPSILON_0, MaterialRecord
from .numerics import NON_NEGATIVE_FINITE, POSITIVE, POSITIVE_FINITE, ensure, require
from .spin_algebra import bq_local_field


@dataclass(frozen=True)
class LocalFields:
    b_l: float            # spin-spin local field, T
    b_q: float            # quadrupolar local field at the operating point, T
    high_field_ok: bool   # B^2 >= margin * (b_l^2 + b_q^2)


def local_fields(b_field: float, r: float, occupancy: float, geometry: Geometry,
                 mat: MaterialRecord, margin: float = 10.0) -> LocalFields:
    """High-field check against the combined local fields (NumericalError out of float range)."""
    require(b_field, "b_field", POSITIVE_FINITE)
    require(margin, "margin", POSITIVE_FINITE)
    b_q = bq_local_field(r, occupancy, geometry, mat)
    try:                    # past the float range a float ** raises where * gives inf
        squared = mat.local_field ** 2 + b_q * b_q
    except OverflowError:
        squared = math.inf
    ensure(squared, "squared local fields in T^2 (check r and record fields)", NON_NEGATIVE_FINITE)
    ok = b_field * b_field >= margin * squared
    return LocalFields(b_l=mat.local_field, b_q=b_q, high_field_ok=ok)


@dataclass(frozen=True)
class SpinTemperatureLimit:
    eta: float      # m * T^(1/5)
    r_q: float      # spin-temperature radius at the given field, m


def spin_temperature_eta(mat: MaterialRecord) -> float:
    """Power-law prefactor of the spin-temperature radius, in closed form.

    The worst-case second-order shift (field along the quantization axis,
    ionized donor, level m = I) is 2 I (2I - 1) hbar gamma [b_q E(r)]^2 / B
    with E(r) = e / (4 pi eps eps0 r^2).  Its gradient across the same-isotope
    spacing d equals hbar gamma I B_L at r = eta B^(-1/5), with
    eta^5 = 8 (2I - 1) (b_q e / 4 pi eps eps0)^2 d / B_L: hbar gamma and the
    factor I cancel, and the Bohr radius never enters.
    ``oracles.spin_temperature_eta_bisection`` bisects the same condition.
    """
    if mat.spin < 1.0:
        raise MaterialError("spin-temperature limit needs a quadrupolar nucleus")
    coupling = mat.b_q * (E_CHARGE / (4.0 * math.pi * mat.epsilon * EPSILON_0))
    ratio = (8.0 * (2.0 * mat.spin - 1.0) * (coupling * coupling) * mat.neighbor_spacing
             / mat.local_field)
    return ensure(ratio ** 0.2, "spin-temperature radius eta in m*T^(1/5) (check record fields)",
                  POSITIVE_FINITE)


def spin_temperature_limit(b_field: float, mat: MaterialRecord) -> SpinTemperatureLimit:
    """Radius outside which a nuclear spin temperature exists at this field."""
    require(b_field, "b_field", POSITIVE_FINITE)
    eta = spin_temperature_eta(mat)
    return SpinTemperatureLimit(eta=eta, r_q=eta * b_field ** -0.2)


def field_threshold(r_m: float, eta: float) -> float:
    """Field above which the spin-temperature hypothesis holds at radius r: (eta/r)^5."""
    require(r_m, "radius", POSITIVE_FINITE)
    try:                    # past the float range a float ** raises where * gives inf
        threshold = (require(eta, "eta", POSITIVE_FINITE) / r_m) ** 5
    except OverflowError:
        threshold = math.inf
    return ensure(threshold, "spin-temperature field threshold in T (check r_m and eta)",
                  NON_NEGATIVE_FINITE)


@dataclass(frozen=True)
class MotionalRegime:
    omega1_tau: float   # single-quantum channel; the double-quantum one is twice it
    omegah_tau: float
    narrowed: bool


def motional_regime(b_field: float, state: KineticState,
                    mat: MaterialRecord) -> MotionalRegime:
    """Products omega * tau_c of the channels; inf past the float range.

    The double-quantum product is twice omega1_tau, so the regime is
    narrowed when it and omegah_tau are below 1.
    """
    w1 = mat.gamma * require(b_field, "b_field", NON_NEGATIVE_FINITE) * state.tau_quad
    wh = 0.0 if math.isinf(state.tau_hyper) else mat.gamma_e * b_field * state.tau_hyper
    return MotionalRegime(omega1_tau=w1, omegah_tau=wh, narrowed=2.0 * w1 < 1.0 and wh < 1.0)


#: same-isotope flip-flop suppression for a homogeneous quadrupolar shift;
#: a fixed literature estimate, reported for context and not recomputed
HOMOGENEOUS_FLIP_FLOP_LOSS = 0.15


@dataclass(frozen=True)
class RegimeReport:
    """Full validity diagnostics for one operating point."""

    b_field: float
    r_bohr: float
    occupancy: float
    b_l: float
    b_q: float
    high_field_ok: bool
    high_field_margin: float
    eta: float
    r_q: float                 # m
    b_q_prime: float           # spin-temperature field threshold at r, T
    spin_temperature_ok: bool
    omega1_tau: float
    omega2_tau: float
    omegah_tau: float
    motional_narrowed: bool
    warnings: list[str] = field(default_factory=list)


def build_report(b_field: float, r: float, state: KineticState, geometry: Geometry,
                 mat: MaterialRecord, margin: float = 10.0) -> RegimeReport:
    """Evaluate every regime bound at one operating point (r in a0* units)."""
    occ = state.occupancy
    fields_chk = local_fields(b_field, r, occ, geometry, mat, margin)
    limit = spin_temperature_limit(b_field, mat)
    threshold = field_threshold(require(r, "radius", POSITIVE) * mat.bohr_radius, limit.eta)
    motion = motional_regime(b_field, state, mat)
    warnings: list[str] = []
    if not fields_chk.high_field_ok:
        warnings.append(
            f"field {b_field:.3g} T does not dominate the local fields "
            f"(B_L={fields_chk.b_l:.3g} T, B_Q={fields_chk.b_q:.3g} T, "
            f"margin {margin:g})"
        )
    if b_field <= threshold:
        warnings.append(
            f"no common spin temperature at r={r:.3g} a0*: needs B > "
            f"{threshold:.3g} T"
        )
    if not motion.narrowed:
        warnings.append("fluctuations are not motionally narrowed at this field")
    if occ < GAMMA_MIN_DIFFUSION:
        warnings.append(
            f"occupancy {occ:.3g} below {GAMMA_MIN_DIFFUSION}; bulk spin "
            "diffusion dominates"
        )
    return RegimeReport(
        b_field=b_field, r_bohr=r, occupancy=occ,
        b_l=fields_chk.b_l, b_q=fields_chk.b_q,
        high_field_ok=fields_chk.high_field_ok, high_field_margin=margin,
        eta=limit.eta, r_q=limit.r_q, b_q_prime=threshold,
        spin_temperature_ok=b_field > threshold,
        omega1_tau=motion.omega1_tau, omega2_tau=2.0 * motion.omega1_tau,
        omegah_tau=motion.omegah_tau, motional_narrowed=motion.narrowed,
        warnings=warnings,
    )


def render_report(report: RegimeReport, mat: MaterialRecord) -> str:
    """Plain-text rendering of a regime report."""
    lines = [
        f"regime report: {mat.name}",
        f"  operating point : B = {report.b_field:.6g} T, "
        f"r = {report.r_bohr:.6g} a0*, occupancy = {report.occupancy:.6g}",
        f"  local fields    : B_L = {report.b_l:.6g} T, B_Q = {report.b_q:.6g} T",
        f"  high-field check: {'ok' if report.high_field_ok else 'VIOLATED'} "
        f"(margin {report.high_field_margin:g})",
        f"  spin temperature: eta = {report.eta:.6g} m*T^(1/5), "
        f"r_q(B) = {report.r_q:.6g} m, threshold at r = {report.b_q_prime:.6g} T "
        f"-> {'ok' if report.spin_temperature_ok else 'VIOLATED'}",
        f"  homogeneous flip-flop loss (fixed estimate): "
        f"{HOMOGENEOUS_FLIP_FLOP_LOSS:.0%}",
        f"  motional regime : w1*tau = {report.omega1_tau:.6g}, "
        f"w2*tau = {report.omega2_tau:.6g}, wH*tau = {report.omegah_tau:.6g} "
        f"-> {'narrowed' if report.motional_narrowed else 'NOT narrowed'}",
    ]
    if report.warnings:
        lines.append("  warnings:")
        lines.extend(f"    - {w}" for w in report.warnings)
    else:
        lines.append("  warnings: none")
    return "\n".join(lines) + "\n"
