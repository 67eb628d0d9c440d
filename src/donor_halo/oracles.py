"""Brute-force oracles, each named after the closed form it checks.

Each function here recomputes a closed form of the package by an
independent numerical route (quadrature, matrix algebra, bisection), for
the verification suites and the tests.  The quadratures use the fixed
composite Gauss-Legendre rule of :mod:`donor_halo.numerics` and the
matrix routes use numpy alone, so the verification suites load no scipy;
the tests hold each route against ``scipy.integrate.quad`` or
``scipy.linalg.expm``.  Production imports (``donor_halo``, the CLI
commands other than ``verify``) never load this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MaterialError, NumericalError
from .fields import (EfgComponents, Geometry, donor_field, rotation_to_field_frame,
                     screening_density)
from .kinetics import dwell_occupancy, power_map, telegraph_p_matrix, telegraph_values
from .materials import HBAR, MaterialRecord
from .numerics import gauss_legendre
from .polarization import p_avg
from .relaxation import radial_profile
from .spin_algebra import (_perturbative_terms, build_hq_axial,
                           build_quadrupole_operators, build_spin_operators)
from .validity import _worst_case_shift


def screening_cdf_quadrature(r: float) -> float:
    """Quadrature oracle for ``fields.screening_fraction``: int_0^r s'(u) du.

    Panels at most one unit wide, two decay lengths of e^-2u, leave the
    rule exact to rounding.
    """
    return gauss_legendre(screening_density, np.linspace(0.0, r, max(1, math.ceil(r)) + 1))


def efg_transform_rotation(e_field: np.ndarray, geometry: Geometry,
                           r14: float) -> EfgComponents:
    """Oracle for ``fields.efg_transform``: rotate the cubic tensor T_ijk numerically."""
    rot = rotation_to_field_frame(geometry.theta_b, geometry.phi_b)
    tensor = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        tensor[i, j, k] = r14
    rotated = np.einsum("ai,bj,ck,ijk->abc", rot, rot, rot, tensor)
    e_primed = rot @ np.asarray(e_field, dtype=float)
    v = np.einsum("abc,c->ab", rotated, e_primed)
    return EfgComponents(xx=v[0, 0], yy=v[1, 1], zz=v[2, 2],
                         yz=v[1, 2], xz=v[0, 2], xy=v[0, 1])


# --- spin algebra ------------------------------------------------------------

def angular_factor_trace(k: int, theta: float, spin: float) -> float:
    """Trace oracle for ``spin_algebra.angular_factor``: unit J in channel k only."""
    return redfield_rate_superoperator(spin, theta, float(k == 1), float(k == 2))


def bq_local_field_trace(r: float, occupancy: float, geometry: Geometry,
                         mat: MaterialRecord) -> float:
    """Trace oracle for ``spin_algebra.bq_local_field``, on the built H_Q."""
    spin = mat.spin
    f0q = donor_field(r, occupancy, mat).f0q
    h = build_hq_axial(f0q, geometry.theta, geometry.phi, spin)
    tr_h2 = float(np.trace(h @ h).real)
    norm = spin * (spin + 1.0) * (2.0 * spin + 1.0) * (mat.gamma * HBAR) ** 2
    return math.sqrt(3.0 * tr_h2 / norm)


def level_shift_diagonalization(m: float, b_field: float, r: float, geometry: Geometry,
                                occupancy: float, mat: MaterialRecord) -> float:
    """Exact-diagonalization oracle for ``spin_algebra.level_shift``, with its guards.

    Eigenvalues match levels by adiabatic continuation from the high-field
    ordering, which is only trustworthy in the perturbative regime.
    """
    _, zeeman_quantum, h_q = _perturbative_terms(m, b_field, r, geometry, occupancy, mat)
    h = -zeeman_quantum * build_spin_operators(mat.spin).iz + h_q
    eigenvalues = np.linalg.eigvalsh(h)          # ascending <=> m descending
    index = int(round(mat.spin - m))
    return float(eigenvalues[index] + zeeman_quantum * m)


def redfield_rate_superoperator(spin: float, theta: float, j1: float, j2: float) -> float:
    """Superoperator oracle for ``spin_algebra.redfield_rate_analytic``.

    d<Iz>/dt / <Iz> at t = 0 under sum_k J_k [A_k, [A_k+, .]] applied to
    sigma ~ Iz, with the coupling prefactor taken as one angular frequency.
    """
    ops = build_spin_operators(spin)
    quad_ops = build_quadrupole_operators(theta, 0.0, spin)
    sigma = ops.iz     # deviation from equilibrium, arbitrary scale
    total = np.zeros_like(sigma)
    for a, a_dag, j in ((quad_ops.a1, quad_ops.a1_dag, j1),
                        (quad_ops.a2, quad_ops.a2_dag, j2)):
        inner = a_dag @ sigma - sigma @ a_dag
        total = total + j * (a @ inner - inner @ a)
    flow = float(np.trace(ops.iz @ total).real)
    norm = float(np.trace(ops.iz @ ops.iz).real)
    return flow / norm


# --- kinetics ----------------------------------------------------------------

def telegraph_p_matrix_expm(tau: float, tau_occupied: float, tau_empty: float) -> np.ndarray:
    """Matrix-exponential oracle for ``kinetics.telegraph_p_matrix``.

    exp(G |tau|) = V exp(Lambda) V^-1 from the eigendecomposition of the
    rate generator G; its eigenvalues 0 and -(1/tau_e + 1/tau_o) are
    distinct, so V is well conditioned.
    """
    generator = np.array([
        [-1.0 / tau_empty, 1.0 / tau_empty],
        [1.0 / tau_occupied, -1.0 / tau_occupied],
    ])
    values, vectors = np.linalg.eig(generator * abs(tau))
    return (vectors * np.exp(values)) @ np.linalg.inv(vectors)


def telegraph_correlation_conditionals(tau: float, screening: float,
                                       tau_occupied: float, tau_empty: float) -> float:
    """Oracle for ``kinetics.telegraph_correlation``: sum_ab h_a w_a h_b P_ab(tau)."""
    occ = dwell_occupancy(tau_occupied, tau_empty)
    h = np.array(telegraph_values(occ, screening))        # [empty, occupied]
    w = np.array([1.0 - occ, occ])
    p = telegraph_p_matrix(tau, tau_occupied, tau_empty)
    return float((h * w) @ p @ h)


def spectral_density_quadrature(omega: float, amplitude: float, tau_c: float) -> float:
    """Fourier-integral oracle: 2 int_0^inf cos(omega t) amplitude e^(-t/tau) dt.

    Integrated in units of the correlation time, u = t / tau_c, and
    truncated at u = 60, where the envelope is ~1e-26.  Panels are one
    unit of u wide, and narrower once omega tau_c exceeds 5, so that each
    spans at most 5 radians of the cosine.
    """
    if tau_c <= 0.0:
        raise MaterialError("correlation time must be positive")
    w = omega * tau_c
    panels = 60 * max(1, math.ceil(abs(w) / 5.0))
    value = gauss_legendre(lambda u: np.cos(w * u) * np.exp(-u),
                           np.linspace(0.0, 60.0, panels + 1))
    return 2.0 * amplitude * tau_c * value


def power_map_residuals(gamma_t: float, mat: MaterialRecord) -> dict[str, float]:
    """Relative residuals of ``kinetics.power_map`` in the raw balance equations.

    Trapping (capture vs recombination) and the free-electron budget
    against g = P/(L h_nu); both vanish to rounding for the exact map.
    """
    point = power_map(gamma_t, mat)
    n_f = point.free_density
    capture = mat.sigma_capture * mat.velocity
    holes = mat.acceptor_density + n_f + gamma_t * mat.donor_density
    recombination_rate = mat.bimolecular_k * holes        # 1/tau_r at this power
    trap_in = capture * (1.0 - gamma_t) * mat.donor_density * n_f
    trap_out = gamma_t * mat.donor_density * recombination_rate
    generation = point.power / (mat.diffusion_length * mat.photon_energy)
    budget = n_f * ((capture * (1.0 - gamma_t) + mat.bimolecular_k * gamma_t)
                    * mat.donor_density
                    + mat.bimolecular_k * (n_f + mat.acceptor_density))
    return {
        "trapping": abs(trap_in - trap_out) / trap_out,
        "generation": abs(generation - budget) / budget,
    }


# --- polarization ------------------------------------------------------------

def p_avg_quadrature(r: float, f0: float) -> float:
    """Quadrature oracle for ``polarization.p_avg`` (independent of it).

    Averages p = f/(1+f), f = a/(1 + 3u^2), over u = cos(theta) in [0, 1]
    (p is even in u).  Its poles, at u = +-i sqrt((1+a)/3), lie at least
    0.58 off the real axis, so two panels leave the rule exact to rounding.
    """
    a = f0 * radial_profile(r)

    def integrand(u: np.ndarray) -> np.ndarray:
        f = a / (1.0 + 3.0 * u * u)
        return f / (1.0 + f)

    return gauss_legendre(integrand, (0.0, 0.5, 1.0))


def quadrupolar_radius_bisection(f0: float) -> float:
    """Brute-force oracle for ``polarization.quadrupolar_radius``.

    Bisects p_avg(r, f0) - 1/2 itself, on a bracket that starts at
    [1e-3, 8] and doubles outward, until the bracket no longer shrinks;
    it never uses A_STAR or log phi.
    """
    lo, hi = 1e-3, 8.0
    while p_avg(lo, f0) < 0.5:
        lo /= 2.0
    while p_avg(hi, f0) > 0.5:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if p_avg(mid, f0) > 0.5:
            lo = mid
        else:
            hi = mid


# --- validity ----------------------------------------------------------------

def spin_temperature_eta_bisection(mat: MaterialRecord,
                                   reference_field: float = 1.0) -> float:
    """Oracle for ``validity.spin_temperature_eta``: bisect, do not invert.

    Bisects |d(shift)/dr| * d = hbar gamma I B_L in log r at the reference
    field, with the derivative of the worst-case shift taken by central
    differences, then factors out the field dependence r = eta B^(-1/5).
    """
    target = HBAR * mat.gamma * mat.spin * mat.local_field
    d = mat.neighbor_spacing

    def excess(r_m: float) -> float:
        step = 1e-5 * r_m
        left = _worst_case_shift(r_m - step, reference_field, mat)
        right = _worst_case_shift(r_m + step, reference_field, mat)
        return abs(right - left) / (2.0 * step) * d - target

    lo, hi = 1e-11, 1e-6
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise NumericalError("spin-temperature bracket failed; check record fields")
    for _ in range(200):
        mid = math.sqrt(lo * hi)       # bisect in log r; the curve is a power law
        f_mid = excess(mid)
        if abs(f_mid) <= 1e-12 * target or hi / lo < 1.0 + 1e-14:
            return mid * reference_field ** 0.2
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi) * reference_field ** 0.2
