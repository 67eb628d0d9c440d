"""Closed forms against their brute-force oracles over randomized inputs.

Each property draws derandomized inputs with hypothesis and compares a
production closed form with the oracle in ``donor_halo.oracles`` at the
tolerance of the matching ``exact-oracles`` check.

The oracles and ``nuclear_field`` integrate with the package's own
Gauss-Legendre rule and exponentiate with numpy; the properties at the
end referee those routes against ``scipy.integrate.quad`` and
``scipy.linalg.expm`` at 1e-12 relative.  scipy is needed by the tests
only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from donor_halo import (Geometry, NonPerturbativeRegimeError, angular_factor, bq_local_field,
                        compute_bq, efg_transform, gamma_ceiling, get_material, level_shift,
                        list_materials, nuclear_field, p_avg, profile, redfield_rate_analytic,
                        telegraph_correlation)
from donor_halo.fields import donor_field, field_direction, screening_density
from donor_halo.kinetics import telegraph_amplitude
from donor_halo.materials import HBAR
from donor_halo.oracles import (angular_factor_trace, bq_local_field_trace,
                                efg_transform_rotation, level_shift_diagonalization,
                                p_avg_quadrature, power_map_residuals,
                                redfield_rate_superoperator,
                                screening_cdf_quadrature, spectral_density_quadrature,
                                spin_temperature_eta_bisection,
                                telegraph_correlation_conditionals,
                                telegraph_p_matrix_expm)
from donor_halo.polarization import FIELD_INTEGRAL_UPPER
from donor_halo.relaxation import radial_profile
from donor_halo.validity import spin_temperature_eta

QUADRUPOLAR_SPINS = st.sampled_from([1.0, 1.5, 2.5, 4.5])
THETA = st.floats(0.0, math.pi)
PHI = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
UNIT = st.floats(0.0, 1.0)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(QUADRUPOLAR_SPINS, THETA, PHI, st.floats(-2.0, 1.0), UNIT)
def test_bq_local_field_matches_trace(spin, theta, phi, log_r, occupancy):
    base = get_material("GaAs:As75")
    mat = base.with_overrides(spin=spin, b_q=compute_bq(
        base.r14, base.quadrupole_moment, spin, base.gamma))
    geo = Geometry(theta=theta, phi=phi)
    r = 10.0 ** log_r
    closed = bq_local_field(r, occupancy, geo, mat)
    assert type(closed) is float
    assert _rel(closed, bq_local_field_trace(r, occupancy, geo, mat)) <= 1e-10


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.5]), st.sampled_from([1, 2]), THETA)
def test_angular_factor_matches_trace(spin, k, theta):
    closed = angular_factor(k, theta, spin)
    trace = angular_factor_trace(k, theta, spin)
    assert type(closed) is float
    if spin < 1.0:
        assert closed == 0.0 and abs(trace) <= 1e-12
    else:
        assert abs(closed - trace) <= 1e-10 * abs(closed) + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.5]), THETA,
       st.floats(-10.0, -8.0), st.floats(-10.0, -8.0))
def test_redfield_rate_matches_superoperator(spin, theta, log_j1, log_j2):
    j1, j2 = 10.0 ** log_j1, 10.0 ** log_j2
    closed = redfield_rate_analytic(spin, theta, j1, j2)
    oracle = redfield_rate_superoperator(spin, theta, j1, j2)
    if spin < 1.0:
        assert closed == 0.0 and abs(oracle) < 1e-30
    else:
        assert _rel(closed, oracle) <= 1e-8


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(-1.0, 1.0),
       st.floats(-10.0, 10.0))
def test_telegraph_correlation_matches_conditionals(occ, screening, log_tau_occ, lag):
    tau_occ = 10.0 ** log_tau_occ
    tau_empty = tau_occ * (1.0 - occ) / occ
    occ = tau_occ / (tau_occ + tau_empty)
    closed = telegraph_correlation(lag, screening, tau_occ, tau_empty)
    oracle = telegraph_correlation_conditionals(lag, screening, tau_occ, tau_empty)
    assert type(closed) is float
    # measured against the zero-lag amplitude, as in the exact-oracles check
    assert abs(closed - oracle) <= 1e-12 * telegraph_amplitude(occ, screening)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(list_materials()), st.floats(-14.0, 0.0), st.booleans())
def test_power_map_solves_the_balance_equations(name, log_gap, from_top):
    # occupancies from 1e-14 to 1e-12 below the capture-limited ceiling,
    # log-spaced away from either end
    mat = get_material(name)
    low, high = 1e-14, gamma_ceiling(mat) - 1e-12
    gap = 10.0 ** log_gap * (high - low)
    gamma_t = high - gap if from_top else low + gap
    residuals = power_map_residuals(gamma_t, mat)
    assert residuals["trapping"] <= 1e-8 and residuals["generation"] <= 1e-8, residuals


@settings(max_examples=80, deadline=None, derandomize=True)
@given(THETA, PHI, THETA, PHI, st.floats(3.0, 9.0), st.sampled_from(list_materials()))
def test_efg_transform_matches_rotation(theta, phi, theta_b, phi_b, log_e, name):
    # E along (theta, phi) at 1e3..1e9 V/m, in the field frame of (theta_b, phi_b)
    geo = Geometry(theta=theta, phi=phi, theta_b=theta_b, phi_b=phi_b)
    e_vec = 10.0 ** log_e * field_direction(theta, phi)
    r14 = get_material(name).r14
    closed = efg_transform(e_vec, geo, r14)
    oracle = efg_transform_rotation(e_vec, geo, r14)
    scale = max(abs(c) for c in closed)
    assert max(abs(c - o) for c, o in zip(closed, oracle)) <= 1e-12 * scale


#: the gap between level_shift (second order) and the diagonalization, in
#: f0q^3 / (gamma hbar B)^2.  The third-order term of H_Q vanishes, so the
#: gap is the fourth-order one, at most 144 f0q^4 / (gamma hbar B)^3 for
#: spin 3/2 (the largest over theta and m, from diagonalizing at f0q =
#: 1e-3 gamma hbar B).  The perturbative guard asks gamma hbar B >= 10
#: ||H_Q|| >= 10 * 2 sqrt(3) f0q, so that term is at most 144 / (20 sqrt(3))
#: = 4.16 f0q^3 / (gamma hbar B)^2; K = 5 leaves 20 % for the higher orders.
#: A rounding floor of 8 ulps of gamma hbar B covers the eigenvalues where
#: f0q is small against the field (at most 3.3 ulps in 6000 draws).
LEVEL_SHIFT_K = 5.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([-1.5, -0.5, 0.5, 1.5]), st.floats(0.1, 10.0), st.floats(0.3, 3.0),
       THETA, PHI, THETA, PHI, UNIT)
def test_level_shift_agrees_with_diagonalization_to_fourth_order(m, b_field, r, theta, phi,
                                                                  theta_b, phi_b, occupancy):
    mat = get_material("GaAs:As75")
    geo = Geometry(theta=theta, phi=phi, theta_b=theta_b, phi_b=phi_b)
    try:
        closed = level_shift(m, b_field, r, geo, occupancy, mat)
    except NonPerturbativeRegimeError:
        return
    zeeman = mat.gamma * HBAR * b_field
    f0q = donor_field(r, occupancy, mat).f0q
    gap = abs(closed - level_shift_diagonalization(m, b_field, r, geo, occupancy, mat))
    assert gap <= LEVEL_SHIFT_K * f0q ** 3 / zeeman ** 2 + 8.0 * np.finfo(float).eps * zeeman


# --- the numpy routes against scipy ------------------------------------------

#: relative agreement of every numpy route with its scipy referee
REFEREE_RTOL = 1e-12


def _quad(func, a, b, **kwargs):
    """scipy's adaptive quadrature, asked for ten times REFEREE_RTOL."""
    return quad(func, a, b, epsabs=0.0, epsrel=1e-13, limit=800, **kwargs)[0]


@pytest.mark.parametrize("name", [name for name in list_materials()
                                  if get_material(name).spin >= 1.0])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.floats(-3.0, 1.0))
def test_spin_temperature_eta_matches_bisection(name, log_field):
    # eta is the radius at 1 T; the oracle bisects at the drawn field
    mat = get_material(name)
    oracle = spin_temperature_eta_bisection(mat, 10.0 ** log_field)
    assert _rel(spin_temperature_eta(mat), oracle) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-6.0, math.log10(FIELD_INTEGRAL_UPPER)))
def test_screening_cdf_quadrature_matches_quad(log_r):
    r = 10.0 ** log_r
    assert _rel(screening_cdf_quadrature(r), _quad(screening_density, 0.0, r)) \
        <= REFEREE_RTOL


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(-3.0, 1.0), st.floats(-8.0, 6.0))
def test_p_avg_quadrature_matches_quad(log_r, log_f0):
    r, f0 = 10.0 ** log_r, 10.0 ** log_f0
    a = f0 * radial_profile(r)
    referee = 0.5 * _quad(lambda u: a / (1.0 + 3.0 * u * u + a), -1.0, 1.0)
    assert _rel(p_avg_quadrature(r, f0), referee) <= REFEREE_RTOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.0, 5.0), st.floats(-10.0, -7.0))
def test_spectral_density_quadrature_matches_quad(w, log_tau_c):
    tau_c = 10.0 ** log_tau_c
    # QAWO, scipy's rule for cosine-weighted integrands
    referee = 2.0 * 1.7 * tau_c * _quad(lambda u: math.exp(-u), 0.0, 60.0,
                                         weight="cos", wvar=w)
    assert _rel(spectral_density_quadrature(w / tau_c, 1.7, tau_c), referee) \
        <= REFEREE_RTOL


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(-10.0, -7.0), st.floats(-10.0, -7.0), st.floats(0.0, 1e-7))
def test_telegraph_p_matrix_expm_matches_scipy(log_tau_occ, log_tau_empty, lag):
    tau_occ, tau_empty = 10.0 ** log_tau_occ, 10.0 ** log_tau_empty
    generator = np.array([[-1.0 / tau_empty, 1.0 / tau_empty],
                          [1.0 / tau_occ, -1.0 / tau_occ]])
    # the entries are probabilities: rows sum to one, so 1 is the scale
    deviation = np.abs(telegraph_p_matrix_expm(lag, tau_occ, tau_empty)
                       - expm(generator * lag)).max()
    assert deviation <= REFEREE_RTOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-6.0, 6.0))
def test_nuclear_field_matches_quad(log_f0):
    mat = get_material("GaAs:As75")
    f0 = 10.0 ** log_f0
    prof = profile(f0, np.array([0.5]))
    referee = _quad(lambda r: screening_density(r) * p_avg(r, f0), 1e-9,
                    FIELD_INTEGRAL_UPPER, points=[prof.rho_q])
    assert _rel(nuclear_field(prof, mat).b_n_exact, mat.b_n0 * referee) <= REFEREE_RTOL
