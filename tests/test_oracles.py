"""Closed forms against their brute-force oracles over randomized inputs.

Each property draws derandomized inputs with hypothesis and compares a
production closed form with the oracle in ``donor_halo.oracles`` at the
tolerance of the matching ``exact-oracles`` check.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from donor_halo import (Geometry, angular_factor, bq_local_field, compute_bq,
                        get_material, redfield_rate_analytic, telegraph_correlation)
from donor_halo.kinetics import telegraph_amplitude
from donor_halo.oracles import (angular_factor_trace, bq_local_field_trace,
                                redfield_rate_superoperator,
                                telegraph_correlation_conditionals)

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
    closed = telegraph_correlation(lag, occ, screening, tau_occ, tau_empty)
    oracle = telegraph_correlation_conditionals(lag, occ, screening, tau_occ, tau_empty)
    assert type(closed) is float
    # measured against the zero-lag amplitude, as in the exact-oracles check
    assert abs(closed - oracle) <= 1e-12 * telegraph_amplitude(occ, screening)
