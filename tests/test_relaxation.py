import math
import sys

import numpy as np
import pytest

from donor_halo import (Geometry, MaterialError, NumericalError, competition,
                        intrinsic_ratio, radial_profile, rates, state_for_occupancy)
from donor_halo.kinetics import KineticState, occupancy
from donor_halo.relaxation import log_radial_profile, radial_profile_inverse


def test_quadrupolar_rate_off_at_full_and_empty(gaas):
    empty = state_for_occupancy(0.0, gaas)
    assert rates(0.7, Geometry(), empty, 0.1, gaas).inv_t1q == 0.0
    assert rates(0.7, Geometry(), empty, 0.1, gaas).inv_t1h == 0.0
    full = KineticState(occupancy=1.0, free_density=1e30, tau_quad=1e-12,
                        tau_hyper=1e-13, tau_r=1e-9, tau_capture=1e-12)
    assert rates(0.7, Geometry(), full, 0.1, gaas).inv_t1q == 0.0


def test_quadrupolar_rate_angular_ratio(gaas):
    state = state_for_occupancy(0.5, gaas)
    axial = rates(0.8, Geometry(theta=0.0), state, 0.0, gaas).inv_t1q
    planar = rates(0.8, Geometry(theta=math.pi / 2.0), state, 0.0, gaas).inv_t1q
    assert axial / planar == pytest.approx(4.0, rel=1e-12)


def test_rate_frequencies(gaas):
    state = state_for_occupancy(0.4, gaas)
    bundle = rates(1.0, Geometry(), state, 2.0, gaas)
    assert bundle.omega_1 == pytest.approx(gaas.gamma * 2.0)
    assert bundle.omega_2 == pytest.approx(2.0 * bundle.omega_1)
    assert bundle.omega_h == pytest.approx(gaas.gamma_e * 2.0)
    shifted = rates(1.0, Geometry(), state, 2.0, gaas, nuclear_field=0.3,
                    electron_spin_sign=-1)
    assert shifted.omega_h == pytest.approx(gaas.gamma_e * 1.7)
    with pytest.raises(MaterialError):
        rates(1.0, Geometry(), state, 2.0, gaas, electron_spin_sign=0)


def test_rate_proportionalities(gaas):
    # inv_t1q ~ occ(1-occ), inv_t1h ~ occ at fixed correlation times
    base = state_for_occupancy(0.5, gaas)
    for occ in (0.2, 0.7):
        state = KineticState(occupancy=occ, free_density=base.free_density,
                             tau_quad=base.tau_quad, tau_hyper=base.tau_hyper,
                             tau_r=base.tau_r, tau_capture=base.tau_capture)
        ref = rates(0.9, Geometry(theta=1.0), base, 0.0, gaas)
        cur = rates(0.9, Geometry(theta=1.0), state, 0.0, gaas)
        assert cur.inv_t1q / ref.inv_t1q == pytest.approx(
            occ * (1 - occ) / 0.25, rel=1e-12)
        assert cur.inv_t1h / ref.inv_t1h == pytest.approx(occ / 0.5, rel=1e-12)


def test_intrinsic_ratio_window(gaas):
    f00 = intrinsic_ratio(gaas)
    assert 1e-3 <= f00 <= 4e-3          # factor 2 around 2e-3
    assert 5e-3 <= f00 / 0.25 <= 2e-2   # factor 2 around 1e-2 at half occupancy


def test_intrinsic_ratio_state_independent(gaas):
    values = {intrinsic_ratio(gaas) for _ in range(3)}
    assert len(values) == 1
    for gamma_t in (0.2, 0.5, 0.8):
        state = state_for_occupancy(gamma_t, gaas)
        assert competition(1.0, 0.3, state, gaas).f00 == pytest.approx(
            intrinsic_ratio(gaas), rel=1e-14)


def test_competition_factorization(gaas):
    state = state_for_occupancy(0.5, gaas)
    factors = competition(1.3, 0.8, state, gaas)
    assert factors.f0 == pytest.approx(factors.f00 / 0.25, rel=1e-14)
    assert factors.f == pytest.approx(
        factors.f0 * factors.radial / factors.angular_denominator, rel=1e-14)
    assert factors.angular_denominator == pytest.approx(
        1.0 + 3.0 * math.cos(0.8) ** 2)


def test_competition_rejects_extreme_occupancy(gaas):
    with pytest.raises(MaterialError):
        competition(1.0, 0.0, state_for_occupancy(0.0, gaas), gaas)


def test_rate_quotient_equals_factorized_ratio(gaas):
    # zero-field limit: the raw quotient from the two spectral densities
    # collapses onto the amplitude * radial * angular factorization
    for gamma_t in (0.25, 0.5, 0.75):
        state = state_for_occupancy(gamma_t, gaas)
        for r in (0.5, 1.0, 1.8):
            for theta in (0.0, 0.9, math.pi / 2.0):
                bundle = rates(r, Geometry(theta=theta), state, 0.0, gaas)
                factors = competition(r, theta, state, gaas)
                assert bundle.f == pytest.approx(factors.f, rel=1e-10)


def test_quadrupolar_rate_amplitude_wiring(gaas):
    # rebuild the rate from first pieces: static energy scale, telegraph
    # amplitude, spectral densities and trace factors; this guards the
    # prefactor chain that the superoperator oracle alone cannot see
    from donor_halo.fields import donor_field
    from donor_halo.kinetics import spectral_density, telegraph_amplitude
    from donor_halo.materials import HBAR
    from donor_halo.oracles import angular_factor_trace

    gamma_t, r, theta, b_field = 0.35, 0.8, 1.1, 0.5
    state = state_for_occupancy(gamma_t, gaas)
    point = donor_field(r, gamma_t, gaas)
    g0 = telegraph_amplitude(gamma_t, point.screening)
    total = 0.0
    for k in (1, 2):
        omega = k * gaas.gamma * b_field
        total += angular_factor_trace(k, theta, gaas.spin) \
            * spectral_density(omega, g0, state.tau_quad)
    expected = (point.f0q / HBAR) ** 2 * total
    bundle = rates(r, Geometry(theta=theta), state, b_field, gaas)
    assert bundle.inv_t1q == pytest.approx(expected, rel=1e-12)


def test_reference_ratio_values(gaas):
    # perpendicular and axial ratios at the Bohr radius for amplitude 1e-2
    perpendicular = 1e-2 * radial_profile(1.0)
    assert 0.07 <= perpendicular <= 0.13
    axial = perpendicular / 4.0
    assert 0.017 <= axial <= 0.033
    assert perpendicular == pytest.approx(0.09566, abs=2e-5)


def test_radial_profile_monotone():
    grid = np.linspace(1e-3, 8.0, 10_000)
    values = np.array([radial_profile(r) for r in grid])
    assert np.all(np.diff(values) < 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1e-200, 5e-324, np.array([1e-200, 0.3]),
                               np.array([0.3, 5e-324])])
def test_radial_profile_past_the_float_range_raises(r):
    # phi passes the float range near r = 4.13e-154, where log phi stays finite
    assert np.all(np.isfinite(log_radial_profile(r)))
    with pytest.raises(NumericalError, match="float range"):
        radial_profile(r)


@pytest.mark.filterwarnings("error")
def test_radial_profile_at_the_edge_of_the_float_range():
    r = 4.14e-154
    phi = radial_profile(r)
    assert 1e308 < phi < math.inf
    assert radial_profile(np.array([r, 0.3]))[0] == phi


FAR_LOG_TARGETS = [-1e3, -1e4, -1e170, -1e174, -1e300, -sys.float_info.max]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("log_target", FAR_LOG_TARGETS)
def test_radial_profile_inverse_far_from_the_donor(log_target):
    # far out the root is near r = -log_target / 4; below about -1e170 the
    # steps from a start at r = 8 did not reach it.  r = e^u keeps the
    # rounding of u = log r (up to ~710), so allow 1e-12 relative
    r = radial_profile_inverse(log_target)
    assert math.isfinite(r)
    assert log_radial_profile(r) == pytest.approx(log_target, rel=1e-12)
    assert radial_profile_inverse(np.array([log_target, -1.0]))[0] == r


def test_rates_reject_bad_inputs(gaas):
    state = occupancy(1e21, gaas)
    with pytest.raises(MaterialError):
        rates(1.0, Geometry(), state, -1.0, gaas)
