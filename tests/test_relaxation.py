import math
import sys

import numpy as np
import pytest

from donor_halo import (Geometry, MaterialError, NumericalError, calibrate_diffusion,
                        diffusion_radius, intrinsic_ratio, radial_profile, rates,
                        state_for_occupancy)
from donor_halo.kinetics import KineticState, occupancy, spectral_density
from donor_halo.relaxation import log_radial_profile, radial_profile_inverse


def test_quadrupolar_rate_off_at_full_and_empty(gaas):
    empty = state_for_occupancy(0.0, gaas)
    assert rates(0.7, Geometry(), empty, 0.1, gaas).inv_t1q == 0.0
    assert rates(0.7, Geometry(), empty, 0.1, gaas).inv_t1h == 0.0
    full = KineticState(occupancy=1.0, free_density=1e30, tau_quad=1e-12, tau_hyper=1e-13)
    assert rates(0.7, Geometry(), full, 0.1, gaas).inv_t1q == 0.0


def test_quadrupolar_rate_angular_ratio(gaas):
    state = state_for_occupancy(0.5, gaas)
    axial = rates(0.8, Geometry(theta=0.0), state, 0.0, gaas).inv_t1q
    planar = rates(0.8, Geometry(theta=math.pi / 2.0), state, 0.0, gaas).inv_t1q
    assert axial / planar == pytest.approx(4.0, rel=1e-12)


def test_rate_frequencies(gaas):
    # at B = 2 T the channels sample their spectral densities at gamma B and
    # 2 gamma B (quadrupolar) and at the flip-flop frequency gamma_e B
    state = state_for_occupancy(0.4, gaas)
    at_zero = rates(1.0, Geometry(theta=0.7), state, 0.0, gaas)
    bundle = rates(1.0, Geometry(theta=0.7), state, 2.0, gaas)
    assert bundle.inv_t1h / at_zero.inv_t1h == pytest.approx(
        spectral_density(gaas.gamma_e * 2.0, 1.0, state.tau_hyper)
        / spectral_density(0.0, 1.0, state.tau_hyper), rel=1e-12)
    k1 = math.sin(0.7) ** 2 * 0.25    # angular weights (2/5) sin^2 : (8/5) cos^2
    k2 = math.cos(0.7) ** 2
    expect = (k1 * spectral_density(gaas.gamma * 2.0, 1.0, state.tau_quad)
              + k2 * spectral_density(gaas.gamma * 4.0, 1.0, state.tau_quad)) \
        / ((k1 + k2) * spectral_density(0.0, 1.0, state.tau_quad))
    assert bundle.inv_t1q / at_zero.inv_t1q == pytest.approx(expect, rel=1e-12)


def test_rate_proportionalities(gaas):
    # inv_t1q ~ occ(1-occ), inv_t1h ~ occ at fixed correlation times
    base = state_for_occupancy(0.5, gaas)
    for occ in (0.2, 0.7):
        state = KineticState(occupancy=occ, free_density=base.free_density,
                             tau_quad=base.tau_quad, tau_hyper=base.tau_hyper)
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
    # the zero-field rate ratio, stripped of occupancy, radius and angle
    for gamma_t in (0.2, 0.5, 0.8):
        state = state_for_occupancy(gamma_t, gaas)
        f = rates(1.0, Geometry(theta=0.3), state, 0.0, gaas).f
        assert f * gamma_t * (1.0 - gamma_t) * (1.0 + 3.0 * math.cos(0.3) ** 2) \
            / radial_profile(1.0) == pytest.approx(intrinsic_ratio(gaas), rel=1e-10)


def test_competition_factorization(gaas):
    # each factor of f0 phi(r) / (1 + 3 cos^2 theta) carries one variable
    def f(r, theta, occ):
        return rates(r, Geometry(theta=theta), state_for_occupancy(occ, gaas), 0.0, gaas).f

    base = f(1.3, 0.8, 0.5)
    assert f(0.6, 0.8, 0.5) / base == pytest.approx(
        radial_profile(0.6) / radial_profile(1.3), rel=1e-10)
    assert f(1.3, 0.2, 0.5) / base == pytest.approx(
        (1.0 + 3.0 * math.cos(0.8) ** 2) / (1.0 + 3.0 * math.cos(0.2) ** 2), rel=1e-10)
    assert f(1.3, 0.8, 0.2) / base == pytest.approx(0.25 / 0.16, rel=1e-10)


def test_competition_rejects_extreme_occupancy(gaas):
    # f0 = f00 / [occ (1-occ)] has no value at occupancy 0, so the balance
    # that derives f0 from the state refuses it
    state = state_for_occupancy(0.5, gaas)
    d = calibrate_diffusion(state, 0.1, gaas)
    with pytest.raises(MaterialError, match="occupancy must be in"):
        diffusion_radius(state_for_occupancy(0.0, gaas), 0.1, d, gaas)


def test_rate_quotient_equals_factorized_ratio(gaas):
    # zero-field limit: the raw quotient from the two spectral densities
    # collapses onto the amplitude * radial * angular factorization
    for gamma_t in (0.25, 0.5, 0.75):
        state = state_for_occupancy(gamma_t, gaas)
        for r in (0.5, 1.0, 1.8):
            for theta in (0.0, 0.9, math.pi / 2.0):
                bundle = rates(r, Geometry(theta=theta), state, 0.0, gaas)
                f0 = intrinsic_ratio(gaas) / (gamma_t * (1.0 - gamma_t))
                assert bundle.f == pytest.approx(
                    f0 * radial_profile(r) / (1.0 + 3.0 * math.cos(theta) ** 2), rel=1e-10)


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


def test_radial_profile_inverse_refuses_targets_past_the_smallest_float():
    # log phi(5e-324) = 1492.3: up to 1490 the root is a float; past about
    # 1492 it is not, and the iteration would meet r = 0
    assert 0.0 < radial_profile_inverse(1490.0) < 1e-322
    for log_target in (1490.5, 1e308, np.array([1.0, 1500.0])):
        with pytest.raises(MaterialError, match="log target must be finite and at most"):
            radial_profile_inverse(log_target)


def test_rates_reject_bad_inputs(gaas):
    state = occupancy(1e21, gaas)
    with pytest.raises(MaterialError):
        rates(1.0, Geometry(), state, -1.0, gaas)
