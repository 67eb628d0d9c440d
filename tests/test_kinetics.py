import math

import numpy as np
import pytest

from donor_halo import (GAMMA_MIN_DIFFUSION, BracketError, Geometry, MaterialError,
                        gamma_ceiling, get_material, invert_power, list_materials,
                        motional_regime, occupancy, power_map, rates,
                        simulate_telegraph, spectral_density, state_for_occupancy,
                        telegraph_correlation)
from donor_halo import kinetics
from donor_halo.kinetics import power_scale, telegraph_amplitude, telegraph_p_matrix
from donor_halo.oracles import (power_map_residuals, spectral_density_quadrature,
                                telegraph_correlation_conditionals,
                                telegraph_p_matrix_expm)

SCREEN_BOHR = 0.3233235838169365   # enclosed-charge fraction at the Bohr radius


def test_occupancy_half_point(gaas):
    n_half = 1.0 / (gaas.sigma_capture * gaas.recombination_time * gaas.velocity)
    state = occupancy(n_half, gaas)
    assert state.occupancy == pytest.approx(0.5, rel=1e-12)
    # correlation time combines recombination and capture
    assert state.tau_quad == pytest.approx(gaas.recombination_time / 2.0, rel=1e-12)


def test_correlation_time_combines_channels(gaas):
    # 1/tau_quad = 1/tau_r + 1/tau_capture holds for any density
    for n_f in (1e19, 1e21, 5e22):
        state = occupancy(n_f, gaas)
        assert 1.0 / state.tau_quad == pytest.approx(
            1.0 / state.tau_r + 1.0 / state.tau_capture, rel=1e-12)


def test_occupancy_limits(gaas):
    assert occupancy(1e30, gaas).occupancy == pytest.approx(1.0, abs=1e-6)
    idle = occupancy(0.0, gaas)
    assert idle.occupancy == 0.0
    assert idle.degenerate
    assert math.isinf(idle.tau_hyper)
    with pytest.raises(MaterialError):
        occupancy(-1.0, gaas)
    with pytest.raises(MaterialError):
        occupancy(math.inf, gaas)


def test_hyperfine_correlation_time_golden(gaas):
    state = occupancy(1e21, gaas)
    direct = 1.0 / (gaas.sigma_exchange * gaas.velocity * 1e21)
    assert state.tau_hyper == pytest.approx(direct, rel=1e-14)


def test_state_for_occupancy_round_trip(gaas):
    for gamma_t in (0.1, 0.5, 0.9):
        state = state_for_occupancy(gamma_t, gaas)
        assert state.occupancy == pytest.approx(gamma_t, rel=1e-12)


def test_telegraph_switches_off():
    assert telegraph_amplitude(0.0, 0.3) == 0.0
    assert telegraph_amplitude(1.0, 0.3) == 0.0
    assert telegraph_amplitude(0.5, 0.0) == 0.0


def test_telegraph_zero_lag_value():
    # direct arithmetic of the closed form at the documented point
    expected = 0.25 * 0.3233 ** 2 / (1.0 - 0.5 * 0.3233) ** 2
    assert telegraph_amplitude(0.5, 0.3233) == pytest.approx(expected, rel=1e-12)
    assert telegraph_amplitude(0.5, 0.3233) == pytest.approx(0.03719, abs=2e-5)


def test_conditional_matrix_is_stochastic():
    for tau in (0.0, 0.5e-9, 4e-9):
        p = telegraph_p_matrix(tau, 1.3e-9, 0.6e-9)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0.0)
    occ = 1.3 / 1.9
    stationary = telegraph_p_matrix(1e3, 1.3e-9, 0.6e-9)
    assert np.allclose(stationary, [[1 - occ, occ], [1 - occ, occ]], atol=1e-12)


def test_conditional_matrix_matches_expm():
    for tau in (0.0, 0.2e-9, 1.1e-9, 6e-9):
        closed = telegraph_p_matrix(tau, 1.3e-9, 0.6e-9)
        oracle = telegraph_p_matrix_expm(tau, 1.3e-9, 0.6e-9)
        assert np.allclose(closed, oracle, atol=1e-12)


def test_correlation_reconstruction():
    occ = 0.35
    tau_occ, tau_empty = 0.9e-9, 0.9e-9 * (1 - occ) / occ
    amplitude = telegraph_amplitude(occ, SCREEN_BOHR)
    for tau in (0.0, 0.4e-9, 2.2e-9):
        direct = telegraph_correlation(tau, SCREEN_BOHR, tau_occ, tau_empty)
        recon = telegraph_correlation_conditionals(tau, SCREEN_BOHR, tau_occ, tau_empty)
        assert abs(direct - recon) <= 1e-12 * amplitude


@pytest.mark.parametrize("bad", [0.0, -1e-9, math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda tau_occ, tau_empty: telegraph_p_matrix(0.0, tau_occ, tau_empty),
    lambda tau_occ, tau_empty: telegraph_correlation(0.0, SCREEN_BOHR, tau_occ, tau_empty),
    lambda tau_occ, tau_empty: simulate_telegraph(SCREEN_BOHR, tau_occ, tau_empty,
                                                  n_dwell=1000, seed=1),
], ids=["p_matrix", "correlation", "simulate"])
def test_telegraph_refuses_a_dwell_time_not_positive_and_finite(call, bad):
    for tau_occ, tau_empty in ((bad, 1e-9), (1e-9, bad)):
        with pytest.raises(MaterialError, match="dwell times must be positive and finite"):
            call(tau_occ, tau_empty)


def test_telegraph_occupancy_is_fixed_by_the_dwell_times():
    assert kinetics.dwell_occupancy(1.0, 1.5) == 0.4
    assert kinetics.dwell_occupancy(1.0, 3.0) == 0.25
    stationary = telegraph_p_matrix(math.inf, 1.0, 3.0)[0]
    assert stationary.tolist() == [0.75, 0.25]
    assert telegraph_correlation(0.0, SCREEN_BOHR, 1.0, 3.0) \
        == telegraph_amplitude(0.25, SCREEN_BOHR)


@pytest.mark.parametrize("call", [
    lambda mat, state: occupancy(math.nan, mat),
    lambda mat, state: spectral_density(1.0, 1.0, math.nan),
    lambda mat, state: rates(1.0, Geometry(), state, math.nan, mat),
    lambda mat, state: motional_regime(math.nan, state, mat),
], ids=["occupancy", "spectral_density", "rates", "motional_regime"])
def test_guards_refuse_nan(call, gaas):
    with pytest.raises(MaterialError):
        call(gaas, state_for_occupancy(0.5, gaas))


def test_spectral_density_closed_form():
    assert spectral_density(0.0, 1.3, 2e-9) == pytest.approx(2.0 * 1.3 * 2e-9)
    assert spectral_density(0.5e9, 1.3, 2e-9) == pytest.approx(1.3 * 2e-9)
    rng = np.random.default_rng(23)
    for _ in range(10):
        tau_c = float(rng.uniform(0.05, 5.0)) * 1e-9
        omega = float(rng.uniform(0.0, 4.0)) / tau_c
        assert spectral_density(omega, 0.7, tau_c) == pytest.approx(
            spectral_density_quadrature(omega, 0.7, tau_c), rel=1e-8)


def test_power_reference_point(gaas_zeta01):
    # occupancy 1/2 with capture ratio 0.1 and acceptor/donor ratio 5
    point = power_map(0.5, gaas_zeta01)
    assert point.xi == pytest.approx(0.1, rel=1e-12)
    assert point.free_density == pytest.approx(
        (11.0 / 90.0) * gaas_zeta01.acceptor_density, rel=1e-12)
    assert point.power / point.p0 == pytest.approx(110.0 / 81.0, rel=1e-12)


def test_power_limits(gaas):
    small = power_map(1e-8, gaas)
    assert small.power / small.p0 < 1e-6
    assert 2.4e6 / 3.0 <= power_scale(gaas) <= 2.4e6 * 3.0
    with pytest.raises(MaterialError, match="ceiling"):
        power_map(gamma_ceiling(gaas) + 1e-6, gaas)


def test_power_balance_residuals(gaas):
    for gamma_t in (0.1, 0.45, 0.8):
        res = power_map_residuals(gamma_t, gaas)
        assert res["trapping"] <= 1e-8
        assert res["generation"] <= 1e-8


def test_power_monotone_and_invertible(gaas):
    grid = np.linspace(1e-3, gamma_ceiling(gaas) * 0.999, 200)
    powers = np.array([power_map(g, gaas).power for g in grid])
    assert np.all(np.diff(powers) > 0.0)
    for gamma_t in (0.05, 0.5, 0.85):
        power = power_map(gamma_t, gaas).power
        assert invert_power(power, gaas) == pytest.approx(gamma_t, abs=1e-9)
    assert invert_power(1e9 * power_scale(gaas), gaas) == pytest.approx(
        gamma_ceiling(gaas), abs=1e-4)
    with pytest.raises(MaterialError):
        invert_power(0.0, gaas)


def test_invert_power_survives_extreme_inputs(gaas):
    # near the capture ceiling the occupancy saturates at machine
    # resolution; the result must stay strictly below the ceiling so the
    # forward map remains evaluable
    for factor in (1e6, 1e15, 1e30):
        gamma_t = invert_power(factor * power_scale(gaas), gaas)
        assert gamma_t < gamma_ceiling(gaas)
        assert power_map(gamma_t, gaas).power > 0.0


def test_invert_power_meets_the_power_tolerance_at_low_power(gaas):
    # the bracket stop is relative to its top end, so a tiny occupancy is
    # resolved as finely as a large one
    power = 1e-12 * power_scale(gaas)
    scalar = invert_power(power, gaas)
    array = invert_power(np.array([power, 1e-8 * power_scale(gaas)]), gaas)
    assert array[0] == scalar
    for occ, target in zip(array, (power, 1e-8 * power_scale(gaas))):
        assert abs(power_map(float(occ), gaas).power - target) <= 1e-10 * target


def _exact_occupancy(power, mat):
    """The occupancy power_map sends to power, solved in closed form.

    The generation g = P / (L h nu) equals k m (m + N_A) with
    m = n_f + gamma N_D, and gamma is the smaller root of
    c N_D gamma^2 - [m (c + k) + c N_D + k N_A] gamma + c m = 0, c = sigma_c v.
    Both roots are taken in the forms that do not cancel, and the
    discriminant as a sum of non-negative terms.
    """
    c, k = mat.sigma_capture * mat.velocity, mat.bimolecular_k
    n_a, n_d = mat.acceptor_density, mat.donor_density
    g_over_k = power / (mat.diffusion_length * mat.photon_energy) / k
    m = 2.0 * g_over_k / (n_a + math.sqrt(n_a * n_a + 4.0 * g_over_k))
    b = m * (c + k) + c * n_d + k * n_a
    disc = (c * (m - n_d)) ** 2 + 2.0 * c * k * (m + n_d) * (m + n_a) \
        + (k * (m + n_a)) ** 2
    return 2.0 * c * m / (b + math.sqrt(disc))


@pytest.mark.parametrize("name", list_materials())
def test_invert_power_matches_the_exact_root(name):
    mat = get_material(name)
    powers = np.geomspace(1e-12, 1e6, 73) * power_scale(mat)
    swept = invert_power(powers, mat)
    for power, in_sweep in zip(powers, swept):
        exact = _exact_occupancy(float(power), mat)
        alone = invert_power(float(power), mat)
        assert abs(alone - exact) <= 2e-10 * exact, (power, alone, exact)
        assert abs(in_sweep - exact) <= 2e-10 * exact, (power, in_sweep, exact)


def test_invert_power_rejects_power_below_the_bracket(gaas):
    power = 1e-30 * power_scale(gaas)
    with pytest.raises(BracketError, match="below"):
        invert_power(power, gaas)
    with pytest.raises(BracketError, match="below"):
        invert_power(np.array([power_scale(gaas), power]), gaas)


def test_invert_power_raises_when_out_of_steps(gaas, monkeypatch):
    # the bracket width stops both bisections long before MAX_STEPS; with
    # three steps neither can stop, and both refuse instead of answering
    monkeypatch.setattr(kinetics, "MAX_STEPS", 3)
    power = 0.3 * power_scale(gaas)
    with pytest.raises(BracketError, match="did not converge"):
        invert_power(power, gaas)
    with pytest.raises(BracketError, match="did not converge"):
        invert_power(np.array([power, 2.0 * power]), gaas)


def test_reference_power_inverts_to_half(gaas_zeta01):
    power = (110.0 / 81.0) * power_scale(gaas_zeta01)
    assert invert_power(power, gaas_zeta01) == pytest.approx(0.5, abs=1e-9)


def test_diffusion_threshold_constant():
    assert GAMMA_MIN_DIFFUSION == 0.15
