import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from donor_halo import (Geometry, build_report, local_fields, motional_regime,
                        occupancy, render_report, spin_temperature_limit,
                        state_for_occupancy)
from donor_halo.validity import field_threshold, spin_temperature_eta


def test_local_fields_reference(gaas):
    check = local_fields(1.0, 0.5, 0.0, Geometry(), gaas)
    assert check.b_l == pytest.approx(3.0e-5)
    assert check.b_q / check.b_l > 10.0      # quadrupolar field dominates here
    assert check.high_field_ok
    weak = local_fields(1e-3, 0.5, 0.0, Geometry(), gaas)
    assert not weak.high_field_ok


def test_local_fields_spin_half(gaas):
    probe = gaas.with_overrides(spin=0.5)
    check = local_fields(1e-3, 0.5, 0.0, Geometry(), probe)
    assert check.b_q == 0.0
    # condition collapses to the spin-spin local field alone
    assert check.high_field_ok == (1e-6 >= 10.0 * probe.local_field ** 2)


def test_eta_reference_window(gaas):
    eta = spin_temperature_eta(gaas)
    assert 3e-9 * 0.5 <= eta <= 3e-9 * 1.5
    threshold = field_threshold(gaas.bohr_radius / 2.0, eta)
    assert 0.09 / 2.0 <= threshold <= 0.09 * 2.0


@pytest.mark.parametrize("bohr_radius", [1e-300, 1e-100, 1e-30, 1e-8, 1e30, 1e80, 1e300])
def test_eta_does_not_depend_on_the_bohr_radius(gaas, bohr_radius):
    # eta^5 = 8 (2I - 1) (b_q e / 4 pi eps eps0)^2 d / B_L holds no a0*
    assert spin_temperature_eta(gaas.with_overrides(bohr_radius=bohr_radius)) \
        == spin_temperature_eta(gaas)


@pytest.mark.parametrize("name, power, lo, hi", [
    ("neighbor_spacing", 0.2, -260.0, 250.0),
    ("local_field", -0.2, -290.0, 250.0),
    ("epsilon", -0.4, -150.0, 130.0),
])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
def test_eta_scales_as_a_power_of_each_record_field(gaas, name, power, lo, hi, u):
    # decades of the field, over ranges where every intermediate stays a normal float
    decades = lo + u * (hi - lo)
    scaled = gaas.with_overrides(**{name: getattr(gaas, name) * 10.0 ** decades})
    expected = spin_temperature_eta(gaas) * 10.0 ** (power * decades)
    assert spin_temperature_eta(scaled) == pytest.approx(expected, rel=1e-12)


def test_radius_power_law(gaas):
    limit_1 = spin_temperature_limit(1.0, gaas)
    limit_32 = spin_temperature_limit(32.0, gaas)
    assert limit_32.r_q == pytest.approx(limit_1.r_q / 2.0, rel=1e-12)
    eta = limit_1.eta
    for b in np.geomspace(1e-3, 10.0, 7):
        limit = spin_temperature_limit(float(b), gaas)
        assert limit.r_q * b ** 0.2 == pytest.approx(eta, rel=1e-6)
        assert field_threshold(limit.r_q, eta) == pytest.approx(float(b), rel=1e-10)


def test_radius_at_reduced_threshold(gaas):
    eta = spin_temperature_eta(gaas)
    threshold = field_threshold(gaas.bohr_radius / 2.0, eta)
    r = spin_temperature_limit(threshold / 3.0, gaas).r_q / gaas.bohr_radius
    assert r == pytest.approx(0.5 * 3.0 ** 0.2, rel=1e-9)
    assert 0.45 <= r <= 0.75


def test_motional_regime(gaas):
    state = occupancy(1e21, gaas)
    regime = motional_regime(1.0, state, gaas)
    report = build_report(1.0, 0.5, state, Geometry(), gaas)
    assert report.omega2_tau == 2.0 * report.omega1_tau == 2.0 * regime.omega1_tau
    assert regime.narrowed
    # the hyperfine product crosses unity within a factor 3 of 20 T
    b_star = 1.0 / (gaas.gamma_e * state.tau_hyper)
    assert 20.0 / 3.0 <= b_star <= 60.0
    assert motional_regime(b_star * 1.01, state, gaas).omegah_tau > 1.0
    dense = occupancy(1e27, gaas)
    fast = motional_regime(1.0, dense, gaas)
    assert fast.omega1_tau < 1e-3 and fast.omegah_tau < 1.0


def test_report_warnings(gaas):
    state = state_for_occupancy(0.5, gaas)
    clean = build_report(1.0, 0.5, state, Geometry(), gaas)
    assert clean.warnings == []
    assert clean.high_field_ok and clean.spin_temperature_ok
    risky = build_report(5e-4, 0.5, state_for_occupancy(0.05, gaas),
                         Geometry(), gaas)
    assert not risky.high_field_ok
    assert not risky.spin_temperature_ok
    assert len(risky.warnings) >= 3
    text = render_report(risky, gaas)
    assert "regime report" in text and "VIOLATED" in text


def test_report_renders_all_fields(gaas):
    state = state_for_occupancy(0.5, gaas)
    text = render_report(build_report(1.0, 0.5, state, Geometry(), gaas), gaas)
    for token in ("B_L", "B_Q", "eta", "narrowed", "flip-flop"):
        assert token in text


def test_eta_closed_form_matches_bisection_oracle():
    from donor_halo import get_material, list_materials
    from donor_halo.oracles import spin_temperature_eta_bisection
    checked = 0
    for name in list_materials():
        mat = get_material(name)
        if mat.spin < 1.0:
            continue
        for field in (1.0, 0.3):
            # eta does not depend on the field the oracle solves at
            closed = spin_temperature_eta(mat)
            oracle = spin_temperature_eta_bisection(mat, field)
            assert abs(closed - oracle) <= 1e-9 * oracle, (name, field)
        checked += 1
    assert checked == len(list_materials())
