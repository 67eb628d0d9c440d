import math

import numpy as np
import pytest
from scipy.integrate import quad

from donor_halo import (Geometry, MaterialError, MissingParameterError, coulomb_field,
                        donor_field, efg_transform, get_material,
                        hyperfine_field_instant, rates, screening_fraction,
                        spectral_density, state_for_occupancy)
from donor_halo.fields import field_direction, screening_density
from donor_halo.materials import E_CHARGE, EPSILON_0, HBAR
from donor_halo.oracles import efg_transform_rotation, screening_cdf_quadrature


def test_screening_at_bohr_radius():
    assert screening_fraction(1.0) == pytest.approx(0.3233, abs=1e-4)
    assert abs(screening_fraction(1.0) - 0.323) <= 0.01


def test_screening_limits():
    assert screening_fraction(0.0) == 0.0
    assert screening_fraction(50.0) == pytest.approx(1.0, abs=1e-12)
    # enclosed charge grows as (4/3) r^3 near the donor
    r = 1e-3
    assert screening_fraction(r) / ((4.0 / 3.0) * r ** 3) == pytest.approx(1.0, abs=2e-3)


def test_screening_is_its_own_cdf():
    for r in (0.1, 0.3, 0.9, 1.7, 4.0):
        integral, _ = quad(screening_density, 0.0, r, epsabs=1e-13, epsrel=1e-13)
        assert integral == pytest.approx(screening_fraction(r), abs=1e-10)


def test_screening_keeps_its_digits_near_the_donor():
    # 1 - (1 + x + x^2/2) e^-x cancels at small x: 7.6e-5 relative error
    # at r = 1e-6 and all digits at 1e-8 before the series took over there
    radii = np.geomspace(1e-8, 10.0, 181)
    values = screening_fraction(radii)
    for r, value in zip(radii, values):
        oracle = screening_cdf_quadrature(float(r))
        assert abs(value - oracle) <= 1e-13 * oracle, r
        assert screening_fraction(float(r)) == pytest.approx(value, rel=1e-15, abs=0.0)
    # the two forms meet at x = 2r = 1 without a step
    edge = np.array([0.5 * (1.0 - 1e-15), 0.5, 0.5 * (1.0 + 1e-15)])
    assert np.all(np.diff(screening_fraction(edge)) >= 0.0)


def test_screening_rejects_negative_radius():
    with pytest.raises(MaterialError):
        screening_fraction(-1e-3)
    with pytest.raises(MaterialError):
        screening_fraction(np.array([0.1, -1e-3]))


def _rates(r, mat):
    return rates(r, Geometry(), state_for_occupancy(0.5, mat), 1.0, mat)


@pytest.mark.parametrize("call, expect", [
    (lambda mat: screening_fraction(math.nan), MaterialError),
    (lambda mat: screening_fraction(np.array([0.5, math.nan])), MaterialError),
    (lambda mat: coulomb_field(math.nan, mat), MaterialError),
    (lambda mat: hyperfine_field_instant(math.nan, mat), MaterialError),
    (lambda mat: spectral_density(1e9, 1.0, math.inf), MaterialError),
    (lambda mat: spectral_density(0.0, 1.0, math.inf), MaterialError),
    (lambda mat: _rates(math.nan, mat), MaterialError),
    (lambda mat: screening_density(-1.0), MaterialError),
    (lambda mat: screening_density(math.nan), MaterialError),
    (lambda mat: screening_density(np.array([0.5, -1.0])), MaterialError),
    (lambda mat: screening_fraction(1e154), 1.0),
    (lambda mat: screening_fraction(math.inf), 1.0),
    (lambda mat: list(screening_fraction(np.array([1e154, math.inf]))), [1.0, 1.0]),
    (lambda mat: screening_density(1e154), 0.0),
    (lambda mat: screening_density(math.inf), 0.0),
    (lambda mat: list(screening_density(np.array([1e154, math.inf]))), [0.0, 0.0]),
    (lambda mat: _rates(1e200, mat).inv_t1q, 0.0),
], ids=["s-nan", "s-array-nan", "coulomb-nan", "hyperfine-nan", "spectral-inf-tau",
        "spectral-inf-tau-dc", "rates-nan", "density-negative", "density-nan",
        "density-array-negative", "s-far", "s-inf", "s-array-far",
        "density-far", "density-inf", "density-array-far", "rates-far"])
def test_kernels_refuse_nan_and_keep_the_far_field_limits(call, expect, gaas):
    # NaN, a negative density radius and an infinite correlation time are refused;
    # far out s(r) = 1 and the density is 0 exactly, where x^2 overflowed and
    # inf * 0 gave NaN
    if expect is MaterialError:
        with pytest.raises(MaterialError):
            call(gaas)
    else:
        assert call(gaas) == expect


def test_coulomb_field_value_and_scaling(gaas):
    e0 = coulomb_field(1.0, gaas)
    direct = E_CHARGE / (4.0 * math.pi * gaas.epsilon * EPSILON_0
                         * gaas.bohr_radius ** 2)
    assert e0 == pytest.approx(direct, rel=1e-14)
    assert 0.9e6 <= e0 <= 1.2e6          # order 1e6 V/m at the Bohr radius
    assert coulomb_field(2.0, gaas) == pytest.approx(e0 / 4.0, rel=1e-14)
    with pytest.raises(MaterialError):
        coulomb_field(0.0, gaas)


def test_donor_field_point(gaas):
    point = donor_field(1.0, 0.5, gaas)
    assert point.e_on == pytest.approx(point.e_off * (1.0 - point.screening), rel=1e-14)
    expected_f0q = HBAR * gaas.gamma * (1.0 - point.screening * 0.5) \
        * gaas.b_q * point.e_off
    assert point.f0q == pytest.approx(expected_f0q, rel=1e-14)
    with pytest.raises(MaterialError):
        donor_field(1.0, 1.5, gaas)


def test_hyperfine_field_profile(gaas):
    assert hyperfine_field_instant(1.0, gaas) == pytest.approx(1.5e-3, rel=1e-12)
    assert hyperfine_field_instant(2.0, gaas) == pytest.approx(
        1.5e-3 * math.exp(-2.0), rel=1e-12)
    # field ratio at the Bohr radius, documented as about 5.2
    ratio = hyperfine_field_instant(1.0, gaas) / (gaas.b_q * coulomb_field(1.0, gaas))
    assert ratio == pytest.approx(5.2, rel=0.05)


def test_hyperfine_field_requires_record_value():
    with pytest.raises(MissingParameterError):
        hyperfine_field_instant(1.0, get_material("InP:In115"))


def test_geometry_validation():
    with pytest.raises(MaterialError):
        Geometry(theta=4.0)
    with pytest.raises(MaterialError):
        Geometry(phi=-0.1)
    with pytest.raises(MaterialError):
        Geometry(phi_b=7.0)


def test_efg_axial_quantization_case():
    # magnetic frame aligned with the crystal axis: only the three cross
    # components survive, set by the field direction angles
    r14, e_mag, theta, phi = 3.2e12, 2.0e6, 0.62, 2.4
    v = efg_transform(e_mag * field_direction(theta, phi), Geometry(theta=theta,
                                                                    phi=phi), r14)
    scale = r14 * e_mag
    assert v.xy == pytest.approx(scale * math.cos(theta), rel=1e-12)
    assert v.yz == pytest.approx(scale * math.sin(theta) * math.cos(phi), rel=1e-12)
    assert v.xz == pytest.approx(scale * math.sin(theta) * math.sin(phi), rel=1e-12)
    assert abs(v.xx) <= 1e-12 * scale
    assert abs(v.yy) <= 1e-12 * scale
    assert abs(v.zz) <= 1e-12 * scale


def test_efg_matches_rotation_oracle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        geo = Geometry(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi),
                       theta_b=rng.uniform(0, math.pi), phi_b=rng.uniform(0, 2 * math.pi))
        e_vec = rng.normal(size=3) * 1e6
        closed = efg_transform(e_vec, geo, 3.2e12)
        oracle = efg_transform_rotation(e_vec, geo, 3.2e12)
        scale = max(max(abs(c) for c in closed), 1e-30)
        for c, o in zip(closed, oracle):
            assert abs(c - o) <= 1e-10 * scale


def test_efg_traceless():
    rng = np.random.default_rng(4)
    for _ in range(30):
        geo = Geometry(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi),
                       theta_b=rng.uniform(0, math.pi), phi_b=rng.uniform(0, 2 * math.pi))
        v = efg_transform(rng.normal(size=3) * 1e6, geo, 3.2e12)
        scale = max(max(abs(c) for c in v), 1e-30)
        assert abs(v.xx + v.yy + v.zz) <= 1e-12 * scale
