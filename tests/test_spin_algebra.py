import math

import numpy as np
import pytest

from donor_halo import (Geometry, MaterialError, NonPerturbativeRegimeError,
                        angular_factor, bq_local_field, build_hq_general,
                        build_spin_operators, level_shift, redfield_rate_analytic)
from donor_halo.fields import donor_field, field_direction
from donor_halo.oracles import (angular_factor_trace, bq_local_field_trace,
                                level_shift_diagonalization,
                                redfield_rate_superoperator)
from donor_halo.spin_algebra import (build_hq_axial, spin_multiplicity,
                                     trace_iz2, trace_iz4)

SPINS = (0.5, 1.5, 2.5, 4.5)


@pytest.mark.parametrize("spin", SPINS)
def test_commutation_relations(spin):
    ops = build_spin_operators(spin)
    assert np.allclose(ops.iz @ ops.iplus - ops.iplus @ ops.iz, ops.iplus)
    assert np.allclose(ops.iz @ ops.iminus - ops.iminus @ ops.iz, -ops.iminus)
    assert np.allclose(ops.iplus @ ops.iminus - ops.iminus @ ops.iplus,
                       2.0 * ops.iz)


@pytest.mark.parametrize("spin", SPINS)
def test_ladder_eigenvalues(spin):
    # I+- I-+ |m> = [I(I+1) - m(m-+1)] |m>
    ops = build_spin_operators(spin)
    x = spin * (spin + 1.0)
    for product, sign in ((ops.iplus @ ops.iminus, -1), (ops.iminus @ ops.iplus, +1)):
        diag = np.diag(product).real
        for m, value in zip(ops.m_values, diag):
            assert value == pytest.approx(x - m * (m + sign), abs=1e-12)


def test_spin_operators_are_built_once_and_stay_read_only():
    ops = build_spin_operators(2.5)
    assert build_spin_operators(2.5) is ops
    for matrix in (ops.iz, ops.iplus, ops.iminus, ops.identity):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


def test_spin_half_iz():
    ops = build_spin_operators(0.5)
    assert np.allclose(ops.iz, np.diag([0.5, -0.5]))


def test_invalid_spin_rejected():
    with pytest.raises(MaterialError):
        spin_multiplicity(1.2)
    with pytest.raises(MaterialError):
        build_spin_operators(-0.5)


def test_spin_whose_matrices_numpy_refuses_is_a_material_error():
    # numpy refuses a 2e155-element arange at once, before any allocation
    with pytest.raises(MaterialError, match=r"^spin 1e\+155 needs 2e\+155-dimensional matrices"):
        build_spin_operators(1e155)


@pytest.mark.parametrize("spin", SPINS)
def test_iz_moment_traces(spin):
    ops = build_spin_operators(spin)
    iz2 = float(np.trace(ops.iz @ ops.iz).real)
    iz4 = float(np.trace(np.linalg.matrix_power(ops.iz, 4)).real)
    assert iz2 == pytest.approx(trace_iz2(spin), rel=1e-13)
    assert iz4 == pytest.approx(trace_iz4(spin), rel=1e-13)
    # brute-force sums over the m ladder
    m = ops.m_values
    assert iz2 == pytest.approx(float(np.sum(m ** 2)))
    assert iz4 == pytest.approx(float(np.sum(m ** 4)))


def test_iz_trace_reference_values():
    assert trace_iz2(1.5) == pytest.approx(5.0)
    assert trace_iz4(1.5) == pytest.approx(10.25)


def test_angular_factor_reference_values():
    assert angular_factor_trace(1, math.pi / 2.0, 1.5) == pytest.approx(4.8)
    total = sum(angular_factor_trace(k, 0.0, 1.5) for k in (1, 2))
    assert total == pytest.approx(19.2)
    for k in (1, 2):
        assert angular_factor_trace(k, 0.83, 0.5) == pytest.approx(0.0, abs=1e-14)
        assert angular_factor(k, 0.83, 0.5) == 0.0


@pytest.mark.parametrize("spin", SPINS)
def test_angular_factor_trace_matches_analytic(spin):
    for theta in np.linspace(0.0, math.pi, 32):
        for k in (1, 2):
            trace = angular_factor_trace(k, float(theta), spin)
            if spin < 1.0:
                assert abs(trace) < 1e-12
            else:
                assert trace == pytest.approx(
                    angular_factor(k, float(theta), spin), rel=1e-10, abs=1e-12)


def test_angular_factor_sum_ratio():
    # the summed factor peaks along the axis, dips in the plane, ratio 4
    total = {theta: sum(angular_factor(k, theta, 2.5) for k in (1, 2))
             for theta in (0.0, math.pi / 2.0)}
    assert total[0.0] / total[math.pi / 2.0] == pytest.approx(4.0, rel=1e-14)
    samples = [sum(angular_factor(k, t, 2.5) for k in (1, 2))
               for t in np.linspace(0, math.pi, 41)]
    assert max(samples) == pytest.approx(total[0.0])
    assert min(samples) == pytest.approx(total[math.pi / 2.0])


def test_angular_factor_rejects_bad_channel():
    with pytest.raises(MaterialError):
        angular_factor(3, 0.1, 1.5)


def test_hq_general_axial_field_case(gaas):
    # field along the crystal axis: only the xy gradient survives, and the
    # matrix reduces to the pure double-quantum form
    e_mag = 1.1e6
    geo = Geometry(theta=0.0, phi=0.0)
    h = build_hq_general(e_mag * field_direction(0.0, 0.0), geo, gaas)
    ops = build_spin_operators(gaas.spin)
    coupling = 1.602176634e-19 * gaas.quadrupole_moment * gaas.r14 * e_mag \
        / (4.0 * gaas.spin * (2.0 * gaas.spin - 1.0))
    ip2 = ops.iplus @ ops.iplus
    expected = -1j * coupling * (ip2 - ip2.conj().T)
    assert np.allclose(h, expected, atol=1e-12 * abs(coupling))


def test_hq_general_hermitian_traceless(gaas):
    rng = np.random.default_rng(9)
    for _ in range(10):
        geo = Geometry(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi),
                       theta_b=rng.uniform(0, math.pi), phi_b=rng.uniform(0, 2 * math.pi))
        h = build_hq_general(rng.normal(size=3) * 1e6, geo, gaas)
        scale = np.abs(h).max()
        assert np.abs(h - h.conj().T).max() <= 1e-12 * scale
        assert abs(np.trace(h)) <= 1e-12 * scale


def test_hq_general_spectrum_frame_invariant(gaas):
    # eigenvalues of the coupling cannot depend on where the quantization
    # axis points; this exercises the tensor transform and the operator
    # assembly jointly
    rng = np.random.default_rng(2)
    e_vec = rng.normal(size=3) * 1e6
    reference = np.linalg.eigvalsh(build_hq_general(e_vec, Geometry(), gaas))
    scale = np.abs(reference).max()
    for _ in range(6):
        geo = Geometry(theta_b=rng.uniform(0, math.pi),
                       phi_b=rng.uniform(0, 2 * math.pi))
        eigs = np.linalg.eigvalsh(build_hq_general(e_vec, geo, gaas))
        assert np.abs(eigs - reference).max() <= 1e-10 * scale
    # pure quadrupole coupling of a half-integer spin: doubly degenerate pairs
    assert reference[0] == pytest.approx(reference[1], rel=1e-12)
    assert reference[2] == pytest.approx(reference[3], rel=1e-12)


def test_local_field_zero_for_spin_half(gaas):
    probe = gaas.with_overrides(spin=0.5)
    assert bq_local_field(0.5, 0.0, Geometry(), probe) == 0.0
    assert bq_local_field_trace(0.5, 0.0, Geometry(), probe) == 0.0


def test_local_field_reference_value(gaas):
    # the documented estimate is 1.6 mT; direct evaluation of the closed
    # form with these constants lands near 3.6 mT, within the adopted
    # factor-3 window
    value = bq_local_field(0.5, 0.0, Geometry(), gaas)
    assert 1.6e-3 / 3.0 <= value <= 1.6e-3 * 3.0


def test_local_field_scaling_and_oracle(gaas):
    near = bq_local_field(0.5, 0.0, Geometry(theta=0.42, phi=1.0), gaas)
    far = bq_local_field(1.0, 0.0, Geometry(theta=0.42, phi=1.0), gaas)
    assert far == pytest.approx(near / 4.0, rel=1e-12)
    for theta in (0.0, 0.6, math.pi / 2):
        geo = Geometry(theta=theta)
        assert bq_local_field(0.7, 0.4, geo, gaas) == pytest.approx(
            bq_local_field_trace(0.7, 0.4, geo, gaas), rel=1e-10)


def test_level_shift_zero_for_spin_half(gaas):
    probe = gaas.with_overrides(spin=0.5)
    assert level_shift(0.5, 1.0, 0.5, Geometry(), 0.0, probe) == 0.0
    assert abs(level_shift_diagonalization(0.5, 1.0, 0.5, Geometry(), 0.0, probe)) < 1e-40


def test_level_shift_inverse_field_scaling(gaas):
    geo = Geometry(theta=0.3, phi=0.1)
    one = level_shift(1.5, 1.0, 0.5, geo, 0.2, gaas)
    two = level_shift(1.5, 2.0, 0.5, geo, 0.2, gaas)
    assert two == pytest.approx(one / 2.0, rel=1e-12)


def test_level_shift_matches_diagonalization(gaas):
    args = (1.5, 1.0, 0.5, Geometry(), 0.0, gaas)
    assert level_shift_diagonalization(*args) == pytest.approx(level_shift(*args), rel=0.01)
    # every level, generic orientation
    geo = Geometry(theta=1.1, phi=0.7)
    for m in (-1.5, -0.5, 0.5, 1.5):
        args = (m, 0.5, 0.4, geo, 0.3, gaas)
        assert level_shift_diagonalization(*args) == pytest.approx(
            level_shift(*args), rel=1e-3, abs=1e-40)


def test_level_shift_guards(gaas):
    for shift in (level_shift, level_shift_diagonalization):
        with pytest.raises(NonPerturbativeRegimeError):
            shift(1.5, 1e-5, 0.25, Geometry(), 0.0, gaas)
        # gamma*hbar*B underflows to 0 and far out H_Q is 0: no Zeeman
        # splitting is no perturbative regime, not a division by zero
        with pytest.raises(NonPerturbativeRegimeError):
            shift(1.5, 5e-324, 1e308, Geometry(), 0.2, gaas)
        with pytest.raises(MaterialError):
            shift(2.0, 1.0, 0.5, Geometry(), 0.0, gaas)
        with pytest.raises(MaterialError):
            shift(1.5, -1.0, 0.5, Geometry(), 0.0, gaas)


def test_redfield_zero_for_spin_half():
    assert redfield_rate_superoperator(0.5, 0.9, 1e-9, 2e-9) == pytest.approx(0.0, abs=1e-30)


def test_redfield_angular_ratio():
    j = 1.7e-9
    axial = redfield_rate_superoperator(1.5, 0.0, j, j)
    planar = redfield_rate_superoperator(1.5, math.pi / 2.0, j, j)
    assert axial / planar == pytest.approx(4.0, rel=1e-12)


def test_redfield_superoperator_matches_analytic():
    rng = np.random.default_rng(17)
    for _ in range(10):
        spin = float(rng.choice([1.0, 1.5, 2.5, 4.5]))
        theta = float(rng.uniform(0, math.pi))
        j1, j2 = rng.uniform(0.1, 5.0, size=2) * 1e-9
        assert redfield_rate_superoperator(spin, theta, j1, j2) == pytest.approx(
            redfield_rate_analytic(spin, theta, j1, j2), rel=1e-8)


def test_hq_axial_matches_f0q_scaling(gaas):
    # the surface-normal Hamiltonian equals the quadrupole operators scaled
    # by the static energy from the field point (stored-coupling route)
    point = donor_field(0.8, 0.3, gaas)
    h = build_hq_axial(point.f0q, 0.5, 1.2, gaas.spin)
    h_double = build_hq_axial(2.0 * point.f0q, 0.5, 1.2, gaas.spin)
    assert np.allclose(h_double, 2.0 * h)
