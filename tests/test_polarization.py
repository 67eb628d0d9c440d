import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from donor_halo import (Geometry, MaterialError, NumericalError, calibrate_diffusion,
                        diffusion_radius, get_material, half_polarization_radius,
                        intrinsic_ratio, list_materials, nuclear_field, p_avg, p_point,
                        power_sweep, profile, quadrupolar_radius, radius_sweep, rates,
                        screening_fraction, state_for_occupancy)
from donor_halo.kinetics import power_scale
from donor_halo.oracles import p_avg_quadrature
from donor_halo.polarization import FIELD_INTEGRAL_UPPER, R_B, RHO_D_REFERENCE
from donor_halo.relaxation import radial_profile


def test_p_point_limits():
    assert p_point(1e-3, 0.7, 1e-2) > 0.999
    assert p_point(8.0, 0.7, 1e-2) < 1e-6
    with pytest.raises(MaterialError):
        p_point(0.0, 0.0, 1e-2)


def test_half_polarization_radii():
    r_par = half_polarization_radius(0.0, 1e-2)
    r_perp = half_polarization_radius(math.pi / 2.0, 1e-2)
    assert abs(r_par - 0.25) <= 0.03
    assert abs(r_perp - 0.45) <= 0.03
    assert p_point(r_par, 0.0, 1e-2) == pytest.approx(0.5, abs=1e-5)
    assert p_point(r_perp, math.pi / 2.0, 1e-2) == pytest.approx(0.5, abs=1e-5)


def test_sphere_average_against_quadrature():
    for r in (0.05, 0.2, 0.35, 0.8, 1.5, 4.0):
        for f0 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            assert abs(p_avg(r, f0) - p_avg_quadrature(r, f0)) <= 1e-9


def test_sphere_average_reference_point():
    # radial amplitude a = f0 * phi(0.35) = 1.7333 gives the half-crossing zone
    assert 1e-2 * radial_profile(0.35) == pytest.approx(1.7333, abs=2e-4)
    value = p_avg(0.35, 1e-2)
    assert value == pytest.approx(0.4895, abs=2e-4)
    assert value == pytest.approx(p_avg_quadrature(0.35, 1e-2), abs=1e-12)


def test_sphere_average_limits():
    assert p_avg(1e-3, 1.0) > 0.999     # saturated close to the donor
    assert p_avg(8.0, 1e-4) < 1e-9      # vanishing far out


def test_polarization_is_one_where_f0_phi_overflows():
    # f0 * phi(r) overflows to inf at r <= 0.1; the result is the limit 1 on the
    # float and the array path, with no floating-point warning
    r = np.array([0.05, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p_point(0.05, 0.0, 1e308) == 1.0 and p_avg(0.05, 1e308) == 1.0
        assert list(p_point(r, math.pi / 2.0, 1e308)) == [1.0, 1.0]
        assert list(p_point(0.05, np.array([0.0, 1.0]), 1e308)) == [1.0, 1.0]
        assert list(p_avg(r, 1e308)) == [1.0, 1.0]
        assert p_avg(0.05, np.array([1e308, 1e-2]))[1] == p_avg(0.05, 1e-2)


def test_quadrupolar_radius_reference():
    rho = quadrupolar_radius(1e-2)
    assert abs(rho - 0.35) <= 0.01
    assert p_avg(rho, 1e-2) == pytest.approx(0.5, abs=1e-5)
    assert abs(screening_fraction(rho) - 0.034) <= 0.005


def test_quadrupolar_radius_monotone():
    table = radius_sweep(np.geomspace(1e-4, 1.0, 21))
    assert np.all(np.diff(table[:, 1]) > 0.0)
    assert np.all(np.diff(table[:, 2]) > 0.0)


def test_quadrupolar_radius_grows_its_bracket():
    # roots far outside [1e-3, 8] a0*, on both sides
    far = quadrupolar_radius(1e10)
    assert far == pytest.approx(8.7805, abs=1e-4)
    near = quadrupolar_radius(1e-12)
    assert near < 1e-3
    # here the root sits where s(r) ~ r^3 is far below the float range
    tiny = quadrupolar_radius(1e-200)
    assert tiny == pytest.approx(4.1175e-100, rel=1e-4)
    for rho, f0 in ((far, 1e10), (near, 1e-12), (tiny, 1e-200)):
        assert p_avg(rho * (1 - 1e-9), f0) > 0.5 > p_avg(rho * (1 + 1e-9), f0)
    table = radius_sweep(np.array([1e-12, 1e-2, 1e10, 1e-200]))
    assert table[:, 1] == pytest.approx([near, quadrupolar_radius(1e-2), far, tiny],
                                        rel=1e-12)


def test_polarization_never_exceeds_one():
    # a / sqrt(3 (1+a)) * atan(sqrt(3 / (1+a))) rounded to 1 + 2 ulps here
    assert p_avg(0.3, 1e200) <= 1.0
    r = np.geomspace(1e-6, 1.0, 20001)
    for f0 in (1e5, 1e100, 1e200, 1e308):
        assert np.all(p_avg(r, f0) <= 1.0)
        assert np.all(p_point(r, 0.0, f0) <= 1.0)
        assert np.all(p_point(r, math.pi / 2.0, f0) <= 1.0)
        for ri in r[::500]:
            ri = float(ri)
            assert p_avg(ri, f0) <= 1.0
            assert p_point(ri, 0.0, f0) <= 1.0 and p_point(ri, 1.0, f0) <= 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_point_and_average_reject_bad_inputs(bad):
    with pytest.raises(MaterialError, match="positive and finite"):
        p_point(0.3, 0.0, bad)
    with pytest.raises(MaterialError, match="positive and finite"):
        p_point(bad, 0.0, 1e-2)
    with pytest.raises(MaterialError, match="positive and finite"):
        p_avg(1.0, bad)
    with pytest.raises(MaterialError, match="positive and finite"):
        p_avg(bad, 1e-2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_radius_rejects_non_finite_f0(bad):
    # both used to return 7.9999995, the top of the bracket
    with pytest.raises(MaterialError):
        quadrupolar_radius(bad)
    with pytest.raises(MaterialError):
        radius_sweep(np.array([bad, 0.1]))


def test_radius_sweep_single_point():
    table = radius_sweep(np.array([1e-2]))
    assert table.shape == (1, 3)
    assert table[0, 1] == pytest.approx(quadrupolar_radius(1e-2), abs=1e-9)


def test_profile_invariants():
    prof = profile(1e-2, np.linspace(0.05, 4.0, 80))
    assert np.all(prof.p_parallel <= prof.p_perpendicular + 1e-15)
    assert np.all(prof.p_avg <= prof.p_perpendicular + 1e-12)
    assert np.all(prof.p_avg >= prof.p_parallel - 1e-12)
    for series in (prof.p_parallel, prof.p_perpendicular, prof.p_avg):
        assert np.all((series > 0.0) & (series < 1.0))
        assert np.all(np.diff(series) < 0.0)
    assert prof.rho_q == pytest.approx(quadrupolar_radius(1e-2), abs=1e-9)


def test_profile_rejects_bad_grid():
    with pytest.raises(MaterialError):
        profile(1e-2, np.array([0.3, 0.2]))


def test_nuclear_field_step_and_exact(gaas):
    prof = profile(1e-2, np.linspace(0.05, 3.0, 40))
    field = nuclear_field(prof, gaas)
    assert field.b_n_step == pytest.approx(
        gaas.b_n0 * screening_fraction(prof.rho_q), rel=1e-12)
    # the trapezoid rule on 40001 points up to the same truncation radius:
    # a route independent of the Gauss-Legendre panels of nuclear_field
    # (tests/test_oracles.py holds those against quad at 1e-12)
    grid = np.linspace(1e-6, FIELD_INTEGRAL_UPPER, 40_001)
    weight = 4.0 * grid ** 2 * np.exp(-2.0 * grid)
    averaged = np.array([p_avg(float(r), 1e-2) for r in grid])
    oracle = gaas.b_n0 * np.trapezoid(weight * averaged, grid)
    assert field.b_n_exact == pytest.approx(oracle, rel=1e-6)
    # the step model undercounts the slow tail of the averaged profile
    assert field.b_n_exact / field.b_n_step == pytest.approx(2.478, abs=0.01)


@pytest.mark.parametrize("f0,ratio", [(1e-3, 7.339), (1e-2, 2.478), (1e-1, 1.210)])
def test_nuclear_field_tail_ratio(gaas, f0, ratio):
    prof = profile(f0, np.linspace(0.1, 1.0, 4))
    field = nuclear_field(prof, gaas)
    assert field.b_n_exact / field.b_n_step == pytest.approx(ratio, abs=0.01)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-8.0, 6.0), st.floats(-8.0, 6.0))
def test_nuclear_field_never_falls_as_f0_grows(gaas, log_f0_a, log_f0_b):
    # a larger competition amplitude favours the polarizing hyperfine
    # channel at every r, so neither field estimate can fall
    grid = np.array([0.5])
    weaker, stronger = (nuclear_field(profile(10.0 ** e, grid), gaas)
                        for e in sorted((log_f0_a, log_f0_b)))
    assert stronger.b_n_exact >= weaker.b_n_exact
    assert stronger.b_n_step >= weaker.b_n_step


def test_nuclear_field_diffusion_cap(gaas):
    prof = profile(1.0, np.linspace(0.1, 2.0, 8), rho_d=0.8)
    capped = nuclear_field(prof, gaas)
    assert prof.rho_q > 0.8
    assert capped.b_n_step == pytest.approx(
        gaas.b_n0 * screening_fraction(0.8), rel=1e-12)


def test_diffusion_radius_calibration(gaas):
    state = state_for_occupancy(0.5, gaas)
    d = calibrate_diffusion(state, 0.1, gaas)
    root = diffusion_radius(state, 0.1, d, gaas, f0=math.inf)
    assert root.has_solution
    assert root.value == pytest.approx(RHO_D_REFERENCE, abs=1e-5)


def test_diffusion_radius_with_quadrupolar_channel(gaas):
    # the quadrupolar channel has a slow r^-4 tail, so the outermost
    # balance point moves far outward relative to the hyperfine-only 1.4
    state = state_for_occupancy(0.5, gaas)
    d = calibrate_diffusion(state, 0.1, gaas)
    root = diffusion_radius(state, 0.1, d, gaas, f0=1e-2)
    assert root.has_solution
    assert root.value == pytest.approx(22.48, abs=0.05)
    assert root.value > RHO_D_REFERENCE


def test_diffusion_radius_no_solution(gaas):
    state = state_for_occupancy(0.5, gaas)
    d = calibrate_diffusion(state, 0.1, gaas)
    swamped = diffusion_radius(state, 0.1, d * 1e6, gaas, f0=math.inf)
    assert not swamped.has_solution
    assert swamped.value is None
    # an empty donor has no hyperfine relaxation to balance diffusion with
    empty = state_for_occupancy(0.0, gaas)
    assert diffusion_radius(empty, 0.1, d, gaas, f0=math.inf) == (None, False)


def test_diffusion_radius_takes_an_overflowing_f0_as_its_limit(gaas):
    # below occupancy ~1e-321 the derived f0 = f00 / (occ (1 - occ)) is past
    # the float range: the state's own f0 is then f0 = inf, no refusal
    state = state_for_occupancy(1e-322, gaas)
    d = calibrate_diffusion(state_for_occupancy(0.5, gaas), 0.1, gaas)
    assert diffusion_radius(state, 0.1, d, gaas) == diffusion_radius(state, 0.1, d, gaas,
                                                                      f0=math.inf)


def test_diffusion_radius_with_a_subnormal_hyperfine_rate(gaas):
    # at 1e155 T the hyperfine rate at a0* is subnormal and rate * a0*^2
    # underflows to 0; far out, where s = 1 and the hyperfine channel is
    # 0, the quadrupolar balance 2 rate a0*^2 / (f0 D r^2) = 1 is closed form
    state = state_for_occupancy(0.5, gaas)
    rate = rates(1.0, Geometry(), state, 1e155, gaas).inv_t1h
    assert 0.0 < rate < 2.2e-308 and rate * gaas.bohr_radius ** 2 == 0.0
    d, f0 = 5e-324, 1e-10
    root = diffusion_radius(state, 1e155, d, gaas, f0=f0)
    assert root.has_solution
    assert root.value == pytest.approx(math.sqrt(2.0 / f0 * rate * (gaas.bohr_radius ** 2 / d)),
                                       rel=1e-12)


def test_diffusion_radius_with_a_bohr_radius_whose_square_overflows(gaas):
    # past a0* ~ 1.34e154 the float a0*^2 overflows, and the balance takes
    # log rate + 2 log a0* instead; the radius keeps the a0* scaling it has
    # where a0*^2 is finite
    state = state_for_occupancy(0.5, gaas)
    scaled = []
    for a0 in (1e150, 1e160, 1e300):
        root = diffusion_radius(state, 0.1, 1.0, gaas.with_overrides(bohr_radius=a0), f0=0.02)
        assert root.has_solution and math.isfinite(root.value)
        scaled.append(root.value / a0)
    assert scaled == pytest.approx([scaled[0]] * 3, rel=1e-12)


def test_diffusion_radius_past_the_float_range_raises(gaas):
    # with D and f0 at the smallest subnormal the quadrupolar tail crosses
    # D / rho^2 past the largest float; f0 = 1e-310 still crosses inside it
    state = state_for_occupancy(0.5, gaas)
    with pytest.raises(NumericalError, match="past") as err:
        diffusion_radius(state, 0.1, 5e-324, gaas, f0=5e-324)
    assert "\n" not in str(err.value)
    root = diffusion_radius(state, 0.1, 5e-324, gaas, f0=1e-310)
    assert root.has_solution and 1e307 < root.value < math.inf


def test_diffusion_radius_moves_outward_as_diffusion_weakens(gaas):
    # weaker spin diffusion (smaller D) can only push the outermost balance
    # point outward, and cannot remove it
    state = state_for_occupancy(0.5, gaas)
    d = calibrate_diffusion(state, 0.1, gaas)
    roots = [diffusion_radius(state, 0.1, d * scale, gaas) for scale in (1e-2, 1e-1, 1.0)]
    for weaker, stronger in zip(roots, roots[1:]):
        if stronger.has_solution:
            assert weaker.has_solution
            assert weaker.value >= stronger.value


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.floats(0.05, 0.95), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_diffusion_radius_never_shrinks_with_the_quadrupolar_channel(gaas, occ, log_scale,
                                                                    log_f0):
    # metamorphic: the quadrupolar channel only adds to the relaxation rate,
    # so wherever the hyperfine-only balance (f0 = inf) has a root, any f0
    # has one too, at or past it.  This is why the published ~1.0 a0* of
    # reference-numbers/diffusion-quad-modified is not reproducible.
    state = state_for_occupancy(occ, gaas)
    d = calibrate_diffusion(state, 0.1, gaas) * 10.0 ** log_scale
    alone = diffusion_radius(state, 0.1, d, gaas, f0=math.inf)
    both = diffusion_radius(state, 0.1, d, gaas, f0=10.0 ** log_f0)
    if alone.has_solution:
        assert both.has_solution
        assert both.value >= alone.value


def test_r_b_solves_its_defining_equation():
    # s(r)^2 / r^2 peaks where r s'(r) = 4 r^3 e^{-2r} equals s(r)
    def excess(r):
        return 4.0 * r ** 3 * math.exp(-2.0 * r) - screening_fraction(r)

    lo, hi = 1.0, 3.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    assert abs(R_B - lo) <= 1e-15 * lo


#: records with a hyperfine field, the ones a diffusion balance exists for
HYPERFINE_RECORDS = [name for name in list_materials()
                     if get_material(name).hyperfine_field_bohr is not None]


def _hyperfine_rate_at_bohr(state, b_field, mat):
    return rates(1.0, Geometry(), state, b_field, mat).inv_t1h


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(HYPERFINE_RECORDS), st.floats(0.05, 0.95), st.floats(-8.0, 8.0))
def test_diffusion_radius_without_quadrupolar_is_lambert_w(name, occ, log_scale):
    # r^2 e^{-4(r-1)} = q^2 with q^2 = D / (Gamma_1 a0*^2): the outer root
    # is r = -W_{-1}(-2 q e^{-2}) / 2, and none exists past q = e/2
    mat = get_material(name)
    state = state_for_occupancy(occ, mat)
    d = calibrate_diffusion(state, 0.1, mat) * 10.0 ** log_scale
    q = math.sqrt(d / (_hyperfine_rate_at_bohr(state, 0.1, mat) * mat.bohr_radius ** 2))
    root = diffusion_radius(state, 0.1, d, mat, f0=math.inf)
    argument = -2.0 * q * math.exp(-2.0)
    assert root.has_solution == (argument >= -math.exp(-1.0))
    if root.has_solution:
        exact = -lambertw(argument, k=-1).real / 2.0
        assert abs(root.value - exact) <= 1e-12 * exact


def _scanned_diffusion_radius(state, b_field, d, mat, f0):
    """Outermost sign change of the rate balance on a dense log grid.

    Returns the grid cell [r_i, r_i+1] that holds it, or None where the
    balance is nowhere positive on the grid.  f0 = inf leaves the
    quadrupolar channel out.
    """
    grid = np.geomspace(1e-3, 1e12, 30001)
    rate = np.exp(-4.0 * (grid - 1.0)) + 2.0 * screening_fraction(grid) ** 2 / (f0 * grid ** 4)
    excess = _hyperfine_rate_at_bohr(state, b_field, mat) * rate \
        * (grid * mat.bohr_radius) ** 2 - d
    positive = np.flatnonzero(excess > 0.0)
    if positive.size == 0:
        return None
    last = positive[-1]
    return grid[last], grid[last + 1]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(HYPERFINE_RECORDS), st.floats(0.05, 0.95), st.floats(-8.0, 8.0),
       st.sampled_from(["off", "state", "override"]), st.floats(-8.0, 8.0))
def test_diffusion_radius_matches_a_dense_scan(name, occ, log_scale, mode, log_f0):
    mat = get_material(name)
    state = state_for_occupancy(occ, mat)
    d = calibrate_diffusion(state, 0.1, mat) * 10.0 ** log_scale
    f0 = {"off": math.inf, "state": intrinsic_ratio(mat) / (occ * (1.0 - occ)),
          "override": 10.0 ** log_f0}[mode]
    root = diffusion_radius(state, 0.1, d, mat, f0=None if mode == "state" else f0)
    cell = _scanned_diffusion_radius(state, 0.1, d, mat, f0)
    assert root.has_solution == (cell is not None)
    if cell is not None:
        assert cell[0] * (1.0 - 1e-12) <= root.value <= cell[1] * (1.0 + 1e-12), cell


def test_field_reduction_ratio(gaas):
    rho_q = quadrupolar_radius(1e-2)
    ratio = screening_fraction(RHO_D_REFERENCE) / screening_fraction(rho_q)
    assert 10.0 <= ratio <= 20.0


def test_power_sweep_structure(gaas):
    sweep = power_sweep(np.geomspace(0.1, 100.0, 31), gaas)
    assert np.all(np.diff(sweep.occupancy) > 0.0)
    assert np.all(sweep.alpha_n <= sweep.s_rho_q + 1e-15)
    assert np.all(sweep.diffusion_flag == (sweep.occupancy < 0.15))
    assert np.all(np.isfinite(sweep.alpha_n))
    i0 = int(np.argmin(np.abs(sweep.p_over_p0 - 1.0)))
    assert abs(sweep.occupancy[i0] - 0.5) <= 0.1
    dip = 0.5 / sweep.s_rho_q[i0]
    assert 13.0 <= dip <= 30.0
    tail = sweep.alpha_n[sweep.p_over_p0 >= 2.0]
    assert np.all(np.diff(tail) < 0.0)


def test_power_sweep_interior_minimum(gaas):
    sweep = power_sweep(np.geomspace(0.1, 100.0, 31), gaas)
    i0 = int(np.argmin(np.abs(sweep.p_over_p0 - 1.0)))
    i_low = int(np.argmin(np.abs(sweep.p_over_p0 - 0.2)))
    assert sweep.alpha_n[i0] < sweep.alpha_n[i_low]
    # without the quadrupolar channel the radius saturates at the
    # diffusion ceiling and the dip disappears
    ceiling = power_sweep(np.array([1.0]), gaas, quadrupolar=False)
    assert ceiling.s_rho_q[0] == pytest.approx(
        screening_fraction(RHO_D_REFERENCE), rel=1e-12)
    assert sweep.s_rho_q[i0] < ceiling.s_rho_q[0] / 10.0
    assert sweep.alpha_n[i0] < ceiling.alpha_n[0]


@pytest.mark.parametrize("scale", [0.1, 3.0, 7.3])
def test_power_sweep_does_not_depend_on_the_diffusion_length(scale):
    # metamorphic: P and P0 both carry L * h_nu, so on a grid of P/P0 the
    # diffusion length cancels, and every column stays bit for bit
    grid = np.geomspace(1e-3, 1e3, 301)
    names = [name for name in list_materials()
             if get_material(name).hyperfine_field_bohr is not None]
    assert names
    for name in names:
        mat = get_material(name)
        scaled = mat.with_overrides(diffusion_length=scale * mat.diffusion_length)
        base, moved = power_sweep(grid, mat), power_sweep(grid, scaled)
        for column in ("p_over_p0", "occupancy", "nf_over_na", "s_rho_q", "alpha_n",
                       "diffusion_flag"):
            assert np.array_equal(getattr(base, column), getattr(moved, column)), \
                (name, column)
        assert (base.f00, base.rho_d) == (moved.f00, moved.rho_d)


def test_the_quadrupolar_channel_only_lowers_the_nuclear_field():
    # metamorphic: switching the channel on leaves the occupancy and carrier
    # columns alone and can only shrink the radius, so s(rho) and alpha_n
    # never rise
    grid = np.geomspace(1e-3, 1e3, 301)
    assert HYPERFINE_RECORDS
    for name in HYPERFINE_RECORDS:
        mat = get_material(name)
        on, off = power_sweep(grid, mat), power_sweep(grid, mat, quadrupolar=False)
        for column in ("occupancy", "nf_over_na", "diffusion_flag"):
            assert np.array_equal(getattr(on, column), getattr(off, column)), (name, column)
        assert np.all(on.s_rho_q <= off.s_rho_q), name
        assert np.all(on.alpha_n <= off.alpha_n), name


def test_power_sweep_reference_scale(gaas):
    assert 0.8e6 <= power_scale(gaas) <= 7.2e6
    with pytest.raises(MaterialError):
        power_sweep(np.array([-1.0]), gaas)
