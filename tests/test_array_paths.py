"""Array and scalar paths of the kernels and radii, against each other and
against brute-force oracles, over randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from donor_halo import (get_material, half_polarization_radius, invert_power,
                        list_materials, p_avg, p_point, quadrupolar_radius,
                        radial_profile, screening_fraction)
from donor_halo.kinetics import power_map, power_scale
from donor_halo.oracles import quadrupolar_radius_bisection
from donor_halo.polarization import A_STAR

log_f0 = st.floats(min_value=-12.0, max_value=12.0)
log_r = st.floats(min_value=-6.0, max_value=1.0)


def test_a_star_solves_its_defining_equation():
    def excess(a):
        root = math.sqrt(1.0 + a)
        return a / (math.sqrt(3.0) * root) * math.atan(math.sqrt(3.0) / root) - 0.5

    lo, hi = 1.0, 3.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
    assert abs(A_STAR - lo) <= 1e-15 * lo
    assert p_avg(quadrupolar_radius(1e-2), 1e-2) == pytest.approx(0.5, abs=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(log_r, log_f0, st.floats(0.0, math.pi)),
                min_size=1, max_size=8))
def test_kernels_array_equals_scalar(points):
    r = 10.0 ** np.array([p[0] for p in points])
    f0 = 10.0 ** np.array([p[1] for p in points])
    theta = np.array([p[2] for p in points])
    arrays = [screening_fraction(r), radial_profile(r), p_point(r, theta, f0),
              p_avg(r, f0), quadrupolar_radius(f0), half_polarization_radius(theta, f0)]
    for i in range(r.size):
        ri, fi, ti = float(r[i]), float(f0[i]), float(theta[i])
        scalars = [screening_fraction(ri), radial_profile(ri), p_point(ri, ti, fi),
                   p_avg(ri, fi), quadrupolar_radius(fi), half_polarization_radius(ti, fi)]
        for array, scalar in zip(arrays, scalars):
            assert type(scalar) is float
            assert abs(array[i] - scalar) <= 1e-12 * abs(scalar)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_f0)
def test_quadrupolar_radius_matches_brute_force_bisection(exponent):
    f0 = 10.0 ** exponent
    oracle = quadrupolar_radius_bisection(f0)
    assert abs(quadrupolar_radius(f0) - oracle) <= 1e-9 * oracle


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(list_materials()),
       st.lists(st.floats(min_value=-3.0, max_value=30.0), min_size=1, max_size=12))
def test_invert_power_array_equals_scalar_loop(name, exponents):
    mat = get_material(name)
    powers = power_scale(mat) * 10.0 ** np.array(exponents)
    together = invert_power(powers, mat)
    alone = np.array([invert_power(float(p), mat) for p in powers])
    assert np.array_equal(together, alone)


@st.composite
def two_batches(draw, elements):
    """Two arrays of drawn rows, and a permutation of the first one's rows."""
    first = np.array(draw(st.lists(elements, min_size=1, max_size=10)))
    second = np.array(draw(st.lists(elements, min_size=1, max_size=10)))
    return first, second, np.array(draw(st.permutations(range(len(first)))))


def _assert_elementwise(func, batches):
    # the lockstep array paths must not couple elements: a permuted array
    # gives the permuted results, two concatenated arrays the concatenated
    # results, bit for bit
    first, second, order = batches
    assert np.array_equal(func(first[order]), func(first)[order])
    assert np.array_equal(func(np.concatenate((first, second))),
                          np.concatenate((func(first), func(second))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(two_batches(log_f0))
def test_quadrupolar_radius_is_elementwise(batches):
    _assert_elementwise(lambda x: quadrupolar_radius(10.0 ** x), batches)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(two_batches(st.tuples(st.floats(0.0, math.pi), log_f0)))
def test_half_polarization_radius_is_elementwise(batches):
    _assert_elementwise(lambda x: half_polarization_radius(x[:, 0], 10.0 ** x[:, 1]), batches)


#: powers as multiples of the one at the bisection's floor, occupancy 1e-16,
#: up past the plateau (about 1e40 to 1e43 times it on the shipped records)
power_over_floor = st.one_of(st.floats(0.0, 50.0).map(lambda x: 10.0 ** x), st.just(math.inf))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(list_materials()), two_batches(power_over_floor))
@example("GaAs:As75", (np.array([1e45, math.inf]), np.array([1e50]), np.array([1, 0])))
def test_invert_power_is_elementwise(name, batches):
    mat = get_material(name)
    floor = power_map(1e-16, mat).power
    _assert_elementwise(lambda x: invert_power(floor * x, mat), batches)
