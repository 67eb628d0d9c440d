import math

import numpy as np
import pytest

from donor_halo import MaterialError, NumericalError, numerics
from donor_halo.numerics import as_operand, ensure, gauss_legendre, require

#: every interval constant of the module, by name
INTERVALS = {name: value for name, value in vars(numerics).items()
             if name.isupper() and isinstance(value, tuple) and len(value) == 3}

#: the two guards and what each raises: an input is a usage error (exit 2),
#: a result a numerical failure (exit 3)
GUARDS = [(require, MaterialError), (ensure, NumericalError)]


def test_as_operand():
    assert type(as_operand(2)) is float and type(as_operand(np.float64(2.5))) is float
    assert type(as_operand(np.array(3.0))) is float
    assert isinstance(as_operand([1.0, 2.0]), np.ndarray)


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    # the only place numpy.polynomial is loaded: the table in numerics
    # must be the rule it was copied from, not merely close to it
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(24)
    assert np.array_equal(numerics._NODES, nodes)
    assert np.array_equal(numerics._WEIGHTS, weights)


def test_gauss_legendre_table_is_symmetric():
    assert np.array_equal(numerics._NODES, -numerics._NODES[::-1])
    assert np.array_equal(numerics._WEIGHTS, numerics._WEIGHTS[::-1])
    assert np.all(np.diff(numerics._NODES) > 0.0)
    assert np.all(numerics._WEIGHTS > 0.0)


@pytest.mark.parametrize("breakpoints", [(-1.0, 1.0), (-1.0, -0.7, -0.05, 0.2, 0.9, 1.0)])
def test_gauss_legendre_integrates_polynomials_to_degree_47(breakpoints):
    # 24 nodes per panel are exact up to degree 47; what is left is rounding
    for k in range(48):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert gauss_legendre(lambda x: x ** k, breakpoints) == pytest.approx(exact, abs=3e-15), k


def test_the_interval_constants_are_found():
    assert {"POSITIVE", "NON_NEGATIVE_FINITE", "FINITE", "UNIT_OPEN", "AZIMUTH"} <= INTERVALS.keys()


@pytest.mark.parametrize("guard, error", GUARDS, ids=["require", "ensure"])
@pytest.mark.parametrize("name", sorted(INTERVALS))
def test_nan_lies_outside_every_interval(guard, error, name):
    words = INTERVALS[name][2]
    for value in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(error) as err:
            guard(value, "x", INTERVALS[name])
        assert type(err.value) is error and str(err.value) == f"x must be {words}, got nan"


#: (value, interval, what both guards return, or the end of their refusal):
#: an int is compared exactly, and past the float range it is the infinity
#: of its sign or shown to 6 digits; an array shows its first value outside;
#: both bounds are closed
GUARD_CASES = [
    (0.25, numerics.UNIT, 0.25, None),
    (3, numerics.POSITIVE_FINITE, 3.0, None),
    (10**400, numerics.POSITIVE, math.inf, None),
    (10**400, numerics.POSITIVE_FINITE, None, "positive and finite, got 1.00000e+400"),
    ([0.0, 1.0], numerics.UNIT, [0.0, 1.0], None),
    (np.array([1.0, -2.0, math.nan, -3.0]), numerics.NON_NEGATIVE, None,
     "non-negative, got -2.0"),
    (5e-324, numerics.UNIT_OPEN, 5e-324, None),
    (1.0, numerics.UNIT_OPEN, None, "in (0, 1), got 1.0"),
]


@pytest.mark.parametrize("guard, error", GUARDS, ids=["require", "ensure"])
@pytest.mark.parametrize("value, interval, result, refusal", GUARD_CASES)
def test_guard_cases(guard, error, value, interval, result, refusal):
    if refusal is not None:
        with pytest.raises(error) as err:
            guard(value, "x", interval)
        assert type(err.value) is error and str(err.value) == f"x must be {refusal}"
    elif isinstance(result, list):
        returned = guard(value, "x", interval)
        assert isinstance(returned, np.ndarray) and returned.tolist() == result
    else:
        returned = guard(value, "x", interval)
        assert type(returned) is float and returned == result
