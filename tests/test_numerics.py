import numpy as np
import pytest

from donor_halo import numerics
from donor_halo.numerics import as_operand, gauss_legendre


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
