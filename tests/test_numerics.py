import numpy as np
import pytest

from donor_halo import BracketError, NumericalError
from donor_halo.numerics import as_operand, solve


def _width_below(tol):
    return lambda x, f, lo, hi: hi - lo <= tol


def test_solve_raises_when_out_of_iterations():
    # a step function is never 0, so only the step limit stops the search
    with pytest.raises(NumericalError, match="did not converge in 200 steps") as err:
        solve(lambda x: np.where(x < 0.3, -1.0, 1.0), [0.0], [1.0], what="test root")
    assert not isinstance(err.value, BracketError)
    root = solve(lambda x: x - 0.3, [0.0], [1.0], what="test root",
                 done=_width_below(1e-12))
    assert root[0] == pytest.approx(0.3, abs=1e-12)


def test_solve_takes_the_bisection_midpoints():
    # an exactly representable root is hit on the midpoint sequence
    root = solve(lambda x: x - 0.375, [0.0], [1.0], what="test root",
                 done=_width_below(0.0))
    assert root[0] == 0.375


def test_solve_lockstep_matches_one_at_a_time():
    targets = np.array([0.1, 2.0, 7.5, 9.99])
    together = solve(lambda x: x ** 3 - targets, np.zeros(4), np.full(4, 10.0),
                     what="cube root", done=_width_below(1e-13))
    for t, got in zip(targets, together):
        alone = solve(lambda x: x ** 3 - t, [0.0], [10.0], what="cube root",
                      done=_width_below(1e-13))
        assert got == alone[0]
        assert got == pytest.approx(t ** (1 / 3), abs=1e-12)


def test_as_operand():
    assert type(as_operand(2)) is float and type(as_operand(np.float64(2.5))) is float
    assert type(as_operand(np.array(3.0))) is float
    assert isinstance(as_operand([1.0, 2.0]), np.ndarray)
