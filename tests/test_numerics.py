import math

import numpy as np
import pytest

from donor_halo import BracketError, NumericalError
from donor_halo.numerics import as_operand, expand_bracket, solve


def _width_below(tol):
    return lambda x, f, lo, hi: hi - lo <= tol


def test_expand_bracket_rejects_nan_at_bracket():
    with pytest.raises(BracketError, match="undefined at the bracket"):
        expand_bracket(lambda x: np.full_like(x, math.nan), [0.0], [1.0], what="test root")
    with pytest.raises(BracketError, match="undefined at the bracket"):
        expand_bracket(lambda x: np.where(x < 0.5, -1.0, math.nan), [0.0], [1.0],
                       what="test root")


def test_expand_bracket_widens_either_end():
    lo, hi = expand_bracket(lambda x: x - np.array([-5.0, 0.5, 30.0]),
                            np.zeros(3), np.ones(3), what="test root")
    assert np.all(lo <= [-5.0, 0.5, 30.0]) and np.all(hi >= [-5.0, 0.5, 30.0])
    assert list(lo[1:]) == [0.0, 0.0] and list(hi[:2]) == [1.0, 1.0]
    with pytest.raises(BracketError, match="no sign change"):
        expand_bracket(lambda x: np.ones_like(x), [0.0], [1.0], what="test root")


def test_solve_raises_when_out_of_iterations():
    with pytest.raises(NumericalError, match="did not converge") as err:
        solve(lambda x: x - 0.3, [0.0], [1.0], what="test root",
              done=_width_below(1e-12), max_iter=5)
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


def test_solve_newton_converges_to_the_last_ulps():
    targets = np.array([0.1, 2.0, 7.5, 9.99])
    root = solve(lambda x: (x ** 3 - targets, 3.0 * x ** 2), np.zeros(4),
                 np.full(4, 10.0), what="cube root", newton=True)
    assert root == pytest.approx(np.cbrt(targets), rel=4e-16)


def test_as_operand():
    assert type(as_operand(2)) is float and type(as_operand(np.float64(2.5))) is float
    assert type(as_operand(np.array(3.0))) is float
    assert isinstance(as_operand([1.0, 2.0]), np.ndarray)
