"""Float-or-array inputs for the kernels, the package's one root finder, and
its one quadrature rule.

The scalar kernels (``screening_fraction``, ``radial_profile``, ``p_point``,
``p_avg``, ``power_map``) take either a float or an array.  A float runs
through :mod:`math` at scalar speed and returns a float; an array runs
through numpy elementwise.  :func:`as_operand` makes that split once per
call.

Every root the package solves for is the crossing of a monotone function:
``log phi`` for the radii, the power map for the occupancy, the rate and
diffusion balance for the diffusion radius.  :func:`solve` finds all the
roots of an array of brackets in lockstep, and :func:`expand_bracket`
widens brackets that do not yet hold their root.

Every integral the package evaluates (the nuclear field, and the
quadrature oracles) has a smooth integrand on a finite interval.
:func:`gauss_legendre` integrates it with a fixed composite rule whose
panels the caller lays out where the integrand changes scale.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import BracketError, NumericalError

#: relative size (of x, or of 1 near 0) below which a Newton step or a
#: bracket ends a Newton iteration: a few ulps
NEWTON_RESOLUTION = 8.0 * np.finfo(float).eps
#: doublings of a bracket before expand_bracket gives up: 2^60 widths
_MAX_EXPANSIONS = 60
#: Gauss-Legendre nodes per panel: exact for polynomials of degree 47
GAUSS_NODES = 24


def as_operand(x) -> float | np.ndarray:
    """A scalar as a float, anything else as a float ndarray."""
    if isinstance(x, (float, int)):
        return float(x)
    arr = np.asarray(x, dtype=float)
    return arr if arr.ndim else float(arr)


def any_true(mask) -> bool:
    """Whether a comparison of floats or arrays holds anywhere."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def all_true(mask) -> bool:
    """Whether a comparison of floats or arrays holds everywhere."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def expand_bracket(func: Callable[[np.ndarray], np.ndarray], lo, hi, *,
                   what: str) -> tuple[np.ndarray, np.ndarray]:
    """Widen each bracket until func(lo) <= 0 <= func(hi), func increasing.

    An end on the wrong side of its root moves outward by the current
    width of its bracket, so the width doubles each step.  Raises
    BracketError where func is NaN at an end, or when _MAX_EXPANSIONS
    steps do not suffice.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    lo, hi = lo.copy(), hi.copy()
    for _ in range(_MAX_EXPANSIONS):
        f_lo, f_hi = func(lo), func(hi)
        undefined = np.isnan(f_lo) | np.isnan(f_hi)
        if undefined.any():
            bad = int(np.flatnonzero(undefined)[0])
            raise BracketError(
                f"{what} undefined at the bracket [{lo.flat[bad]}, {hi.flat[bad]}]: "
                f"f(lo)={f_lo.flat[bad]:.3e}, f(hi)={f_hi.flat[bad]:.3e}")
        low, high = f_lo > 0.0, f_hi < 0.0
        if not (low.any() or high.any()):
            return lo, hi
        width = hi - lo
        lo = np.where(low, lo - width, lo)
        hi = np.where(high, hi + width, hi)
    raise BracketError(f"no sign change for {what} after {_MAX_EXPANSIONS} bracket expansions")


def solve(func: Callable[[np.ndarray], "np.ndarray | tuple[np.ndarray, np.ndarray]"],
          lo, hi, *, what: str,
          done: "Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None" = None,
          newton: bool = False, max_iter: int = 200) -> np.ndarray:
    """Lockstep root finder for an increasing func over arrays of brackets.

    Each bracket [lo, hi] must hold its root.  Every step evaluates func
    at the current points x, starting from the midpoints, and keeps the
    part of each bracket that holds the root: [lo, x] where func(x) >= 0,
    [x, hi] where func(x) < 0.  The next point is the midpoint of the kept
    bracket (bisection).  With newton=True, func returns (value, slope)
    and the next point is the Newton step x - value/slope wherever that
    stays inside the kept bracket.

    An element stops where done(x, func(x), lo, hi) holds (lo, hi before
    the step) and, with bisection, where func(x) == 0; its result is x.
    With newton=True it stops where the Newton step or the bracket is
    below a few ulps of x (f == 0 gives a zero step), and its result is x
    minus that last step.  Raises NumericalError when an element has not
    stopped after max_iter steps.
    """
    lo, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi))
    x = 0.5 * (lo + hi)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(max_iter):
        # stopped elements keep their result in x; evaluating them again
        # is cheaper than gathering the active ones
        if newton:
            f_x, slope = func(x)
            step = f_x / slope
            # the step is lost in rounding, or the bracket cannot shrink
            resolution = NEWTON_RESOLUTION * np.maximum(1.0, np.abs(x))
            stop = (np.abs(step) <= resolution) | (hi - lo <= resolution)
        else:
            f_x = func(x)
            stop = f_x == 0.0
        if done is not None:
            stop |= done(x, f_x, lo, hi)
        stop &= active
        if newton:
            np.subtract(x, step, out=x, where=stop)
        active &= ~stop
        if not active.any():
            return x
        below = f_x < 0.0
        np.copyto(lo, x, where=active & below)
        np.copyto(hi, x, where=active & ~below)
        x_next = 0.5 * (lo + hi)
        if newton:
            guess = x - step
            np.copyto(x_next, guess, where=(lo < guess) & (guess < hi))
        np.copyto(x, x_next, where=active)
    bad = int(np.flatnonzero(active)[0])
    raise NumericalError(
        f"{what} did not converge in {max_iter} steps on [{lo.flat[bad]}, {hi.flat[bad]}]")


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    # numpy.polynomial is not loaded by `import numpy`; only callers pay for it
    from numpy.polynomial.legendre import leggauss
    return leggauss(GAUSS_NODES)


def gauss_legendre(func: Callable[[np.ndarray], np.ndarray], breakpoints) -> float:
    """Integral of func from breakpoints[0] to breakpoints[-1], composite rule.

    Each panel between consecutive (increasing) breakpoints gets its own
    GAUSS_NODES-point Gauss-Legendre rule.  func is called once, with the
    abscissae of all panels as an array of shape (panels, GAUSS_NODES),
    and returns the integrand there.  Where the integrand is analytic in
    an ellipse around a panel the error falls geometrically with the node
    count, so breakpoints go where it turns sharply or changes scale.
    """
    edges = np.asarray(breakpoints, dtype=float)
    x, w = _legendre_rule()
    half = 0.5 * np.diff(edges)
    centre = 0.5 * (edges[1:] + edges[:-1])
    return float(half @ (func(centre[:, None] + half[:, None] * x) @ w))
