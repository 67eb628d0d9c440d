"""Float-or-array inputs for the kernels, the package's lockstep bisection,
and its one quadrature rule.

The scalar kernels (``screening_fraction``, ``radial_profile``, ``p_point``,
``p_avg``, ``power_map``) take either a float or an array.  A float runs
through :mod:`math` at scalar speed and returns a float; an array runs
through numpy elementwise.  :func:`as_operand` makes that split once per
call.

Every root the package solves for is the crossing of a monotone function.
:func:`solve` bisects an array of brackets in lockstep, for the power map
(the occupancy) and the rate and diffusion balance (the diffusion
radius).  The radii invert ``log phi`` by their own safeguarded Newton
iteration (``relaxation.radial_profile_inverse``), which needs no
starting bracket.

Every integral the package evaluates (the nuclear field, and the
quadrature oracles) has a smooth integrand on a finite interval.
:func:`gauss_legendre` integrates it with a fixed composite rule whose
panels the caller lays out where the integrand changes scale.  The
rule's 24 nodes and weights are constants of this module: no run
imports NumPy's Legendre module to compute them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError

#: steps of solve, of phi^-1 and of the scalar power bisection before they give up
MAX_STEPS = 200


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


def solve(func: Callable[[np.ndarray], np.ndarray], lo, hi, *, what: str,
          done: "Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None" = None
          ) -> np.ndarray:
    """Lockstep bisection for an increasing func over arrays of brackets.

    Each bracket [lo, hi] must hold its root.  Every step evaluates func
    at the midpoints x and keeps the part of each bracket that holds the
    root: [lo, x] where func(x) >= 0, [x, hi] where func(x) < 0.  An
    element stops where func(x) == 0 or done(x, func(x), lo, hi) holds
    (lo, hi before the step); its result is x.  Raises NumericalError
    when an element has not stopped after MAX_STEPS steps.
    """
    lo, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi))
    x = 0.5 * (lo + hi)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(MAX_STEPS):
        # stopped elements keep their result in x; evaluating them again
        # is cheaper than gathering the active ones
        f_x = func(x)
        stop = f_x == 0.0
        if done is not None:
            stop |= done(x, f_x, lo, hi)
        active &= ~stop
        if not active.any():
            return x
        below = f_x < 0.0
        np.copyto(lo, x, where=active & below)
        np.copyto(hi, x, where=active & ~below)
        np.copyto(x, 0.5 * (lo + hi), where=active)
    bad = int(np.flatnonzero(active)[0])
    raise NumericalError(
        f"{what} did not converge in {MAX_STEPS} steps on [{lo.flat[bad]}, {hi.flat[bad]}]")


#: the positive half of the 24-point Gauss-Legendre rule on [-1, 1], nodes
#: and weights as NumPy's ``leggauss(24)`` gives them, bit for bit
#: (``repr`` round-trips a float); the rule is symmetric
_HALF_NODES = np.array([
    0.06405689286260563,
    0.1911188674736163,
    0.3150426796961634,
    0.4337935076260451,
    0.5454214713888396,
    0.6480936519369755,
    0.7401241915785544,
    0.820001985973903,
    0.8864155270044011,
    0.9382745520027328,
    0.9747285559713095,
    0.9951872199970213,
])
_HALF_WEIGHTS = np.array([
    0.12793819534675202,
    0.12583745634682825,
    0.1216704729278033,
    0.11550566805372552,
    0.10744427011596556,
    0.09761865210411393,
    0.0861901615319532,
    0.07334648141108016,
    0.05929858491543636,
    0.04427743881741941,
    0.02853138862893356,
    0.01234122979998869,
])
_NODES = np.concatenate((-_HALF_NODES[::-1], _HALF_NODES))
_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))


def gauss_legendre(func: Callable[[np.ndarray], np.ndarray], breakpoints) -> float:
    """Integral of func from breakpoints[0] to breakpoints[-1], composite rule.

    Each panel between consecutive (increasing) breakpoints gets its own
    24-point Gauss-Legendre rule, exact for polynomials of degree 47.
    func is called once, with the abscissae of all panels as an array of
    shape (panels, 24), and returns the integrand there.  Where the
    integrand is analytic in an ellipse around a panel the error falls
    geometrically with the node count, so breakpoints go where it turns
    sharply or changes scale.
    """
    edges = np.asarray(breakpoints, dtype=float)
    half = 0.5 * np.diff(edges)
    centre = 0.5 * (edges[1:] + edges[:-1])
    return float(half @ (func(centre[:, None] + half[:, None] * _NODES) @ _WEIGHTS))
