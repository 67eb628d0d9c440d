"""Brute-force oracles backed by scipy.

Each function here recomputes a closed form of the package by an
independent numerical route (adaptive quadrature, matrix exponential,
bisection),
for the verification suites and the tests.  This is the only module that
imports scipy at top level, so production imports (``donor_halo``, the
CLI commands other than ``verify``) never load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from .errors import MaterialError, NumericalError
from .fields import screening_density
from .materials import HBAR, MaterialRecord
from .polarization import p_avg
from .relaxation import radial_profile
from .validity import _worst_case_shift


def screening_cdf_quadrature(r: float, tol: float = 1e-13) -> float:
    """Quadrature oracle for ``fields.screening_fraction``: int_0^r s'(u) du."""
    value, _ = quad(screening_density, 0.0, r, epsabs=tol, epsrel=tol)
    return value


# --- kinetics ----------------------------------------------------------------

def telegraph_p_matrix_expm(tau: float, tau_occupied: float, tau_empty: float) -> np.ndarray:
    """Matrix-exponential oracle for ``kinetics.telegraph_p_matrix``."""
    generator = np.array([
        [-1.0 / tau_empty, 1.0 / tau_empty],
        [1.0 / tau_occupied, -1.0 / tau_occupied],
    ])
    return expm(generator * abs(tau))


def spectral_density_quadrature(omega: float, amplitude: float, tau_c: float) -> float:
    """Fourier-integral oracle: 2 int_0^inf cos(omega t) amplitude e^(-t/tau) dt.

    Integrated in units of the correlation time so the adaptive rule sees
    a unit decay scale; truncated where the envelope is ~1e-26.
    """
    if tau_c <= 0.0:
        raise MaterialError("correlation time must be positive")
    w = omega * tau_c

    def integrand(u: float) -> float:
        return math.cos(w * u) * math.exp(-u)

    value, _ = quad(integrand, 0.0, 60.0, epsabs=1e-12, epsrel=1e-12, limit=800)
    return 2.0 * amplitude * tau_c * value


# --- polarization ------------------------------------------------------------

class AngularAverage(NamedTuple):
    closed_form: float
    quadrature: float


def p_avg_quadrature(r: float, f0: float) -> float:
    """Adaptive-quadrature oracle for ``polarization.p_avg`` (independent of it)."""
    a = f0 * radial_profile(r)

    def integrand(u: float) -> float:
        f = a / (1.0 + 3.0 * u * u)
        return f / (1.0 + f)

    value, _ = quad(integrand, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 0.5 * value


def quadrupolar_radius_bisection(f0: float) -> float:
    """Brute-force oracle for ``polarization.quadrupolar_radius``.

    Bisects p_avg(r, f0) - 1/2 itself, on a bracket that starts at
    [1e-3, 8] and doubles outward, until the bracket no longer shrinks;
    it never uses A_STAR or log phi.
    """
    lo, hi = 1e-3, 8.0
    while p_avg(lo, f0) < 0.5:
        lo /= 2.0
    while p_avg(hi, f0) > 0.5:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if p_avg(mid, f0) > 0.5:
            lo = mid
        else:
            hi = mid


def angular_average(r: float, f0: float) -> AngularAverage:
    """Closed form plus quadrature oracle, for verification surfaces."""
    return AngularAverage(closed_form=p_avg(r, f0),
                          quadrature=p_avg_quadrature(r, f0))


# --- validity ----------------------------------------------------------------

def spin_temperature_eta_bisection(mat: MaterialRecord,
                                   reference_field: float = 1.0) -> float:
    """Oracle for ``validity.spin_temperature_eta``: solve, do not invert.

    Bisects |d(shift)/dr| * d = hbar gamma I B_L in log r at the reference
    field, with the derivative of the worst-case shift taken by central
    differences, then factors out the field dependence r = eta B^(-1/5).
    """
    target = HBAR * mat.gamma * mat.spin * mat.local_field
    d = mat.neighbor_spacing

    def excess(r_m: float) -> float:
        step = 1e-5 * r_m
        left = _worst_case_shift(r_m - step, reference_field, mat)
        right = _worst_case_shift(r_m + step, reference_field, mat)
        return abs(right - left) / (2.0 * step) * d - target

    lo, hi = 1e-11, 1e-6
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise NumericalError("spin-temperature bracket failed; check record fields")
    for _ in range(200):
        mid = math.sqrt(lo * hi)       # bisect in log r; the curve is a power law
        f_mid = excess(mid)
        if abs(f_mid) <= 1e-12 * target or hi / lo < 1.0 + 1e-14:
            return mid * reference_field ** 0.2
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi) * reference_field ** 0.2
