"""Dense spin-operator algebra and the closed forms it underlies.

Everything here works on exact (2I+1)-dimensional complex matrices;
with I <= 9/2 the largest matrix is 10x10, so dense algebra is both
simplest and fastest.  The module provides

* the ladder/projection operators for arbitrary half-integer spin,
* the two field-coupled quadrupole operators and the angle-dependent
  transition-strength factors they generate,
* the general quadrupolar Hamiltonian for arbitrary electric and
  magnetic field orientations,
* the closed-form local field, level shift and relaxation rate, whose
  matrix oracles live in :mod:`donor_halo.oracles`.

All functions are pure and all returned arrays are marked read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MaterialError, NonPerturbativeRegimeError
from .fields import Geometry, coulomb_field, donor_field, efg_transform, screening_fraction
from .materials import E_CHARGE, HBAR, MaterialRecord, _require_half_integer
from .numerics import FINITE, NON_NEGATIVE_FINITE, POSITIVE_FINITE, UNIT, ensure, require


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def spin_multiplicity(spin: float) -> int:
    _require_half_integer(spin)
    return int(round(2.0 * spin)) + 1


@dataclass(frozen=True)
class SpinMatrices:
    """Iz, I+, I- and the identity for one spin, basis ordered m = I..-I."""

    spin: float
    dim: int
    iz: np.ndarray
    iplus: np.ndarray
    iminus: np.ndarray
    identity: np.ndarray

    @property
    def m_values(self) -> np.ndarray:
        return np.diag(self.iz).real


@functools.lru_cache(maxsize=16)
def build_spin_operators(spin: float) -> SpinMatrices:
    """Exact angular-momentum matrices for a half-integer spin.

    Built once per spin (for the last 16 spins asked for) and shared
    between callers, which is safe because the matrices are read-only.
    A spin whose matrices numpy cannot allocate raises MaterialError.
    """
    dim = spin_multiplicity(spin)
    try:
        m = spin - np.arange(dim)
        iz = np.diag(m).astype(complex)
        iplus = np.zeros((dim, dim), dtype=complex)
    except (ValueError, MemoryError):   # numpy's refusals of a size
        raise MaterialError(f"spin {spin:g} needs {dim:.6g}-dimensional matrices, more than "
                            "can be allocated") from None
    # <m+1| I+ |m> = sqrt(I(I+1) - m(m+1)); rows are ordered by descending m
    for col in range(1, dim):
        mm = m[col]
        iplus[col - 1, col] = math.sqrt(spin * (spin + 1.0) - mm * (mm + 1.0))
    iminus = iplus.conj().T.copy()
    return SpinMatrices(
        spin=spin, dim=dim,
        iz=_freeze(iz), iplus=_freeze(iplus), iminus=_freeze(iminus),
        identity=_freeze(np.eye(dim, dtype=complex)),
    )


def build_quadrupole_operators(theta: float, phi: float,
                               spin: float) -> tuple[np.ndarray, np.ndarray]:
    """Field-coupled spin operators (a1, a2) for one electric-field orientation.

    a1 drives single-quantum transitions, a2 double-quantum ones; their
    adjoints are the Hermitian conjugates ``a.conj().T``.
    """
    ops = build_spin_operators(spin)
    phase = np.exp(1j * (phi - math.pi / 2.0))
    a1 = math.sin(theta) * phase * (ops.iz @ ops.iplus + ops.iplus @ ops.iz)
    a2 = -1j * math.cos(theta) * (ops.iplus @ ops.iplus)
    return _freeze(a1), _freeze(a2)


def transition_moment(spin: float) -> float:
    """Spin factor 4 I (I+1) - 3 common to both quadrupolar channels."""
    return 4.0 * spin * (spin + 1.0) - 3.0


def angular_factor(k: int, theta: float, spin: float) -> float:
    """Angle-dependent transition-strength factor for channel k in {1, 2}.

    The closed form of Tr{Iz [A_k, [A_k+, Iz]]} / Tr(Iz^2):
    (2/5) [4I(I+1) - 3] sin^2(theta) for k = 1 and
    (8/5) [4I(I+1) - 3] cos^2(theta) for k = 2, zero for spin 1/2.
    ``oracles.angular_factor_trace`` evaluates the trace by matrix algebra.
    """
    if k not in (1, 2):
        raise MaterialError(f"channel k must be 1 or 2, got {k}")
    _require_half_integer(spin)
    require(theta, "theta", FINITE)
    moment = transition_moment(spin)
    if k == 1:
        factor = 0.4 * moment * math.sin(theta) ** 2
    else:
        factor = 1.6 * moment * math.cos(theta) ** 2
    return ensure(factor, "angular factor (check spin)", NON_NEGATIVE_FINITE)


def trace_iz2(spin: float) -> float:
    """Closed form I(I+1)(2I+1)/3 for the Iz^2 trace."""
    return spin * (spin + 1.0) * (2.0 * spin + 1.0) / 3.0


def trace_iz4(spin: float) -> float:
    """Closed form (1/5) I(I+1)(2I+1) [I(I+1) - 1/3] for the Iz^4 trace."""
    x = spin * (spin + 1.0)
    return 0.2 * x * (2.0 * spin + 1.0) * (x - 1.0 / 3.0)


# --- Hamiltonians ---------------------------------------------------------

def build_hq_axial(f0q: float, theta: float, phi: float, spin: float) -> np.ndarray:
    """Quadrupolar Hamiltonian (J) for a magnetic field along the surface normal.

    f0q is the static quadrupolar energy scale at the nucleus; theta and
    phi orient the electric field relative to the normal.
    """
    a1, a2 = build_quadrupole_operators(theta, phi, spin)
    h = f0q * (a1 + a1.conj().T + a2 + a2.conj().T)
    return _freeze(h)


def build_hq_general(e_field: np.ndarray, geometry: Geometry, mat: MaterialRecord) -> np.ndarray:
    """Quadrupolar Hamiltonian (J) for arbitrary field orientations.

    e_field is the electric field vector in crystal coordinates (V/m).
    The matrix is expressed in the magnetic-field frame, whose axis is
    set by (geometry.theta_b, geometry.phi_b).  Hermitian and traceless
    by construction.
    """
    spin = mat.spin
    ops = build_spin_operators(spin)
    v = efg_transform(e_field, geometry, mat.r14)
    x = spin * (spin + 1.0)
    iz, ip, im = ops.iz, ops.iplus, ops.iminus
    sum_pm = ip + im
    diff_pm = ip - im
    ip2, im2 = ip @ ip, im @ im
    pref = E_CHARGE * mat.quadrupole_moment / (4.0 * spin * (2.0 * spin - 1.0)) \
        if spin >= 1.0 else 0.0
    h = pref * (
        v.zz * (3.0 * (iz @ iz) - x * ops.identity)
        + v.xz * (iz @ sum_pm + sum_pm @ iz)
        - 1j * v.yz * (iz @ diff_pm + diff_pm @ iz)
        + 0.5 * (v.xx - v.yy) * (ip2 + im2)
        - 1j * v.xy * (ip2 - im2)
    )
    return _freeze(np.asarray(h, dtype=complex))


def bq_local_field(r: float, occupancy: float, geometry: Geometry,
                   mat: MaterialRecord) -> float:
    """Quadrupolar local field (T) at reduced distance r from the donor.

    sqrt{(4/5) (b_q E_off)^2 (1 - s*occupancy)^2 [4I(I+1) - 3]}: zero for
    spin 1/2 and independent of the field direction.  This is the closed
    form of sqrt{3 Tr(H_Q^2) / [I(I+1)(2I+1) (gamma hbar)^2]}, which
    ``oracles.bq_local_field_trace`` evaluates on the Hamiltonian.
    """
    require(occupancy, "occupancy", UNIT)
    moment = transition_moment(mat.spin)
    amplitude = mat.b_q * coulomb_field(r, mat) * (1.0 - screening_fraction(r) * occupancy)
    return ensure(math.sqrt(0.8 * moment) * abs(amplitude),
                  "quadrupolar local field in T (check r, spin and b_q)", NON_NEGATIVE_FINITE)


_PERTURBATIVE_MARGIN = 10.0     # gamma hbar B must exceed this times ||H_Q||_2


def _perturbative_terms(m: float, b_field: float, r: float, geometry: Geometry,
                        occupancy: float, mat: MaterialRecord) -> tuple[float, float, np.ndarray]:
    """(f0q, gamma hbar B, H_Q) for a level shift; raises outside the perturbative regime."""
    spin = mat.spin
    require(b_field, "b_field", POSITIVE_FINITE)
    require(m, "m", FINITE)
    if abs(m) > spin + 1e-12 or abs(2.0 * m - round(2.0 * m)) > 1e-12:
        raise MaterialError(f"m = {m} is not a level of spin {spin}")
    f0q = donor_field(r, occupancy, mat).f0q
    zeeman_quantum = mat.gamma * HBAR * b_field
    h_q = build_hq_axial(f0q, geometry.theta, geometry.phi, spin)
    h_norm = float(np.linalg.norm(h_q, 2))
    if zeeman_quantum < _PERTURBATIVE_MARGIN * h_norm or zeeman_quantum == 0.0:
        raise NonPerturbativeRegimeError(
            f"non-perturbative regime: gamma*hbar*B = {zeeman_quantum:.3e} J is not "
            f"large against the quadrupolar scale {h_norm:.3e} J"
        )
    return f0q, zeeman_quantum, h_q


def second_order_shift(m: float, spin: float, theta: float, f0q: float,
                       zeeman_quantum: float) -> float:
    """Second-order quadrupolar shift (J) of Zeeman level m, with no guards.

    (2 m f0q^2 / gamma hbar B) [sin^2 theta (4 I(I+1) - 8 m^2 - 1)
    - cos^2 theta (2 I(I+1) - 2 m^2 - 1)], for the static quadrupolar
    scale f0q and the Zeeman quantum gamma hbar B, both in J.
    """
    x = spin * (spin + 1.0)
    st2 = math.sin(theta) ** 2
    ct2 = math.cos(theta) ** 2
    return (2.0 * m * f0q ** 2 / zeeman_quantum) * (
        st2 * (4.0 * x - 8.0 * m * m - 1.0) - ct2 * (2.0 * x - 2.0 * m * m - 1.0)
    )


def level_shift(m: float, b_field: float, r: float, geometry: Geometry,
                occupancy: float, mat: MaterialRecord) -> float:
    """Second-order quadrupolar shift (J) of Zeeman level m at field b_field.

    :func:`second_order_shift` at the donor's f0q, behind the guards of
    perturbation theory.  The Zeeman term is -gamma hbar B Iz (positive
    gamma means level m = I lies lowest), which fixes the sign of the
    shifts.  ``oracles.level_shift_diagonalization`` diagonalizes the
    full Zeeman + quadrupolar matrix instead.

    Raises NonPerturbativeRegimeError when b_field is too small for
    perturbation theory to hold.
    """
    f0q, zeeman_quantum, _ = _perturbative_terms(m, b_field, r, geometry, occupancy, mat)
    return second_order_shift(m, mat.spin, geometry.theta, f0q, zeeman_quantum)


def redfield_rate_analytic(spin: float, theta: float, j1: float, j2: float) -> float:
    """Decay rate k1 J1 + k2 J2; the closed form of ``oracles.redfield_rate_superoperator``."""
    return ensure(angular_factor(1, theta, spin) * require(j1, "j1", NON_NEGATIVE_FINITE)
                  + angular_factor(2, theta, spin) * require(j2, "j2", NON_NEGATIVE_FINITE),
                  "Redfield rate (check j1 and j2)", NON_NEGATIVE_FINITE)
