"""Verification suites: exact oracles, Monte Carlo, reference numbers, properties.

Four independent batteries guard the package:

* ``exact-oracles``   -- every closed form against its brute-force
  counterpart (matrix traces, tensor rotations, quadratures, matrix
  exponentials, balance residuals) at tolerances 1e-8 .. 1e-10.
* ``telegraph-mc``    -- the stochastic telegraph simulator against the
  exact correlation function.
* ``reference-numbers``   -- the GaAs reference values (radii, ratios,
  field scales) at their documented tolerance windows.
* ``properties``      -- monotonicity, positivity, normalization and
  power-law identities.

Each check is declared once: as a named function, or, for a reference
number that must lie in a window, as one ``_window`` entry.  All of a
check's work runs inside the runner, so a check that raises is a failed
check.  The command-line ``verify`` command prints one line per check and
fails the process when any check fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import fields, kinetics, oracles, polarization, relaxation, spin_algebra, validity
from .materials import compute_bq, get_material, load_registry


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str


Check = tuple[str, Callable[[], tuple[bool, str]]]


def _run(suite: str, checks: Iterable[Check]) -> list[CheckResult]:
    results = []
    for name, func in checks:
        try:
            ok, detail = func()
        except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(suite=suite, name=name, ok=ok, detail=detail))
    return results


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _worst(deviations: Iterable[float]) -> float:
    """The largest deviation, NaN if any is NaN, 0.0 for none.

    A NaN fails every ``worst <= tol`` test, where ``max`` would drop it.
    """
    return float(np.max(np.fromiter(deviations, dtype=float), initial=0.0))


# --------------------------------------------------------------------------
# exact oracles
# --------------------------------------------------------------------------

_SPINS = (0.5, 1.5, 2.5, 4.5)
#: enclosed-charge fraction at the Bohr radius, the telegraph checks' modulation depth
_SCREEN_BOHR = fields.screening_fraction(1.0)


def _check_k_factors() -> tuple[bool, str]:
    def deviation(k: int, theta: float, spin: float) -> float:
        trace = oracles.angular_factor_trace(k, theta, spin)
        closed = spin_algebra.angular_factor(k, theta, spin)
        # spin 1/2 has no quadrupole moment: both vanish
        return _worst((abs(trace), abs(closed))) if spin < 1.0 else _rel(trace, closed)

    worst = _worst(deviation(k, float(theta), spin) for spin in _SPINS
                   for theta in np.linspace(0.0, math.pi, 32) for k in (1, 2))
    return worst <= 1e-10, f"max deviation {worst:.2e} (tol 1e-10)"


def _check_iz_traces() -> tuple[bool, str]:
    def deviations(spin: float) -> tuple[float, float]:
        ops = spin_algebra.build_spin_operators(spin)
        iz2 = float(np.trace(ops.iz @ ops.iz).real)
        iz4 = float(np.trace(ops.iz @ ops.iz @ ops.iz @ ops.iz).real)
        return _rel(iz2, spin_algebra.trace_iz2(spin)), _rel(iz4, spin_algebra.trace_iz4(spin))

    worst = _worst(d for spin in _SPINS for d in deviations(spin))
    return worst <= 1e-12, f"max rel deviation {worst:.2e} (tol 1e-12)"


def _check_redfield() -> tuple[bool, str]:
    rng = np.random.default_rng(42)

    def deviation() -> float:
        spin = float(rng.choice([1.0, 1.5, 2.5, 4.5]))
        theta = float(rng.uniform(0.0, math.pi))
        j1, j2 = rng.uniform(0.1, 10.0, size=2) * 1e-9
        return _rel(oracles.redfield_rate_superoperator(spin, theta, j1, j2),
                    spin_algebra.redfield_rate_analytic(spin, theta, j1, j2))

    worst = _worst(deviation() for _ in range(24))
    half = oracles.redfield_rate_superoperator(0.5, 1.0, 1e-9, 1e-9)
    ok = worst <= 1e-8 and abs(half) < 1e-30
    return ok, f"max rel deviation {worst:.2e} (tol 1e-8), spin-1/2 rate {half:.1e}"


def _check_efg_rotation() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    r14 = 3.2e12

    def deviation() -> float:
        geo = fields.Geometry(theta=float(rng.uniform(0, math.pi)),
                              phi=float(rng.uniform(0, 2 * math.pi)),
                              theta_b=float(rng.uniform(0, math.pi)),
                              phi_b=float(rng.uniform(0, 2 * math.pi)))
        e_vec = rng.normal(size=3) * 1e6
        closed = fields.efg_transform(e_vec, geo, r14)
        oracle = oracles.efg_transform_rotation(e_vec, geo, r14)
        scale = max(_worst(abs(c) for c in closed), 1e-300)
        return _worst(abs(c - o) for c, o in zip(closed, oracle)) / scale

    worst = _worst(deviation() for _ in range(100))
    # surface-normal special case: only the three cross components survive
    theta, phi, e_mag = 0.77, 1.23, 2.5e6
    geo0 = fields.Geometry(theta=theta, phi=phi)
    v = fields.efg_transform(e_mag * fields.field_direction(theta, phi), geo0, r14)
    expect = (r14 * e_mag * math.cos(theta),
              r14 * e_mag * math.sin(theta) * math.cos(phi),
              r14 * e_mag * math.sin(theta) * math.sin(phi))
    special = _worst((_rel(v.xy, expect[0]), _rel(v.yz, expect[1]), _rel(v.xz, expect[2]),
                      abs(v.xx) / (r14 * e_mag), abs(v.yy) / (r14 * e_mag),
                      abs(v.zz) / (r14 * e_mag)))
    ok = worst <= 1e-10 and special <= 1e-12
    return ok, f"rotation max rel {worst:.2e} (tol 1e-10), axial case {special:.2e}"


def _check_sphere_average() -> tuple[bool, str]:
    worst = _worst(abs(polarization.p_avg(r, f0) - oracles.p_avg_quadrature(r, f0))
                   for r in (0.05, 0.1, 0.35, 0.5, 1.0, 2.0, 5.0)
                   for f0 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0))
    return worst <= 1e-9, f"max |closed - quadrature| {worst:.2e} (tol 1e-9)"


def _check_telegraph_conditionals() -> tuple[bool, str]:
    tau_occ = 1.3e-9

    def deviations(occ: float, tau: float) -> tuple[float, float]:
        tau_empty = tau_occ * (1.0 - occ) / occ
        closed = kinetics.telegraph_p_matrix(tau, tau_occ, tau_empty)
        oracle = oracles.telegraph_p_matrix_expm(tau, tau_occ, tau_empty)
        g = kinetics.telegraph_correlation(tau, _SCREEN_BOHR, tau_occ, tau_empty)
        recon = oracles.telegraph_correlation_conditionals(tau, _SCREEN_BOHR, tau_occ, tau_empty)
        # deviation measured against the zero-lag amplitude so deep in
        # the exponential tail rounding noise does not dominate
        return (float(np.abs(closed - oracle).max()),
                abs(g - recon) / kinetics.telegraph_amplitude(occ, _SCREEN_BOHR))

    # one _worst per column of the (P, correlation) deviation pairs
    worst_p, worst_g = map(_worst, zip(*(deviations(occ, tau) for occ in (0.2, 0.5, 0.8)
                                         for tau in (0.0, 0.3e-9, 1.1e-9, 5.0e-9))))
    ok = worst_p <= 1e-12 and worst_g <= 1e-12
    return ok, f"P vs expm {worst_p:.2e}, correlation reconstruction {worst_g:.2e} (tol 1e-12)"


def _check_screening_cdf() -> tuple[bool, str]:
    worst = _worst(abs(oracles.screening_cdf_quadrature(r) - fields.screening_fraction(r))
                   for r in (0.1, 0.25, 0.5, 1.0, 1.7, 3.0, 6.0))
    return worst <= 1e-10, f"max |CDF - closed| {worst:.2e} (tol 1e-10)"


def _check_power_balance() -> tuple[bool, str]:
    mat = get_material("GaAs:As75")

    def deviations(gamma_t: float) -> tuple[float, float]:
        res = oracles.power_map_residuals(gamma_t, mat)
        power = kinetics.power_map(gamma_t, mat).power
        return (_worst((res["trapping"], res["generation"])),
                abs(kinetics.invert_power(power, mat) - gamma_t))

    worst_res, worst_rt = map(_worst, zip(*map(deviations, (0.05, 0.2, 0.5, 0.8, 0.9))))
    ok = worst_res <= 1e-8 and worst_rt <= 1e-9
    return ok, f"balance residual {worst_res:.2e} (tol 1e-8), round trip {worst_rt:.2e} (tol 1e-9)"


def _check_spectral_density() -> tuple[bool, str]:
    rng = np.random.default_rng(3)

    def deviation() -> float:
        tau_c = float(rng.uniform(0.1, 10.0)) * 1e-9
        omega = float(rng.uniform(0.0, 5.0)) / tau_c
        return _rel(kinetics.spectral_density(omega, 1.7, tau_c),
                    oracles.spectral_density_quadrature(omega, 1.7, tau_c))

    worst = _worst(deviation() for _ in range(12))
    return worst <= 1e-8, f"max rel deviation {worst:.2e} (tol 1e-8)"


def _check_local_field_trace() -> tuple[bool, str]:
    mat = get_material("GaAs:As75")
    probes = [mat.with_overrides(spin=spin, b_q=compute_bq(
        mat.r14, mat.quadrupole_moment, spin, mat.gamma)) for spin in (1.0, 1.5, 2.5, 4.5)]
    geometries = [fields.Geometry(theta=theta, phi=0.9) for theta in (0.0, 0.4, 1.1, math.pi / 2)]
    worst = _worst(_rel(spin_algebra.bq_local_field(0.5, 0.3, geo, probe),
                        oracles.bq_local_field_trace(0.5, 0.3, geo, probe))
                   for probe in probes for geo in geometries)
    return worst <= 1e-10, f"max rel deviation {worst:.2e} (tol 1e-10)"


def _check_hamiltonian_forms() -> tuple[bool, str]:
    mat = get_material("GaAs:As75")
    rng = np.random.default_rng(11)
    point = fields.donor_field(0.7, 0.0, mat)
    f0q_exact = (spin_algebra.E_CHARGE * mat.r14 * mat.quadrupole_moment
                 / (4.0 * mat.spin * (2.0 * mat.spin - 1.0))) * point.e_off

    def deviations() -> tuple[float, float, float]:
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        geo = fields.Geometry(theta=theta, phi=phi,
                              theta_b=float(rng.uniform(0, math.pi)),
                              phi_b=float(rng.uniform(0, 2 * math.pi)))
        e_vec = point.e_off * fields.field_direction(theta, phi)
        h = spin_algebra.build_hq_general(e_vec, geo, mat)
        scale = max(float(np.abs(h).max()), 1e-300)
        axial = spin_algebra.build_hq_axial(f0q_exact, theta, phi, mat.spin)
        h0 = spin_algebra.build_hq_general(e_vec, fields.Geometry(theta=theta, phi=phi), mat)
        return (float(np.abs(h0 - axial).max()) / scale,
                float(np.abs(h - h.conj().T).max()) / scale, abs(np.trace(h)) / scale)

    # one _worst per column of the (equivalence, hermiticity, trace) deviations
    worst_equiv, worst_herm, worst_trace = map(_worst, zip(*(deviations() for _ in range(20))))
    # the spectrum cannot depend on the quantization-frame orientation
    e_fixed = rng.normal(size=3) * 1e6
    spectra = [np.linalg.eigvalsh(spin_algebra.build_hq_general(
        e_fixed, fields.Geometry(theta_b=float(rng.uniform(0, math.pi)),
                                 phi_b=float(rng.uniform(0, 2 * math.pi))), mat))
        for _ in range(8)]
    reference = spectra[0]
    worst_frame = _worst(float(np.abs(eigs - reference).max()) / float(np.abs(reference).max())
                         for eigs in spectra[1:])
    ok = worst_equiv <= 1e-10 and worst_herm <= 1e-12 and worst_trace <= 1e-12 \
        and worst_frame <= 1e-10
    return ok, (f"axial equivalence {worst_equiv:.2e}, hermiticity {worst_herm:.2e}, "
                f"trace {worst_trace:.2e}, frame invariance {worst_frame:.2e}")


def _check_level_shift() -> tuple[bool, str]:
    mat = get_material("GaAs:As75")
    args = (1.5, 1.0, 0.5, fields.Geometry(theta=0.0), 0.0, mat)
    rel = _rel(spin_algebra.level_shift(*args), oracles.level_shift_diagonalization(*args))
    # the perturbative error bound guarantees the residual shrinks at
    # least like B^-2 (ratio >= 4 per field doubling, up to noise); in
    # practice the third-order term cancels for this coupling family and
    # the observed decay is B^-3
    geo = fields.Geometry(theta=0.7, phi=0.3)
    residuals = []
    for b in (0.05, 0.1, 0.2, 0.4):
        args = (1.5, b, 0.5, geo, 0.0, mat)
        residuals.append(abs(spin_algebra.level_shift(*args)
                             - oracles.level_shift_diagonalization(*args)))
    ratios = [residuals[i] / residuals[i + 1] for i in range(3)]
    ok = rel <= 0.01 and all(q >= 3.5 for q in ratios)
    return ok, f"1 T deviation {rel:.2e} (tol 1e-2); B-doubling ratios {ratios}"


def exact_oracle_suite() -> list[CheckResult]:
    return _run("exact-oracles", [
        ("k-factor-traces", _check_k_factors),
        ("iz-moment-traces", _check_iz_traces),
        ("redfield-superoperator", _check_redfield),
        ("efg-rotation", _check_efg_rotation),
        ("sphere-average", _check_sphere_average),
        ("telegraph-conditionals", _check_telegraph_conditionals),
        ("screening-cdf", _check_screening_cdf),
        ("power-balance", _check_power_balance),
        ("spectral-density", _check_spectral_density),
        ("local-field-trace", _check_local_field_trace),
        ("hamiltonian-forms", _check_hamiltonian_forms),
        ("level-shift-oracle", _check_level_shift),
    ])


# --------------------------------------------------------------------------
# Monte Carlo telegraph
# --------------------------------------------------------------------------

def telegraph_mc_suite(seed: int = 20260810, n_dwell: int = 1_000_000) -> list[CheckResult]:
    def run_mc() -> tuple[bool, str]:
        occ, tau_occ, tau_empty = 0.5, 1.0, 1.0
        est = kinetics.simulate_telegraph(_SCREEN_BOHR, tau_occ, tau_empty,
                                          n_dwell=n_dwell, seed=seed)
        exact_rate = 1.0 / tau_occ + 1.0 / tau_empty
        exact_amp = kinetics.telegraph_amplitude(occ, _SCREEN_BOHR)
        rate_err = abs(est.decay_rate - exact_rate) / exact_rate
        amp_dev = abs(est.acf[0] - exact_amp)
        amp_ok = amp_dev <= 3.0 * est.acf_se[0] + 1e-12
        mean_ok = abs(est.mean) <= 3.0 * est.mean_se
        lags_ok = True
        for k, lag in enumerate(est.lag_times):
            expect = exact_amp * math.exp(-exact_rate * lag)
            if abs(est.acf[k] - expect) > 3.0 * est.acf_se[k] + 1e-12:
                lags_ok = False
        ok = rate_err <= 0.05 and amp_ok and mean_ok and lags_ok
        return ok, (f"decay rel err {rate_err:.4f} (tol 0.05), amplitude dev "
                    f"{amp_dev:.2e}, mean {est.mean:.2e} +- {est.mean_se:.2e}, "
                    f"all lags within 3 sigma: {lags_ok}")

    def run_mc_asym() -> tuple[bool, str]:
        est = kinetics.simulate_telegraph(_SCREEN_BOHR, 1.0, 3.0,
                                          n_dwell=max(n_dwell // 5, 10_000), seed=seed + 1)
        exact_rate = 1.0 + 1.0 / 3.0
        exact_amp = kinetics.telegraph_amplitude(0.25, _SCREEN_BOHR)
        rate_err = abs(est.decay_rate - exact_rate) / exact_rate
        amp_ok = abs(est.acf[0] - exact_amp) <= 3.0 * est.acf_se[0] + 1e-12
        ok = rate_err <= 0.05 and amp_ok
        return ok, f"decay rel err {rate_err:.4f}, amplitude within 3 sigma: {amp_ok}"

    return _run("telegraph-mc", [
        ("symmetric-dwell", run_mc),
        ("asymmetric-dwell", run_mc_asym),
    ])


# --------------------------------------------------------------------------
# reference numbers (GaAs defaults)
# --------------------------------------------------------------------------

def _within(value: float, lo: float, hi: float, label: str) -> tuple[bool, str]:
    return lo <= value <= hi, f"{label} = {value:.6g} (window [{lo:.6g}, {hi:.6g}])"


def _window(name: str, label: str, lo: float, hi: float, value: Callable[[], float]) -> Check:
    """The check ``name``: ``value()`` lies in [lo, hi], reported under ``label``."""
    return name, lambda: _within(value(), lo, hi, label)


def reference_number_suite() -> list[CheckResult]:
    mat = get_material("GaAs:As75")

    @functools.cache
    def sweep() -> polarization.PowerSweep:
        # run inside _run's guard, by the first check that reads it, once per suite call
        return polarization.power_sweep(np.geomspace(0.1, 100.0, 31), mat)

    def at_p0(column: np.ndarray) -> float:
        return column[np.argmin(np.abs(sweep().p_over_p0 - 1.0))]

    rho_q = functools.partial(polarization.quadrupolar_radius, 1e-2)

    def threshold_half_bohr() -> float:
        return validity.field_threshold(mat.bohr_radius / 2.0, validity.spin_temperature_eta(mat))

    def screening_at_bohr() -> tuple[bool, str]:
        s1 = fields.screening_fraction(1.0)
        return abs(s1 - 0.323) <= 0.01, f"s(a0*) = {s1:.6f} (target 0.323 +- 0.01)"

    def radius_sweep_monotone() -> tuple[bool, str]:
        table = polarization.radius_sweep(np.geomspace(1e-4, 1.0, 25))
        rho_up = bool(np.all(np.diff(table[:, 1]) > 0.0))
        s_up = bool(np.all(np.diff(table[:, 2]) > 0.0))
        return rho_up and s_up, f"rho_q increasing: {rho_up}, s(rho_q) increasing: {s_up}"

    def balance_radius(**options) -> polarization.DiffusionRadius:
        # half occupancy, with D calibrated to put the no-quadrupolar root at RHO_D_REFERENCE
        state = kinetics.state_for_occupancy(0.5, mat)
        d = polarization.calibrate_diffusion(state, 0.1, mat)
        return polarization.diffusion_radius(state, 0.1, d, mat, **options)

    def diffusion_calibration() -> tuple[bool, str]:
        root = balance_radius(f0=math.inf)
        ok = root.has_solution and abs(root.value - polarization.RHO_D_REFERENCE) <= 1e-5
        return ok, f"no-quadrupolar balance radius = {root.value} (calibrated target 1.4)"

    def diffusion_quad_modified() -> tuple[bool, str]:
        root = balance_radius(f0=1e-2)
        value = root.value if root.has_solution else float("nan")
        ok = root.has_solution and 0.85 <= value <= 1.15
        return ok, (f"quadrupolar-modified balance radius = {value:.4g} a0* "
                    "(window [0.85, 1.15]; the added quadrupolar rate can only "
                    "push the outermost crossing outward, so the published "
                    "~1.0 a0* is not reproducible from this balance)")

    def sweep_tail_decreasing() -> tuple[bool, str]:
        tail = sweep().alpha_n[sweep().p_over_p0 >= 2.0]
        ok = bool(np.all(np.diff(tail) < 0.0))
        return ok, f"alpha_n strictly decreasing over {tail.size} high-power points"

    def coupling_table() -> tuple[bool, str]:
        worst = _worst(abs(record.bq_recomputed() - record.b_q) / record.b_q
                       for record in load_registry().values())
        return worst <= 0.10, f"worst b_q round-trip deviation {worst:.2%} (tol 10%)"

    return _run("reference-numbers", [
        ("screening-at-bohr", screening_at_bohr),
        _window("competition-floor", "f00", 1e-3, 4e-3, lambda: relaxation.intrinsic_ratio(mat)),
        _window("competition-amplitude", "f0 at half occupancy", 5e-3, 2e-2,
                lambda: relaxation.intrinsic_ratio(mat) / 0.25),
        _window("ratio-at-bohr-perpendicular", "f(a0*, pi/2) at f0=1e-2", 0.07, 0.13,
                lambda: 1e-2 * relaxation.radial_profile(1.0)),
        _window("ratio-at-bohr-parallel", "f(a0*, 0) at f0=1e-2", 0.017, 0.033,
                lambda: 1e-2 * relaxation.radial_profile(1.0) / 4.0),
        _window("half-radius-parallel", "half-polarization radius, parallel", 0.22, 0.28,
                lambda: polarization.half_polarization_radius(0.0, 1e-2)),
        _window("half-radius-perpendicular", "half-polarization radius, perpendicular",
                0.42, 0.48, lambda: polarization.half_polarization_radius(math.pi / 2.0, 1e-2)),
        _window("quadrupolar-radius", "quadrupolar radius at f0=1e-2", 0.34, 0.36, rho_q),
        _window("screening-at-radius", "s(rho_q)", 0.029, 0.039,
                lambda: fields.screening_fraction(rho_q())),
        ("radius-sweep-monotone", radius_sweep_monotone),
        ("diffusion-calibration", diffusion_calibration),
        ("diffusion-quad-modified", diffusion_quad_modified),
        _window("field-reduction-ratio", "s(rho_d)/s(rho_q)", 10.0, 20.0,
                lambda: (fields.screening_fraction(polarization.RHO_D_REFERENCE)
                         / fields.screening_fraction(rho_q()))),
        _window("sweep-occupancy-at-p0", "occupancy at P0", 0.4, 0.6,
                lambda: at_p0(sweep().occupancy)),
        _window("sweep-dip-factor", "reduction factor 0.5/s(rho_q) at P0", 13.0, 30.0,
                lambda: 0.5 / at_p0(sweep().s_rho_q)),
        ("sweep-tail-decreasing", sweep_tail_decreasing),
        _window("power-scale", "P0 (W/m^2)", 2.4e6 / 3.0, 2.4e6 * 3.0,
                lambda: kinetics.power_scale(mat)),
        _window("quadrupolar-local-field", "B_Q(0.5 a0*, occ 0)", 1.6e-3 / 3.0, 1.6e-3 * 3.0,
                lambda: spin_algebra.bq_local_field(0.5, 0.0, fields.Geometry(), mat)),
        _window("spin-temperature-eta", "eta (m T^1/5)", 1.5e-9, 4.5e-9,
                lambda: validity.spin_temperature_eta(mat)),
        _window("threshold-at-half-bohr", "field threshold at a0*/2", 0.045, 0.18,
                threshold_half_bohr),
        _window("radius-at-third-threshold", "spin-temperature radius at threshold/3", 0.45, 0.75,
                lambda: validity.spin_temperature_limit(threshold_half_bohr() / 3.0, mat).r_q
                / mat.bohr_radius),
        _window("narrowing-crossover", "B with omega_H tau_H = 1", 20.0 / 3.0, 60.0,
                lambda: 1.0 / (mat.gamma_e * kinetics.occupancy(1e21, mat).tau_hyper)),
        ("coupling-table", coupling_table),
    ])


#: checks that document known discrepancies; they stay red on purpose and
#: carry the explanation in their detail string
EXPECTED_FAILURES = {("reference-numbers", "diffusion-quad-modified")}


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------

def property_suite(seed: int = 20260810) -> list[CheckResult]:
    mat = get_material("GaAs:As75")

    def radial_factor_monotone() -> tuple[bool, str]:
        grid = np.linspace(1e-3, 8.0, 10_000)
        values = relaxation.radial_profile(grid)
        ok = bool(np.all(np.diff(values) < 0.0))
        return ok, f"strictly decreasing over {grid.size} points on (0, 8]"

    def power_map_monotone() -> tuple[bool, str]:
        ceiling = kinetics.gamma_ceiling(mat)
        grid = np.linspace(1e-4, ceiling * 0.9999, 400)
        powers = kinetics.power_map(grid, mat).power
        ok = bool(np.all(np.diff(powers) > 0.0))
        return ok, f"strictly increasing over {grid.size} occupancies"

    def correlation_shape() -> tuple[bool, str]:
        positive = np.linspace(0.25e-9, 5e-9, 20)
        ok = True
        for occ in (0.2, 0.5, 0.9):
            tau_occ = 1e-9
            tau_empty = tau_occ * (1 - occ) / occ

            def g_of(t: float) -> float:
                return kinetics.telegraph_correlation(t, _SCREEN_BOHR, tau_occ, tau_empty)

            g0 = g_of(0.0)
            for t in positive:
                plus, minus = g_of(float(t)), g_of(float(-t))
                ok &= plus >= 0.0 and plus == minus and plus < g0
        zero = kinetics.telegraph_amplitude(0.0, 0.5) == 0.0 \
            and kinetics.telegraph_amplitude(1.0, 0.5) == 0.0
        return ok and zero, "non-negative, even, maximal at zero lag; off at occ 0 and 1"

    def efg_shape() -> tuple[bool, str]:
        rng = np.random.default_rng(seed)

        def deviations() -> tuple[float, float]:
            geo = fields.Geometry(theta=float(rng.uniform(0, math.pi)),
                                  phi=float(rng.uniform(0, 2 * math.pi)),
                                  theta_b=float(rng.uniform(0, math.pi)),
                                  phi_b=float(rng.uniform(0, 2 * math.pi)))
            e_vec = rng.normal(size=3) * 1e6
            v = fields.efg_transform(e_vec, geo, mat.r14)
            scale = max(_worst(abs(c) for c in v), 1e-300)
            # full-matrix congruence stays symmetric under the frame change
            rot = fields.rotation_to_field_frame(geo.theta_b, geo.phi_b)
            full = rot @ fields.efg_crystal_frame(e_vec, mat.r14) @ rot.T
            return (abs(v.xx + v.yy + v.zz) / scale,
                    float(np.abs(full - full.T).max()) / scale)

        worst_trace, worst_sym = map(_worst, zip(*(deviations() for _ in range(50))))
        ok = worst_trace <= 1e-12 and worst_sym <= 1e-12
        return ok, (f"traceless to {worst_trace:.2e}, symmetric to {worst_sym:.2e} "
                    "over 50 random geometries")

    def field_normalization() -> tuple[bool, str]:
        weight = oracles.screening_cdf_quadrature(polarization.FIELD_INTEGRAL_UPPER)
        return abs(weight - 1.0) <= 2e-8, \
            f"orbital weight integrates to {weight:.10f} (fully polarized halo bound)"

    def spin_temperature_radii() -> list[tuple[float, float]]:
        """(B, spin-temperature radius r_q at B) over four decades of B."""
        return [(b, validity.spin_temperature_limit(float(b), mat).r_q)
                for b in np.geomspace(1e-3, 10.0, 9)]

    def eta_power_law() -> tuple[bool, str]:
        eta = validity.spin_temperature_eta(mat)
        worst = _worst(abs(r_q * b ** 0.2 - eta) / eta for b, r_q in spin_temperature_radii())
        return worst <= 1e-6, f"r_q B^(1/5) constant to {worst:.2e} (tol 1e-6)"

    def threshold_inverse() -> tuple[bool, str]:
        eta = validity.spin_temperature_eta(mat)
        worst = _worst(abs(validity.field_threshold(r_q, eta) - b) / b
                       for b, r_q in spin_temperature_radii())
        return worst <= 1e-10, f"threshold(radius(B)) = B to {worst:.2e}"

    def shift_difference_slope() -> tuple[bool, str]:
        # nearest-neighbor shift difference falls off as r^-5 far out
        geo = fields.Geometry(theta=0.0)
        radii = np.geomspace(2.0, 8.0, 12)
        diffs = []
        for r in radii:
            d_bohr = mat.neighbor_spacing / mat.bohr_radius
            a = spin_algebra.level_shift(mat.spin, 1.0, float(r), geo, 0.0, mat)
            b = spin_algebra.level_shift(mat.spin, 1.0, float(r) + d_bohr, geo, 0.0, mat)
            diffs.append(abs(a - b))
        slope = np.polyfit(np.log(radii), np.log(diffs), 1)[0]
        return abs(slope + 5.0) <= 0.1, f"log-log slope {slope:.4f} (target -5 +- 2%)"

    def profile_ordering() -> tuple[bool, str]:
        prof = polarization.profile(1e-2, np.linspace(0.05, 4.0, 120))
        ok = bool(np.all(prof.p_parallel <= prof.p_perpendicular + 1e-15))
        ok &= bool(np.all(prof.p_avg <= prof.p_perpendicular + 1e-12))
        ok &= bool(np.all(prof.p_avg >= prof.p_parallel - 1e-12))
        for arr in (prof.p_parallel, prof.p_perpendicular, prof.p_avg):
            ok &= bool(np.all(np.diff(arr) < 0.0))
        return ok, "parallel <= average <= perpendicular, all strictly decreasing"

    def mc_convergence() -> tuple[bool, str]:
        exact = kinetics.telegraph_amplitude(0.25, _SCREEN_BOHR)
        errs = {}
        for n in (16_000, 256_000):
            # the amplitude is the lag-0 estimate, the same at any n_lags
            runs = [kinetics.simulate_telegraph(_SCREEN_BOHR, 1.0, 3.0, n_dwell=n,
                                                seed=seed + k, n_lags=4).acf[0]
                    for k in range(8)]
            errs[n] = float(np.mean([abs(a - exact) for a in runs]))
        ratio = errs[256_000] / errs[16_000]
        ok = 0.15 <= ratio <= 0.6      # ideal 1/4 for a 16x sample increase
        return ok, f"mean abs error ratio (16x dwells) = {ratio:.3f} (window [0.15, 0.6])"

    return _run("properties", [
        ("radial-factor-monotone", radial_factor_monotone),
        ("power-map-monotone", power_map_monotone),
        ("correlation-shape", correlation_shape),
        ("efg-traceless", efg_shape),
        ("field-normalization", field_normalization),
        ("eta-power-law", eta_power_law),
        ("threshold-inverse", threshold_inverse),
        ("shift-difference-slope", shift_difference_slope),
        ("profile-ordering", profile_ordering),
        ("mc-convergence", mc_convergence),
    ])


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "exact-oracles": lambda seed, n_dwell: exact_oracle_suite(),
    "telegraph-mc": lambda seed, n_dwell: telegraph_mc_suite(seed, n_dwell),
    "reference-numbers": lambda seed, n_dwell: reference_number_suite(),
    "properties": lambda seed, n_dwell: property_suite(seed),
}


def run_suites(names: Iterable[str] | None = None, seed: int = 20260810,
               n_dwell: int = 1_000_000) -> list[CheckResult]:
    # each named suite once, in the order it is first named
    selected = list(dict.fromkeys(names)) if names is not None else list(SUITES)
    results: list[CheckResult] = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name](seed, n_dwell))
    return results
