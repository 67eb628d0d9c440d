"""The input contract of the library, as ``test_cli_fuzz.py`` states it for the CLI.

Every float argument of every public numeric function is drawn, one at a
time, from a fixed list of extremes while the other arguments keep a
normal value.  Each call must return finite values or raise a
``DonorHaloError``, and emit no numpy warning (pytest makes one an
error).  An infinite output passes only where ``INFINITIES`` lists it,
by function and field, with its reason.  Functions that take
an array take the draw as its last element; the scalar kernels that take
a float or an array are drawn on both paths.

``test_every_public_callable_is_in_the_table`` walks ``donor_halo.__all__``,
so a public function added later cannot skip the contract.
"""

import dataclasses
import math

import numpy as np
import pytest

import donor_halo
from donor_halo import (DonorHaloError, Geometry, MaterialRecord, NumericalError,
                        angular_factor, bq_local_field, build_hq_general, build_report,
                        build_spin_operators, calibrate_diffusion, compute_bq,
                        coulomb_field, diffusion_radius, donor_field,
                        efg_transform, get_material, half_polarization_radius,
                        hyperfine_field_instant, invert_power, level_shift,
                        local_fields, motional_regime, occupancy, p_avg, p_point,
                        power_map, power_sweep, profile, quadrupolar_radius,
                        radial_profile, radius_sweep, rates, redfield_rate_analytic,
                        screening_fraction, simulate_telegraph, spectral_density,
                        spin_temperature_limit, state_for_occupancy,
                        telegraph_correlation)
from donor_halo.fields import screening_density
from donor_halo.kinetics import power_scale
from donor_halo.relaxation import log_radial_profile, radial_profile_inverse
from donor_halo.validity import field_threshold, spin_temperature_eta

MAT = get_material("GaAs:As75")
STATE = state_for_occupancy(0.5, MAT)
GEO = Geometry(theta=0.4, phi=0.3, theta_b=0.2, phi_b=0.1)

#: the draws: NaN, both infinities, both zeros, -1, the smallest float,
#: 1e-155 and 1e155 (whose squares under- and overflow), a huge positive
#: float, and an int past the float range (drawn as a scalar only: in an
#: array numpy holds it as an object, not as a float, so it stays last)
DRAWS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-155, 1e155, 1e308, 10**400]

#: function -> (normal arguments, also drawn as arrays of [normal, draw]);
#: every float argument, and the last element of every float array, is drawn
TABLE = {
    "Geometry": (Geometry, dict(theta=0.4, phi=0.3, theta_b=0.2, phi_b=0.1), False),
    "MaterialRecord": (MaterialRecord, dataclasses.asdict(MAT), False),
    "compute_bq": (compute_bq, dict(r14=MAT.r14, quadrupole_moment=MAT.quadrupole_moment,
                                    spin=1.5, gamma=MAT.gamma), False),
    "build_spin_operators": (build_spin_operators, dict(spin=1.5), False),
    "screening_fraction": (screening_fraction, dict(r_bohr=0.7), True),
    "screening_density": (screening_density, dict(r_bohr=0.7), True),
    "coulomb_field": (coulomb_field, dict(r=0.7, mat=MAT), False),
    "donor_field": (donor_field, dict(r=0.7, occupancy=0.5, mat=MAT), False),
    "hyperfine_field_instant": (hyperfine_field_instant, dict(r=0.7, mat=MAT), False),
    "efg_transform": (efg_transform, dict(e_field=np.array([1e5, 2e5, 3e5]),
                                          geometry=GEO, r14=MAT.r14), False),
    "occupancy": (occupancy, dict(free_density=1e20, mat=MAT), False),
    "state_for_occupancy": (state_for_occupancy, dict(gamma_t=0.5, mat=MAT), False),
    "telegraph_correlation": (telegraph_correlation, dict(
        tau=1e-9, screening=0.3, tau_occupied=1e-9, tau_empty=2e-9), False),
    "spectral_density": (spectral_density, dict(omega=1e8, amplitude=1.0,
                                                tau_c=1e-9), False),
    "power_map": (power_map, dict(gamma_t=0.5, mat=MAT), True),
    "invert_power": (invert_power, dict(power=power_scale(MAT), mat=MAT), True),
    "simulate_telegraph": (simulate_telegraph, dict(
        screening=0.3, tau_occupied=1.0, tau_empty=2.0, n_dwell=1000, seed=1,
        n_lags=8, samples_per_dwell=5.0, n_blocks=8), False),
    "p_point": (p_point, dict(r=0.5, theta=0.4, f0=0.01), True),
    "p_avg": (p_avg, dict(r=0.5, f0=0.01), True),
    "quadrupolar_radius": (quadrupolar_radius, dict(f0=0.01), True),
    "half_polarization_radius": (half_polarization_radius, dict(theta=0.4, f0=0.01), True),
    "profile": (profile, dict(f0=0.01, r_grid=np.array([0.1, 0.5, 1.0, 3.0]),
                              rho_d=1.4), False),
    "radius_sweep": (radius_sweep, dict(f0_grid=np.array([1e-3, 1e-2])), False),
    "calibrate_diffusion": (calibrate_diffusion, dict(state=STATE, b_field=0.1,
                                                      mat=MAT), False),
    "diffusion_radius": (diffusion_radius, dict(
        state=STATE, b_field=0.1, diffusion_constant=calibrate_diffusion(STATE, 0.1, MAT),
        mat=MAT, f0=0.02), False),
    "power_sweep": (power_sweep, dict(p_over_p0=np.array([0.1, 1.0]), mat=MAT), False),
    "rates": (rates, dict(r=0.7, geometry=GEO, state=STATE, b_field=1.0, mat=MAT), False),
    "radial_profile": (radial_profile, dict(r=0.7), True),
    "log_radial_profile": (log_radial_profile, dict(r=0.7), True),
    "radial_profile_inverse": (radial_profile_inverse, dict(log_target=1.0), True),
    "angular_factor": (angular_factor, dict(k=1, theta=0.4, spin=1.5), False),
    "bq_local_field": (bq_local_field, dict(r=0.7, occupancy=0.5, geometry=GEO,
                                            mat=MAT), False),
    "build_hq_general": (build_hq_general, dict(e_field=np.array([1e5, 2e5, 3e5]),
                                                geometry=GEO, mat=MAT), False),
    "level_shift": (level_shift, dict(m=1.5, b_field=1.0, r=0.5, geometry=Geometry(),
                                      occupancy=0.2, mat=MAT), False),
    "redfield_rate_analytic": (redfield_rate_analytic, dict(
        spin=1.5, theta=0.4, j1=1e-9, j2=2e-9), False),
    "local_fields": (local_fields, dict(b_field=1.0, r=0.5, occupancy=0.5, geometry=GEO,
                                        mat=MAT, margin=10.0), False),
    "build_report": (build_report, dict(b_field=1.0, r=0.5, state=STATE, geometry=GEO,
                                        mat=MAT, margin=10.0), False),
    "motional_regime": (motional_regime, dict(b_field=1.0, state=STATE, mat=MAT), False),
    "spin_temperature_limit": (spin_temperature_limit, dict(b_field=1.0, mat=MAT), False),
    "field_threshold": (field_threshold, dict(r_m=1e-8, eta=spin_temperature_eta(MAT)),
                        False),
}

#: (function, field) pairs whose infinity is the answer, with the reason
INFINITIES = {
    ("occupancy", "tau_hyper"): "no free electrons (n_f = 0): no spin exchange",
    ("state_for_occupancy", "tau_hyper"): "occupancy 0 is n_f = 0: no spin exchange",
    ("rates", "f"): "no quadrupolar rate acts (inv_t1q = 0), so hyperfine relaxation wins",
    ("log_radial_profile", "result"): "past r = 4.5e307 log phi is below -max float; "
                                      "phi itself is 0 there",
    **{(name, field): "omega * tau past the float range: far from narrowed; the CLI "
                      "refuses to write it (exit 3)"
       for name in ("motional_regime", "build_report")
       for field in ("omega1_tau", "omegah_tau")},
    ("build_report", "omega2_tau"): "twice omega1_tau, past the float range with it",
}

#: public callables with no float argument, or records that compute nothing
NOT_NUMERIC = {
    # take a record or a name only
    "gamma_ceiling", "get_material", "intrinsic_ratio", "list_materials",
    "load_registry", "nuclear_field", "render_report",
    # result records: they hold what a function returned and check nothing
    "DiffusionRadius", "EfgComponents", "FieldPoint", "KineticState", "NuclearField",
    "PowerSweep", "RadialProfile", "RateBundle", "RegimeReport", "SpinMatrices",
    "TelegraphEstimate",
}


def _calls(normal, arrays):
    """(label, keyword arguments) for each draw into each float argument of a call."""
    for arg, value in normal.items():
        if isinstance(value, float):
            shapes = ("float", "array") if arrays else ("float",)
        elif isinstance(value, np.ndarray) and value.dtype == float:
            shapes = ("last",)
        else:
            continue
        for shape in shapes:
            for draw in DRAWS if shape == "float" else DRAWS[:-1]:
                drawn = (draw if shape == "float" else np.array([value, draw])
                         if shape == "array" else np.append(value[:-1], draw))
                yield f"{arg}={drawn!r}", {**normal, arg: drawn}


def _numbers(value, path="result"):
    """(field, value) for every number in a result, through records and arrays."""
    if isinstance(value, (bool, np.bool_, str)) or value is None:
        return
    if isinstance(value, (int, float, np.number)):
        yield path, value
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            yield path, value
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _numbers(getattr(value, item.name), item.name)
    elif hasattr(value, "_fields"):
        for key in value._fields:
            yield from _numbers(getattr(value, key), key)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item, path)


def _breaches(name, result):
    """The fields of a result that are NaN, or infinite without a listed reason."""
    return [(field, value) for field, value in _numbers(result)
            if not np.all(np.isfinite(value))
            and (np.any(np.isnan(value)) or (name, field) not in INFINITIES)]


@pytest.mark.parametrize("name", list(TABLE))
def test_every_float_input_ends_finite_or_refused(name):
    func, normal, arrays = TABLE[name]
    # the normal call answers, so a refused draw is refused for itself
    assert all(np.all(np.isfinite(value)) for _, value in _numbers(func(**normal)))
    broken = []
    for label, kwargs in _calls(normal, arrays):
        try:
            result = func(**kwargs)
        except DonorHaloError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other error breaks the contract
            broken.append((label, repr(exc)))
            continue
        broken += [(label, field, value) for field, value in _breaches(name, result)]
    assert not broken, broken


@pytest.mark.parametrize("call", [lambda: angular_factor(1, 0.0, 1e155),
                                  lambda: redfield_rate_analytic(1e155, 0.0, 1e-9, 1e-9)],
                         ids=["angular_factor", "redfield_rate_analytic"])
def test_a_spin_factor_past_the_float_range_is_refused_not_nan(call):
    # 4I(I+1) is inf at I = 1e155 and sin(0) = 0: the product inf * 0 is NaN
    with pytest.raises(NumericalError, match="^angular factor .* must be non-negative and finite"):
        call()


def test_every_public_callable_is_in_the_table():
    public = {name for name in donor_halo.__all__
              if callable(getattr(donor_halo, name))
              and not (isinstance(getattr(donor_halo, name), type)
                       and issubclass(getattr(donor_halo, name), DonorHaloError))}
    assert public - TABLE.keys() - NOT_NUMERIC == set()
    assert NOT_NUMERIC <= public
