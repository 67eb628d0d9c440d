"""Nuclear polarization and light-induced quadrupolar relaxation near shallow donors.

Photoelectrons trapping at and recombining from a shallow donor
modulate the Coulomb field seen by nearby nuclei.  For quadrupolar
nuclei that modulation opens a depolarization channel that competes
with the hyperfine polarization transfer, shrinking the polarized halo
around the donor and with it the nuclear field acting back on the
electrons.  This package computes the relaxation rates, the steady
polarization profiles and radii, the nuclear-field-versus-power curves,
and the validity diagnostics of that picture, with brute-force oracles
for every closed form it uses in :mod:`donor_halo.oracles` (not
re-exported here: production code never needs them).  The seeded
telegraph Monte Carlo of :mod:`donor_halo.telegraph`, which checks the
closed forms of :mod:`donor_halo.kinetics`, is re-exported as
``simulate_telegraph`` and ``TelegraphEstimate``.  The package's one runtime
dependency is numpy; scipy serves the tests as the referee of the
oracles.
"""

from .errors import (BracketError, DonorHaloError, MaterialError,
                     MissingParameterError, NonPerturbativeRegimeError,
                     NumericalError)
from .fields import (EfgComponents, FieldPoint, Geometry, coulomb_field, donor_field,
                     efg_transform, hyperfine_field_instant, screening_fraction)
from .kinetics import (GAMMA_MIN_DIFFUSION, KineticState, gamma_ceiling, invert_power,
                       occupancy, power_map, spectral_density, state_for_occupancy,
                       telegraph_correlation)
from .materials import (MaterialRecord, compute_bq, get_material, list_materials,
                        load_registry)
from .polarization import (DiffusionRadius, NuclearField, PowerSweep,
                           RadialProfile, calibrate_diffusion, diffusion_radius,
                           half_polarization_radius, nuclear_field, p_avg,
                           p_point, power_sweep, profile, quadrupolar_radius,
                           radius_sweep)
from .relaxation import RateBundle, intrinsic_ratio, radial_profile, rates
from .spin_algebra import (SpinMatrices, angular_factor, bq_local_field,
                           build_hq_general, build_spin_operators, level_shift,
                           redfield_rate_analytic)
from .telegraph import TelegraphEstimate, simulate_telegraph
from .validity import (RegimeReport, build_report, local_fields, motional_regime,
                       render_report, spin_temperature_limit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
