"""Material and isotope parameter sets.

Each record bundles every constant needed to evaluate the donor-halo
model for one nucleus/host pair: nuclear data, host dielectric and
orbital scales, the electric-field-gradient coupling, cross sections,
and the carrier-kinetics parameters entering the excitation-power map.

Records live in a human-editable text file (``data/materials.dat``,
one ``[name]`` block per record, ``key = value`` lines, SI units).
:func:`coerce_field` types each value, from the file or an override, and
rejects unknown keys so typos cannot silently change physics; every
number a record declares must be positive and finite (``require``).
Records are immutable after loading and safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from importlib import resources

from .errors import MaterialError, MissingParameterError
from .numerics import POSITIVE_FINITE, require

# CODATA 2022 values, as scipy.constants gives them (pinned by a test)
E_CHARGE = 1.602176634e-19          # C
HBAR = 1.0545718176461565e-34       # J s
EPSILON_0 = 8.8541878188e-12        # F/m

#: relative tolerance for the stored-vs-recomputed coupling consistency gate
BQ_CONSISTENCY_RTOL = 0.10


def compute_bq(r14: float, quadrupole_moment: float, spin: float, gamma: float) -> float:
    """Field-coupling ratio e*R14*Q / (4*hbar*gamma*I*(2I-1)), in T.m/V.

    Converts the donor electric field into an equivalent magnetic-field
    scale for the quadrupolar coupling.  Raises for spin 1/2, which has
    no quadrupole moment.
    """
    _require_half_integer(spin)
    if spin < 1.0:
        raise MaterialError(
            f"spin {spin} carries no quadrupole moment; coupling undefined"
        )
    for name, value in (("r14", r14), ("quadrupole_moment", quadrupole_moment), ("gamma", gamma)):
        require(value, name, POSITIVE_FINITE)
    denominator = 4.0 * HBAR * gamma * spin * (2.0 * spin - 1.0)
    return require(E_CHARGE * r14 * quadrupole_moment / denominator if denominator else math.inf,
                   "coupling ratio b_q in T.m/V (check r14, quadrupole_moment, spin and gamma)",
                   POSITIVE_FINITE)


def _require_half_integer(spin: float) -> None:
    # from 1/2 up to where 2 * spin overflows
    doubled = 2.0 * require(spin, "spin", (0.5, sys.float_info.max / 2, "a positive half-integer"))
    if abs(doubled - round(doubled)) > 1e-12:
        raise MaterialError(f"spin must be a positive half-integer, got {spin}")


@dataclass(frozen=True)
class MaterialRecord:
    """All physical constants for one nucleus/host pair (SI units)."""

    name: str
    host: str
    isotope: str
    spin: float                      # nuclear spin I (dimensionless)
    gamma: float                     # nuclear gyromagnetic ratio, rad/s/T
    gamma_e: float                   # electron gyromagnetic ratio (magnitude), rad/s/T
    epsilon: float                   # static dielectric constant
    bohr_radius: float               # effective donor Bohr radius a0*, m
    r14: float                       # antishielded EFG/field tensor component, 1/m
    quadrupole_moment: float         # Q, m^2
    b_q: float                       # field-coupling ratio, T.m/V
    sigma_capture: float             # electron capture cross section, m^2
    sigma_exchange: float            # spin-exchange cross section, m^2
    local_field: float               # nuclear spin-spin local field, T
    neighbor_spacing: float          # same-isotope nearest-neighbor distance, m
    velocity: float                  # free-electron velocity, m/s
    recombination_time: float        # trapped-electron recombination time, s
    bimolecular_k: float             # band-to-band recombination coefficient, m^3/s
    donor_density: float             # m^-3
    acceptor_density: float          # m^-3
    diffusion_length: float          # electron diffusion length, m
    photon_energy: float             # excitation photon energy, J
    b_n0: float                      # nuclear field at full homogeneous polarization, T
    hyperfine_field_bohr: float | None = None  # instant hyperfine field at a0*, T (nullable)
    note: str = ""                   # free-form caveat, e.g. interpolated inputs

    def __post_init__(self) -> None:
        _require_half_integer(self.spin)
        for f in self.__dataclass_fields__.values():
            value = getattr(self, f.name)
            if f.type == "str":
                # dump_record writes it on one line, where '#' would start a
                # comment, and parse_registry strips the blanks around it
                one_line = isinstance(value, str) and "".join(value.splitlines()) == value
                if not one_line or "#" in value or value.strip() != value:
                    raise MaterialError(f"{f.name} must be one line of text without '#' "
                                        f"or outer blanks, got {value!r}")
            elif value is not None:                         # every number it declares
                require(value, f"{self.name or '<record>'}: {f.name}", POSITIVE_FINITE)
        if self.acceptor_density <= self.donor_density:
            # partially compensated n-type material is outside the model
            raise MaterialError(
                f"{self.name}: acceptor density must exceed donor density"
            )
        if self.spin >= 1.0:
            # spin-1/2 nuclei have no quadrupole moment, so the stored
            # coupling is only meaningful (and checked) for spin >= 1
            recomputed = compute_bq(self.r14, self.quadrupole_moment, self.spin, self.gamma)
            if abs(recomputed - self.b_q) > BQ_CONSISTENCY_RTOL * self.b_q:
                raise MaterialError(
                    f"{self.name}: stored b_q {self.b_q:.3e} differs from recomputed "
                    f"{recomputed:.3e} by more than {BQ_CONSISTENCY_RTOL:.0%}"
                )

    def bq_recomputed(self) -> float:
        """Coupling ratio recomputed from the stored nuclear data."""
        return compute_bq(self.r14, self.quadrupole_moment, self.spin, self.gamma)

    def require_hyperfine_field(self) -> float:
        if self.hyperfine_field_bohr is None:
            raise MissingParameterError(
                f"{self.name}: hyperfine_field_bohr is not set for this record"
            )
        return self.hyperfine_field_bohr

    def with_overrides(self, **overrides: float | str) -> "MaterialRecord":
        """Copy of the record with typed field overrides; unknown keys rejected."""
        valid = {f.name for f in dataclass_fields(MaterialRecord)}
        for key in overrides:
            if key not in valid:
                raise MaterialError(f"unknown material field: {key}")
        return replace(self, **overrides)


_FLOAT_FIELDS = {f.name for f in dataclass_fields(MaterialRecord) if f.type != "str"}
_STRING_FIELDS = {f.name for f in dataclass_fields(MaterialRecord) if f.type == "str"} - {"name"}


def key_value_lines(text: str, source: str, require_block: bool = False):
    """(lineno, header, key, value) per line of ``[block]`` / ``key = value`` text.

    A ``[name]`` line gives (lineno, name, None, None), a ``key = value``
    line (lineno, None, key, value); blanks and ``#`` comments are skipped.
    """
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            in_block = True
            yield lineno, line[1:-1].strip(), None, None
            continue
        if require_block and not in_block:
            raise MaterialError(f"{source}:{lineno}: key outside any [record] block")
        if "=" not in line:
            raise MaterialError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, None, key, value


def parse_registry(text: str, source: str = "<registry>") -> dict[str, MaterialRecord]:
    """Parse ``[name]`` / ``key = value`` blocks into records.

    Comments start with ``#``.  Every key must be a record field; every
    record must supply all non-nullable fields.
    """
    records: dict[str, MaterialRecord] = {}
    current: str | None = None
    pending: dict[str, object] = {}

    def flush() -> None:
        nonlocal current, pending
        if current is None:
            return
        missing = {*_FLOAT_FIELDS, "host", "isotope"} - {"hyperfine_field_bohr", *pending}
        if missing:
            raise MaterialError(
                f"{source}: record [{current}] is missing keys: {sorted(missing)}"
            )
        records[current] = MaterialRecord(name=current, **pending)  # type: ignore[arg-type]
        current, pending = None, {}

    for lineno, header, key, value in key_value_lines(text, source, require_block=True):
        if header is not None:
            flush()
            current = header
            if not current:
                raise MaterialError(f"{source}:{lineno}: empty record name")
            if current in records:
                raise MaterialError(f"{source}:{lineno}: duplicate record [{current}]")
            continue
        if key == "name":
            raise MaterialError(f"{source}:{lineno}: 'name' is set by the block header")
        try:
            pending[key] = coerce_field(key, value)
        except MaterialError as exc:
            raise MaterialError(f"{source}:{lineno}: {exc}") from exc
    flush()
    return records


def coerce_field(key: str, value: str) -> float | str:
    """Parse a command-line override value with the field's type."""
    if key in _STRING_FIELDS:
        return value
    if key in _FLOAT_FIELDS:
        try:
            return float(value)
        except ValueError as exc:
            raise MaterialError(f"bad number for {key}: {value!r}") from exc
    raise MaterialError(f"unknown material field: {key}")


_REGISTRY_CACHE: dict[str, MaterialRecord] | None = None


def load_registry() -> dict[str, MaterialRecord]:
    """Built-in registry shipped with the package (cached)."""
    global _REGISTRY_CACHE
    if _REGISTRY_CACHE is None:
        text = resources.files("donor_halo").joinpath("data/materials.dat").read_text()
        _REGISTRY_CACHE = parse_registry(text, source="materials.dat")
    return _REGISTRY_CACHE


def get_material(name: str) -> MaterialRecord:
    registry = load_registry()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise MaterialError(f"unknown material {name!r}; known records: {known}") from None


def list_materials() -> list[str]:
    return sorted(load_registry())


def dump_record(mat: MaterialRecord) -> str:
    """Key/value text for one record, same format as the registry file."""
    lines = [f"[{mat.name}]"]
    for f in dataclass_fields(MaterialRecord):
        if f.name == "name":
            continue
        value = getattr(mat, f.name)
        if value is None or value == "":
            continue
        if f.name in _STRING_FIELDS:
            lines.append(f"{f.name} = {value}")
        else:
            lines.append(f"{f.name} = {value:.6e}")
    return "\n".join(lines) + "\n"
