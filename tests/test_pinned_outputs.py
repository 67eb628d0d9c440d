"""The profile, radius and power CSVs stay what the scalar solvers wrote.

The files in ``tests/data`` were written by the CLI when every radius and
every swept occupancy was its own scalar bisection.  Radii (and the
columns computed from a radius) may move within the old 1e-6 solver
tolerance; the occupancy columns must not move at all, because the
power inversion still takes the same midpoints; everything else must
agree to 1e-10 relative.  The CSVs print 12 digits, so bytes may differ
within these bounds.
"""

from pathlib import Path

import pytest

from donor_halo import cli

DATA = Path(__file__).parent / "data"

RUNS = {
    "profile_default": ["profile"],
    "profile_ga69": ["profile", "--material", "GaAs:Ga69", "--f0", "0.05",
                     "--r-min", "0.01", "--r-max", "5", "--points", "60"],
    "radius_default": ["radius"],
    "radius_wide": ["radius", "--f0-min", "1e-6", "--f0-max", "10", "--points", "40"],
    "power_default": ["power"],
    "power_noquad": ["power", "--no-quadrupolar"],
    "power_inas": ["power", "--material", "InAs:As75", "--set",
                   "hyperfine_field_bohr=2e-3", "--p-min", "0.01",
                   "--p-max", "1000", "--points", "50"],
    "power_wide": ["power", "--p-min", "0.003", "--p-max", "3000", "--points", "45",
                   "--set", "acceptor_density=1e23"],
    "power_noquad_dense": ["power", "--no-quadrupolar", "--p-min", "0.03",
                           "--p-max", "300", "--points", "40",
                           "--set", "donor_density=2e22"],
}

#: columns (and header keys) computed from a radius: 1e-6 absolute
RADIUS_VALUED = {"rho_q", "s_rho_q", "alpha_n"}
#: columns that must be printed identically
EXACT = {"occupancy", "nf_over_na", "diffusion_flag"}
RTOL = 1e-10
RADIUS_ATOL = 1e-6


def _split(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    header: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            header[key] = value
        elif not line.startswith("#"):
            body.append(line.split(","))
    return header, body[0], body[1:]


def _agrees(name: str, got: str, want: str) -> bool:
    if name in EXACT:
        return got == want
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if name in RADIUS_VALUED:
        return abs(g - w) <= RADIUS_ATOL
    return abs(g - w) <= RTOL * abs(w)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_matches_pinned_output(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(RUNS[name] + ["--out", str(out)]) == 0
    got_header, got_columns, got_rows = _split(out.read_text())
    want_header, want_columns, want_rows = _split((DATA / f"{name}.csv").read_text())
    assert got_columns == want_columns
    assert got_header.keys() == want_header.keys()
    for key, want in want_header.items():
        assert _agrees(key, got_header[key], want), (key, got_header[key], want)
    assert len(got_rows) == len(want_rows)
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        for column, g, w in zip(want_columns, got, want):
            assert _agrees(column, g, w), (i, column, g, w)
