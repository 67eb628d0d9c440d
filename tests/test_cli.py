import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from donor_halo import cli, polarization


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    if capsys is None:
        return code, ""
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(path):
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append(line)
    columns = rows[0].split(",")
    data = np.array([[float(cell) for cell in row.split(",")] for row in rows[1:]])
    return header, columns, data


def test_materials_listing(capsys):
    code, out = run_cli("materials", capsys=capsys)
    assert code == 0
    assert "GaAs:As75" in out and len(out.splitlines()) == 8


def test_materials_dump(capsys):
    code, out = run_cli("materials", "--material", "GaAs:As75", capsys=capsys)
    assert code == 0
    assert out.startswith("[GaAs:As75]")
    assert "b_q = 2.800000e-10" in out


def test_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    code, _ = run_cli("profile", "--out", str(out))
    assert code == 0
    header, columns, data = read_csv(out)
    assert columns == ["r", "p_parallel", "p_perpendicular", "p_avg"]
    assert data.shape == (120, 4)
    assert np.all(np.isfinite(data))
    joined = "\n".join(header)
    assert "# material = GaAs:As75" in joined
    assert "# donor-halo" in joined
    assert "calibrated_D" in joined
    assert "rho_q" in joined


def test_profile_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("profile", "--out", str(a))[0] == 0
    assert run_cli("profile", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_power_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("power", "--points", "11", "--out", str(a))[0] == 0
    assert run_cli("power", "--points", "11", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_profile_crossings_from_default_run(tmp_path):
    out = tmp_path / "profile.csv"
    run_cli("profile", "--out", str(out), "--points", "600", "--r-min", "0.05",
            "--r-max", "1.0")
    _, _, data = read_csv(out)
    r = data[:, 0]
    par_cross = r[np.argmin(np.abs(data[:, 1] - 0.5))]
    perp_cross = r[np.argmin(np.abs(data[:, 2] - 0.5))]
    avg_cross = r[np.argmin(np.abs(data[:, 3] - 0.5))]
    assert abs(par_cross - 0.25) <= 0.03
    assert abs(perp_cross - 0.45) <= 0.03
    assert abs(avg_cross - 0.35) <= 0.01


def test_radius_csv(tmp_path):
    out = tmp_path / "radius.csv"
    assert run_cli("radius", "--points", "9", "--out", str(out))[0] == 0
    _, columns, data = read_csv(out)
    assert columns == ["f0", "rho_q", "s_rho_q"]
    assert np.all(np.diff(data[:, 1]) > 0.0)
    assert np.all(np.diff(data[:, 2]) > 0.0)


def test_power_csv_near_reference_scale(tmp_path):
    out = tmp_path / "power.csv"
    assert run_cli("power", "--out", str(out))[0] == 0
    header, columns, data = read_csv(out)
    assert columns == ["p_over_p0", "occupancy", "nf_over_na", "s_rho_q",
                       "alpha_n", "diffusion_flag"]
    assert np.all(np.isfinite(data))
    i0 = int(np.argmin(np.abs(data[:, 0] - 1.0)))
    assert abs(data[i0, 1] - 0.5) <= 0.1
    assert "# p0_W_per_m2" in "\n".join(header)


def test_svg_outputs(tmp_path):
    for command in ("profile", "radius", "power"):
        out = tmp_path / f"{command}.svg"
        assert run_cli(command, "--format", "svg", "--out", str(out))[0] == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text


def test_validity_report(capsys):
    code, out = run_cli("validity", capsys=capsys)
    assert code == 0
    assert "regime report" in out and "warnings: none" in out


def test_set_override_recorded(tmp_path):
    out = tmp_path / "profile.csv"
    code, _ = run_cli("profile", "--set", "bohr_radius=1.0e-8", "--out", str(out))
    assert code == 0
    assert "# override bohr_radius = 1e-08" in out.read_text()


def test_config_file(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("[run]\nmaterial = GaAs:Ga69\nf0 = 0.02\n")
    out = tmp_path / "profile.csv"
    code, _ = run_cli("profile", "--config", str(config), "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "# material = GaAs:Ga69" in text
    assert "# f0 = 0.02" in text


def test_usage_errors(capsys):
    assert run_cli("materials", "--material", "Unobtainium")[0] == 2
    assert run_cli("profile", "--set", "epsilon=abc")[0] == 2
    assert run_cli("profile", "--set", "banana=3")[0] == 2
    # a string the dump of the record could not hold on one line
    for value in ("note=x#y", "note=a\nb"):
        assert run_cli("materials", "--material", "GaAs:As75", "--set", value)[0] == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_numeric_error_exit_code(capsys):
    # A_STAR / f0 overflows; its log does not, so the radius has an answer
    assert run_cli("profile", "--f0", "1e-310")[0] == 0


def test_verify_single_suite(capsys):
    code, out = run_cli("verify", "--suite", "exact-oracles", capsys=capsys)
    assert code == 0
    assert "12/12 passed" in out


def test_verify_reports_documented_discrepancy(capsys):
    code, out = run_cli("verify", "--suite", "reference-numbers", capsys=capsys)
    # the quadrupolar-modified diffusion radius stays red by design; it is
    # the only failing check and is labelled as documented
    assert code == 4
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failing) == 1
    assert "diffusion-quad-modified" in failing[0]
    assert "documented discrepancy" in failing[0]


def test_verify_runs_each_named_suite_once(capsys):
    once = run_cli("verify", "--suite", "exact-oracles", "--suite", "reference-numbers",
                   capsys=capsys)
    twice = run_cli("verify", "--suite", "exact-oracles", "--suite", "reference-numbers",
                    "--suite", "exact-oracles", "--suite", "reference-numbers",
                    capsys=capsys)
    assert twice == once
    lines = once[1].splitlines()
    assert lines[-1] == "== total: 34/35 passed"
    suites = [line.split(":")[0] for line in lines if line.startswith("-- suite ")]
    assert suites == ["-- suite exact-oracles", "-- suite reference-numbers"]


def test_verify_suite_choices_match_checks():
    from donor_halo import checks
    assert cli.VERIFY_SUITES == tuple(sorted(checks.SUITES))


def test_verify_help_lists_suites(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--help"])
    assert err.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--suite {exact-oracles,properties,reference-numbers,telegraph-mc}" in out


@pytest.mark.parametrize("argv", [["profile", "--seed", "1"],
                                  ["validity", "--format", "report"],
                                  ["verify", "--material", "GaAs:As75"],
                                  ["verify", "--set", "epsilon=12"]])
def test_options_no_command_reads_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_takes_a_seed(capsys):
    def mc(seed):
        cli.main(["verify", "--suite", "telegraph-mc", "--dwell", "2000", "--seed", seed])
        return capsys.readouterr().out

    first = mc("1")
    assert "telegraph-mc/symmetric-dwell" in first
    assert mc("1") == first and mc("2") != first


#: the Monte Carlo lines of ``donor-halo verify`` at the shipped seed and
#: 1e6 dwell events; a change to the estimator must leave every digit
PINNED_TELEGRAPH_MC = """\
PASS telegraph-mc/symmetric-dwell: decay rel err 0.0023 (tol 0.05), amplitude dev \
0.00e+00, mean 2.15e-04 +- 2.03e-04, all lags within 3 sigma: True
PASS telegraph-mc/asymmetric-dwell: decay rel err 0.0052, amplitude within 3 sigma: True
-- suite telegraph-mc: 2/2 passed
== total: 2/2 passed
"""
PINNED_MC_CONVERGENCE = ("PASS properties/mc-convergence: mean abs error ratio "
                         "(16x dwells) = 0.202 (window [0.15, 0.6])")
#: the whole stdout of ``donor-halo verify`` with every default (exit 4: the
#: documented discrepancy stays red)
PINNED_VERIFY = Path(__file__).parent / "data" / "verify_default.txt"


def test_verify_monte_carlo_output_is_pinned(capsys):
    code, out = run_cli("verify", "--suite", "telegraph-mc", capsys=capsys)
    assert (code, out) == (0, PINNED_TELEGRAPH_MC)
    code, out = run_cli("verify", "--suite", "properties", capsys=capsys)
    assert code == 0
    assert PINNED_MC_CONVERGENCE in out.splitlines()
    code, out = run_cli("verify", capsys=capsys)
    assert (code, out) == (4, PINNED_VERIFY.read_text())


def test_verify_reports_a_raising_power_sweep_as_failed_checks(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("no sweep")

    monkeypatch.setattr(polarization, "power_sweep", broken)
    code, out = run_cli("verify", "--suite", "reference-numbers", capsys=capsys)
    # the three checks that read the sweep fail; the other 20 print their pinned line
    expect = []
    for line in PINNED_VERIFY.read_text().splitlines():
        name = re.match(r"(?:PASS|FAIL) reference-numbers/([-a-z0-9]+):", line)
        if name and name[1].startswith("sweep-"):
            expect.append(f"FAIL reference-numbers/{name[1]}: raised RuntimeError: no sweep")
        elif name:
            expect.append(line)
    expect += ["-- suite reference-numbers: 19/23 passed", "== total: 19/23 passed"]
    assert code == 4
    assert out.splitlines() == expect


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--suite", "bogus"])
    assert err.value.code == 2
    assert "argument --suite: invalid choice: 'bogus'" in capsys.readouterr().err


def test_console_script_entry_point():
    # the child imports the package this process imported, installed or not
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "donor_halo.cli", "--version"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "donor-halo" in result.stdout


def run_cli_err(*argv, capsys):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


def too_many(bound):
    """Counts past bound: one past it, past int64 and past the float range.

    None is ever allocated.  A refusal shows the last to 6 digits (SHOWN).
    """
    return [str(bound + 1), str(10**20), pytest.param(str(10**400), id="10**400")]


SHOWN = {str(10**400): "1.00000e+400"}


@pytest.mark.parametrize("dwell", ["3", "0", "-5", *too_many(10**8)])
def test_verify_rejects_too_few_dwell_events(dwell, capsys):
    code, err = run_cli_err("verify", "--suite", "telegraph-mc", "--dwell", dwell,
                            capsys=capsys)
    assert code == 2
    assert err == f"donor-halo: dwell must be in [128, 100000000], got {SHOWN.get(dwell, dwell)}\n"


def test_power_rejects_spin_half(capsys):
    code, err = run_cli_err("power", "--set", "spin=0.5", capsys=capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and "no quadrupole moment" in err


@pytest.mark.parametrize("item", ["velocity=nan", "velocity=inf", "spin=nan",
                                  "donor_density=-inf", "hyperfine_field_bohr=nan"])
def test_set_rejects_non_finite(item, capsys):
    code, err = run_cli_err("profile", "--set", item, capsys=capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert item.split("=")[0] in err


@pytest.mark.parametrize("command, key, value", [
    ("profile", "f0", "nan"),
    ("profile", "f0", "inf"),
    ("radius", "f0-min", "nan"),
    ("radius", "f0-max", "-inf"),
])
def test_non_finite_options_rejected(command, key, value, tmp_path, capsys):
    words = "positive and finite" if command == "radius" else "finite"
    out = tmp_path / "out.csv"
    code, err = run_cli_err(command, f"--{key}={value}", "--out", str(out),
                            capsys=capsys)
    assert code == 2
    assert err == f"donor-halo: {key} must be {words}, got {float(value)}\n"
    assert not out.exists()


def test_config_rejects_bad_option_value(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("[run]\nf0 = abc\n")
    code, err = run_cli_err("profile", "--config", str(config), capsys=capsys)
    assert code == 2
    assert err == "donor-halo: bad value for f0: 'abc'\n"


@pytest.mark.parametrize("command", ["profile", "radius", "power"])
@pytest.mark.parametrize("points", ["0", "-1", *too_many(10**6)])
def test_points_below_one_rejected(command, points, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, err = run_cli_err(command, "--points", points, "--out", str(out), capsys=capsys)
    assert code == 2
    assert err == f"donor-halo: points must be in [1, 1000000], got {SHOWN.get(points, points)}\n"
    assert not out.exists()


@pytest.mark.parametrize("f0_min, f0_max", [("1e-12", "1e-10"), ("1e9", "1e10")])
def test_radius_outside_the_starting_bracket(f0_min, f0_max, tmp_path, capsys):
    # both ranges put rho_q outside [1e-3, 8] a0*; they used to exit 3
    out = tmp_path / "radius.csv"
    code, err = run_cli_err("radius", "--f0-min", f0_min, "--f0-max", f0_max,
                            "--points", "3", "--out", str(out), capsys=capsys)
    assert code == 0 and err == ""
    _, _, data = read_csv(out)
    assert data.shape == (3, 3) and np.all(np.isfinite(data))
    assert np.all(np.diff(data[:, 1]) > 0.0)


@pytest.mark.parametrize("command, key", [
    ("radius", "f0-min"), ("radius", "f0-max"), ("power", "p-min"), ("power", "p-max")])
def test_grid_ends_must_be_positive(command, key, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, err = run_cli_err(command, f"--{key}", "0", "--out", str(out), capsys=capsys)
    assert code == 2
    assert err == f"donor-halo: {key} must be positive and finite, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--r", "1e-200"], ["--r", "1e-100"],
                                  ["--set", "local_field=1e300"]])
def test_validity_local_fields_out_of_float_range_exits_3(argv, capsys):
    # at r = 1e-200 a0* the Coulomb field itself overflows, elsewhere its square
    what = "Coulomb field in V/m" if argv[1] == "1e-200" else "squared local fields in T^2"
    code, err = run_cli_err("validity", *argv, capsys=capsys)
    assert code == 3
    assert err.startswith(f"donor-halo: numerical failure: {what} (check r")
    assert err.endswith(" must be non-negative and finite, got inf\n")
    assert len(err.splitlines()) == 1


def test_validity_threshold_out_of_float_range_exits_3(capsys):
    # the local fields still fit in floats here; (eta / r)^5 does not
    code, err = run_cli_err("validity", "--r", "1e-70", capsys=capsys)
    assert code == 3
    assert err.startswith("donor-halo: numerical failure: spin-temperature field")
    assert len(err.splitlines()) == 1


def test_power_below_the_occupancy_bracket_exits_3(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, err = run_cli_err("power", "--p-min", "1e-30", "--out", str(out), capsys=capsys)
    assert code == 3
    assert err.startswith("donor-halo: numerical failure: power ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_power_whose_power_map_overflows_exits_3_naming_the_overflow(tmp_path, capsys):
    # the power map passes the float range at every occupancy; the refusal
    # says so instead of calling the requested power "below inf"
    out = tmp_path / "out.csv"
    code, err = run_cli_err("power", "--set", "acceptor_density=1e300", "--out", str(out),
                            capsys=capsys)
    assert code == 3
    assert "below inf" not in err and "acceptor_density" in err and err.endswith("got inf\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_power_whose_derived_power_underflows_exits_3_naming_the_fields(tmp_path, capsys):
    # P/P0 * P0 underflows to 0 although the user gave no power: a derived
    # value out of the float range is a numerical failure, not a usage error
    out = tmp_path / "out.csv"
    code, err = run_cli_err("power", "--set", "diffusion_length=1e-300",
                            "--set", "photon_energy=1e-300", "--out", str(out), capsys=capsys)
    assert code == 3
    assert all(field in err for field in ("diffusion_length", "photon_energy", "bimolecular_k",
                                          "acceptor_density", "donor_density"))
    assert err.endswith("got 0.0\n") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[run]\nf0\n", "expected 'key = value'"),
    ("f0 = 0.02\n# comment\nnot a pair\n", "expected 'key = value'"),
])
def test_config_syntax_errors(text, message, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(text)
    lineno = len(text.splitlines())
    code, err = run_cli_err("profile", "--config", str(config), capsys=capsys)
    assert code == 2
    assert err == f"donor-halo: {config}:{lineno}: {message}\n"


def test_validity_out_of_float_range_exits_3(capsys):
    # eta^5 grows as d / B_L and passes the float range here, so the
    # spin-temperature radius has no float value; that must stay a
    # one-line numerical failure
    code, err = run_cli_err("validity", "--set", "local_field=1e-300",
                            "--set", "neighbor_spacing=1e300", capsys=capsys)
    assert code == 3
    assert err.startswith("donor-halo: numerical failure:") and len(err.splitlines()) == 1
    assert "spin-temperature radius eta" in err


@pytest.mark.parametrize("override", ["bohr_radius=1e80", "local_field=1e-300"])
def test_validity_answers_where_eta_is_finite(override, capsys):
    # eta holds no a0*, and a tiny B_L leaves eta^5 in the float range
    code, out = run_cli("validity", "--set", override, capsys=capsys)
    assert code == 0 and out.startswith("regime report")
    assert not re.search(r"\b(inf|nan)\b", out)


@pytest.mark.parametrize("argv", [
    ["profile", "--set", "hyperfine_field_bohr=1e308"],  # calibrated D overflows
    ["validity", "--field", "1e308"],      # w1*tau overflows
    ["validity", "--field", "1e300"],      # wH*tau overflows while w1*tau stays finite
])
def test_non_finite_results_exit_3_and_write_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code, err = run_cli_err(*argv, "--out", str(out), capsys=capsys)
    assert code == 3
    assert err.startswith("donor-halo: numerical failure: ")
    assert err.endswith(" is not finite; nothing was written\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["profile", "--r-min", "1e-300"],      # s(r) underflows to 0 there
    ["profile", "--r-max", "1e308"],       # e^{-4(r-1)} r^4 is 0 * inf there
    ["radius", "--f0-min", "1e-200"],      # rho_q ~ 4e-100, where s(r) underflows
    ["profile", "--f0", "1e-200"],
])
def test_phi_in_log_form_answers_every_float(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, err = run_cli_err(*argv, "--out", str(out), capsys=capsys)
    assert code == 0 and err == ""
    header, _, data = read_csv(out)
    assert data.size and np.all(np.isfinite(data)) and np.all(data >= 0.0)
    assert not re.search(r"\b(nan|inf)\b", "\n".join(header), re.IGNORECASE)


def test_profile_where_f0_phi_overflows_is_fully_polarized(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, err = run_cli_err("profile", "--f0", "1e308", "--out", str(out), capsys=capsys)
    assert code == 0 and err == ""
    header, _, data = read_csv(out)
    assert np.all(data[:, 1:] == 1.0)
    assert "# rho_q = 183.361984" in header


@pytest.mark.parametrize("argv, code, message", [
    (["validity", "--set", "velocity=1e-300"], 3, "free-electron density"),
    (["profile", "--set", "bohr_radius=1e-200"], 3, "Coulomb field"),
    (["power", "--set", "gamma=5e-324"], 2, "coupling ratio b_q"),
    (["profile", "--set", "spin=1e308"], 2, "spin must be a positive half-integer"),
])
def test_extreme_record_values_end_in_one_line(argv, code, message, capsys):
    status, err = run_cli_err(*argv, capsys=capsys)
    assert status == code
    assert len(err.splitlines()) == 1 and message in err


def test_verify_rejects_dwell_below_the_floor(capsys):
    # 10 dwells used to reach symmetric-dwell and report "raised MaterialError"
    code, err = run_cli_err("verify", "--suite", "telegraph-mc", "--dwell", "10",
                            capsys=capsys)
    assert code == 2
    assert err == "donor-halo: dwell must be in [128, 100000000], got 10\n"


def test_verify_at_the_dwell_floor_raises_nowhere(capsys):
    cli.main(["verify", "--suite", "telegraph-mc", "--dwell", str(cli.MIN_DWELL)])
    lines = capsys.readouterr().out.splitlines()
    results = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert len(results) == 2
    assert not any("raised" in line for line in results)


#: one value for each declared option, as typed on the command line
OPTION_VALUES = {
    "material": "GaAs:Ga69", "format": "svg", "f0": "0.03", "r-min": "0.1", "r-max": "2.5",
    "points": "7", "f0-min": "1e-3", "f0-max": "0.5", "p-min": "0.5", "p-max": "20",
    "no-quadrupolar": "true", "field": "2.0", "r": "0.8", "occupancy": "0.3",
    "margin": "5", "seed": "3", "suite": "reference-numbers", "dwell": "2000",
}
#: options that keep each run small; the option under test replaces its own
BASE_OPTIONS = {
    "profile": {"points": "5"}, "radius": {"points": "5"}, "power": {"points": "5"},
    "validity": {}, "verify": {"suite": "telegraph-mc", "dwell": "2000"}, "materials": {},
}
DECLARED = [(command, opt.name) for command, (_, options) in cli._COMMANDS.items()
            for opt in options]


def test_every_declared_option_has_a_value_to_try():
    assert {name for _, name in DECLARED} == set(OPTION_VALUES) | {"out"}


def test_every_numeric_option_has_an_interval():
    # a number from the command line or a config file passes numerics.require
    # like every number of the library; a new option cannot skip that guard
    unguarded = [(command, opt.name) for command, (_, options) in cli._COMMANDS.items()
                 for opt in options if opt.parse in (float, int) and opt.interval is None]
    assert unguarded == []


def run_cli_all(*argv, capsys):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, name", [pair for pair in DECLARED if pair[1] != "out"])
def test_config_and_command_line_give_the_same_output(command, name, tmp_path, capsys):
    base = [command] + [f"--{key}={value}" for key, value in BASE_OPTIONS[command].items()
                        if key != name]
    value = OPTION_VALUES[name]
    flag = [f"--{name}"] if value == "true" else [f"--{name}={value}"]
    config = tmp_path / "run.conf"
    config.write_text(f"{name} = {value}\n")
    from_line = run_cli_all(*base, *flag, capsys=capsys)
    assert run_cli_all(*base, "--config", str(config), capsys=capsys) == from_line
    assert run_cli_all(*base, capsys=capsys) != from_line


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_config_out_writes_where_the_command_line_does(command, tmp_path, capsys):
    base = [command] + [f"--{key}={value}" for key, value in BASE_OPTIONS[command].items()]
    config = tmp_path / "run.conf"
    config.write_text(f"out = {tmp_path / 'b.txt'}\n")
    code = run_cli(*base, "--out", str(tmp_path / "a.txt"), capsys=capsys)
    assert run_cli(*base, "--config", str(config), capsys=capsys) == code
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_config_flag_true_is_applied(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("no-quadrupolar = true\n")
    code, out = run_cli("power", "--points", "3", "--config", str(config), capsys=capsys)
    assert code == 0 and "# quadrupolar = False" in out.splitlines()


@pytest.mark.parametrize("command, text, message", [
    ("profile", "format = pdf\n", "bad value for format: 'pdf'"),
    ("power", "no-quadrupolar = 1\n", "bad value for no-quadrupolar: '1'"),
    ("profile", "r_min = 1.0\n", "unknown material field: r_min"),
    ("profile", "set = f0=3\n", "unknown material field: set"),
    ("verify", "seed = 1e3\n", "bad value for seed: '1e3'"),
    ("verify", "suite = bogus\n", "bad value for suite: 'bogus'"),
    ("profile", "seed = 1\n", "unknown material field: seed"),
    ("validity", "format = svg\n", "unknown material field: format"),
    ("profile", b"\xff\xfe\x00", "cannot read config "),
    ("verify", "epsilon = 12\n", "unknown option of verify: epsilon"),
    ("verify", "material = GaAs:Ga69\n", "unknown option of verify: material"),
    ("materials", "epsilon = 12\n", "material overrides need --material"),
])
def test_config_keys_are_never_ignored(command, text, message, tmp_path, capsys):
    config = tmp_path / "run.conf"
    if isinstance(text, bytes):
        config.write_bytes(text)
    else:
        config.write_text(text)
    code, err = run_cli_err(command, "--config", str(config), capsys=capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"donor-halo: {message}")


def test_materials_list_refuses_overrides(capsys):
    # without --material there is no record for --set to change
    code, err = run_cli_err("materials", "--set", "epsilon=12", capsys=capsys)
    assert (code, err) == (2, "donor-halo: material overrides need --material; "
                              "the registry list takes none\n")


def test_verify_rejects_a_negative_seed(capsys):
    # numpy's generators refuse it; it used to surface as three failed checks
    code, err = run_cli_err("verify", "--seed", "-1", capsys=capsys)
    assert (code, err) == (2, "donor-halo: seed must be at least 0, got -1\n")
