"""Command-line driver.

    donor-halo <command> [--material NAME] [--config FILE] [--set key=value]...
               [--out PATH] [--format csv|svg] [options]

Commands
--------
profile    polarization profile curves (columns r, p_parallel,
           p_perpendicular, p_avg)
radius     quadrupolar radius versus the competition amplitude
           (columns f0, rho_q, s_rho_q)
power      excitation-power sweep (columns p_over_p0, occupancy,
           nf_over_na, s_rho_q, alpha_n, diffusion_flag)
validity   regime report for one operating point
verify     run the verification suites (--seed N seeds the Monte Carlo);
           nonzero exit on any failure
materials  list the registry, or dump one record with --material

Each option is declared once, in ``_COMMANDS``.  Its value comes from the
command line, else the ``--config`` file, else its default, with the same
parsing and messages; a number must lie in the option's interval, which
``numerics.require`` checks as it checks every number of the library.  A
config key is an option of the command, spelled as on the command line
(flags take ``true`` or ``false``), or a material field of a command that
reads a record (all but ``verify``); any other key exits 2.

Exit codes: 0 success, 2 usage error, 3 numerical failure,
4 verification failure.  CSV outputs carry a '#' metadata header and
are byte-identical for identical configuration.  ``--format`` applies to
profile, radius and power.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__, kinetics, polarization, svgplot, validity
from .errors import DonorHaloError, MaterialError, NumericalError
from .fields import Geometry
from .materials import (MaterialRecord, coerce_field, dump_record, get_material,
                        key_value_lines, list_materials)
from .numerics import FINITE, POSITIVE_FINITE, require

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

#: the keys of checks.SUITES, kept here so that building the parser does
#: not import the verification suites and their oracles
VERIFY_SUITES = ("exact-oracles", "properties", "reference-numbers", "telegraph-mc")
#: fewest dwell events ``verify`` accepts.  symmetric-dwell samples its unit
#: mean dwells 5 times per unit time and needs 64 blocks + 31 lags = 95
#: samples, i.e. a total time of 19; a sum of 128 unit exponentials stays
#: below 19 with probability P(Gamma(128, 1) < 19) = 8e-61.  The other
#: Monte Carlo checks do not shrink with the count: asymmetric-dwell draws
#: max(n // 5, 10000) dwells, and properties/mc-convergence draws a fixed
#: 16000 and 256000.
MIN_DWELL = 128
#: counts a run may ask for; at the top a run takes seconds and some 100 MB
_POINTS = (1, 10**6, "in [1, 1000000]")
_DWELLS = (MIN_DWELL, 10**8, f"in [{MIN_DWELL}, 100000000]")


class Option(NamedTuple):
    """One option of one command, on the command line and in a config file."""

    name: str                              # as on the command line, without "--"
    parse: Callable[[str], object]         # text -> value; ValueError if malformed
    default: object
    help: str
    interval: tuple[float, float, str] | None = None  # numerics.require's
    choices: tuple[str, ...] | None = None
    repeat: bool = False                   # a list; one item per config key


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donor-halo",
        description="Nuclear polarization around shallow donors under light excitation.",
    )
    parser.add_argument("--version", action="version", version=f"donor-halo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        reads_record = any(opt.name == "material" for opt in options)
        p.add_argument("--config", help="file of key = value lines: options"
                       + (" or material fields" if reads_record else ""))
        if reads_record:
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="override a material field (repeatable)")
        for opt in options:
            text = opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"
            if opt.parse is _flag:
                p.add_argument(f"--{opt.name}", action="store_true", default=None, help=text)
            else:
                p.add_argument(f"--{opt.name}", type=opt.parse, choices=opt.choices,
                               action="append" if opt.repeat else "store", help=text)
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MaterialError(f"cannot read config {path}: {exc}") from exc
    # registry-style file: optional [run] (or any single block) header,
    # key = value lines, '#' comments
    return {key: value for _, header, key, value in key_value_lines(text, path)
            if header is None}


def _from_config(opt: Option, text: str) -> object:
    try:
        value = opt.parse(text)
        if opt.choices is not None and value not in opt.choices:
            raise ValueError(text)
    except ValueError as exc:
        raise MaterialError(f"bad value for {opt.name}: {text!r}") from exc
    return [value] if opt.repeat else value


def _resolve(args: argparse.Namespace, config: dict[str, str]) -> dict[str, object]:
    """Set each option in ``args``: command line, else config file, else default.

    Returns the material overrides: the config keys that are not options
    of the command, then each ``--set``.
    """
    options = _COMMANDS[args.command][1]
    names = {opt.name for opt in options}
    fields = [key for key in config if key not in names]
    if fields and "material" not in names:      # the command reads no record
        raise MaterialError(f"unknown option of {args.command}: {fields[0]}")
    overrides = {key: coerce_field(key, config[key]) for key in fields}
    for opt in options:
        dest = opt.name.replace("-", "_")
        value = getattr(args, dest)
        if opt.name in config:
            configured = _from_config(opt, config[opt.name])
            value = configured if value is None else value
        if value is None:
            value = opt.default
        if opt.interval is not None:
            require(value, opt.name, opt.interval)
        setattr(args, dest, value)
    for item in getattr(args, "set", ()):
        if "=" not in item:
            raise MaterialError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = coerce_field(key, value)
    return overrides


def _material(args: argparse.Namespace, overrides: dict[str, object]) -> MaterialRecord:
    mat = get_material(args.material)
    return mat.with_overrides(**overrides) if overrides else mat


def _require_finite(**numbers) -> None:
    """NumericalError (exit 3) unless every number (float or array) to be written is finite."""
    for name, value in numbers.items():
        if not np.all(np.isfinite(value)):
            raise NumericalError(f"{name} is not finite; nothing was written")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _csv(header: list[str], columns: dict[str, Sequence[object]]) -> str:
    out = [*header, ",".join(columns)]
    for row in zip(*columns.values()):
        cells = []
        for cell in row:
            if isinstance(cell, np.bool_):
                cells.append("1" if cell else "0")
            else:
                cells.append(f"{float(cell):.12g}")
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _calibrated_diffusion(mat: MaterialRecord) -> str:
    if mat.hyperfine_field_bohr is None:
        return "n/a (record has no hyperfine field)"
    state = kinetics.state_for_occupancy(0.5, mat)
    diffusion = polarization.calibrate_diffusion(state, 0.1, mat)
    _require_finite(calibrated_D=diffusion)
    return f"{diffusion:.9g}"


def _sweep_output(args: argparse.Namespace, mat: MaterialRecord,
                  overrides: dict[str, object], columns: dict[str, np.ndarray],
                  options: dict[str, object], derived: dict[str, float],
                  series: list[tuple[str, str, str]], **labels) -> tuple[str, int]:
    """The tail of profile, radius and power: refuse, then write SVG or CSV.

    The columns, then the derived values, then calibrated_D must be
    finite.  The CSV header prints ``options`` as given and ``derived``
    to 9 digits; the SVG plots each (x column, y column, label) of
    ``series`` under ``labels``.
    """
    _require_finite(**columns, **derived)
    options = {**options, **{key: f"{value:.9g}" for key, value in derived.items()},
               "calibrated_D": _calibrated_diffusion(mat)}
    if args.format == "svg":
        return svgplot.line_chart([(columns[x], columns[y], label) for x, y, label in series],
                                  **labels), EXIT_OK
    header = [f"# donor-halo {__version__}", f"# command = {args.command}",
              f"# material = {mat.name}"]
    header += [f"# override {key} = {overrides[key]}" for key in sorted(overrides)]
    header += [f"# {key} = {options[key]}" for key in sorted(options)]
    return _csv(header, columns), EXIT_OK


def _cmd_profile(args: argparse.Namespace, overrides: dict[str, object]) -> tuple[str, int]:
    """polarization profile curves"""
    mat = _material(args, overrides)
    grid = np.linspace(args.r_min, args.r_max, args.points)
    prof = polarization.profile(args.f0, grid)
    return _sweep_output(
        args, mat, overrides,
        {"r": grid, "p_parallel": prof.p_parallel,
         "p_perpendicular": prof.p_perpendicular, "p_avg": prof.p_avg},
        {"f0": args.f0, "r_min": args.r_min, "r_max": args.r_max, "points": args.points},
        derived={"rho_q": prof.rho_q, "s_rho_q": prof.s_at_rho_q},
        series=[("r", "p_parallel", "parallel"), ("r", "p_perpendicular", "perpendicular"),
                ("r", "p_avg", "sphere average")],
        xlabel="distance (a0* units)", ylabel="normalized polarization",
        title=f"{mat.name}: polarization profile, f0={args.f0:g}")


def _cmd_radius(args: argparse.Namespace, overrides: dict[str, object]) -> tuple[str, int]:
    """quadrupolar radius sweep"""
    mat = _material(args, overrides)
    table = polarization.radius_sweep(np.geomspace(args.f0_min, args.f0_max, args.points))
    return _sweep_output(
        args, mat, overrides, dict(zip(("f0", "rho_q", "s_rho_q"), table.T)),
        {"f0_min": args.f0_min, "f0_max": args.f0_max, "points": args.points}, derived={},
        series=[("f0", "rho_q", "rho_q (a0*)"), ("f0", "s_rho_q", "s(rho_q)")],
        xlabel="competition amplitude f0", ylabel="radius / screening",
        title=f"{mat.name}: quadrupolar radius", logx=True, logy=True)


def _cmd_power(args: argparse.Namespace, overrides: dict[str, object]) -> tuple[str, int]:
    """excitation-power sweep"""
    mat = _material(args, overrides)
    quad_on = not args.no_quadrupolar
    sweep = polarization.power_sweep(np.geomspace(args.p_min, args.p_max, args.points), mat,
                                     quadrupolar=quad_on)
    return _sweep_output(
        args, mat, overrides,
        {name: getattr(sweep, name) for name in (
            "p_over_p0", "occupancy", "nf_over_na", "s_rho_q", "alpha_n", "diffusion_flag")},
        {"p_min": args.p_min, "p_max": args.p_max, "points": args.points,
         "quadrupolar": quad_on},
        derived={"f00": sweep.f00, "p0_W_per_m2": kinetics.power_scale(mat),
                 "rho_d_cap": sweep.rho_d},
        series=[("p_over_p0", "occupancy", "occupancy"), ("p_over_p0", "nf_over_na", "n_f / N_A"),
                ("p_over_p0", "s_rho_q", "s(rho_q)"), ("p_over_p0", "alpha_n", "alpha_n")],
        xlabel="excitation power (P0 units)", ylabel="dimensionless",
        title=f"{mat.name}: power dependence", logx=True, logy=True)


def _cmd_validity(args: argparse.Namespace, overrides: dict[str, object]) -> tuple[str, int]:
    """regime report for one operating point"""
    mat = _material(args, overrides)
    state = kinetics.state_for_occupancy(args.occupancy, mat)
    report = validity.build_report(args.field, args.r, state, Geometry(), mat,
                                   margin=args.margin)
    _require_finite(**{key: value for key, value in vars(report).items()
                       if isinstance(value, float)})
    return validity.render_report(report, mat), EXIT_OK


def _cmd_verify(args: argparse.Namespace, overrides: dict[str, object]) -> tuple[str, int]:
    """run the verification suites"""
    from . import checks   # loads the oracles

    results = checks.run_suites(args.suite, seed=args.seed, n_dwell=args.dwell)
    lines = []
    for suite, group in itertools.groupby(results, key=lambda r: r.suite):
        items = list(group)
        for res in items:
            mark = "PASS" if res.ok else "FAIL"
            note = ""
            if not res.ok and (suite, res.name) in checks.EXPECTED_FAILURES:
                note = " [documented discrepancy]"
            lines.append(f"{mark} {suite}/{res.name}: {res.detail}{note}")
        ok_count = sum(1 for r in items if r.ok)
        lines.append(f"-- suite {suite}: {ok_count}/{len(items)} passed")
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"== total: {len(results) - failed}/{len(results)} passed")
    return "\n".join(lines) + "\n", EXIT_OK if failed == 0 else EXIT_VERIFY


def _cmd_materials(args: argparse.Namespace, overrides: dict[str, object]) -> tuple[str, int]:
    """list records or dump one"""
    if args.material:
        return dump_record(_material(args, overrides)), EXIT_OK
    if overrides:
        raise MaterialError("material overrides need --material; the registry list takes none")
    return "\n".join(list_materials()) + "\n", EXIT_OK


_OUT = Option("out", str, None, "output path (default: stdout)")
_COMPUTE = (Option("material", str, "GaAs:As75", "registry record name"), _OUT)
_FORMAT = Option("format", str, "csv", "output format", choices=("csv", "svg"))


def _grid_points(default: int) -> Option:
    return Option("points", int, default, "grid points", _POINTS)


_COMMANDS: dict[str, tuple[Callable[..., tuple[str, int]], tuple[Option, ...]]] = {
    "profile": (_cmd_profile, (
        *_COMPUTE, _FORMAT,
        Option("f0", float, 1e-2, "competition amplitude", FINITE),
        Option("r-min", float, 0.05, "first distance, a0* units", FINITE),
        Option("r-max", float, 3.0, "last distance, a0* units", FINITE),
        _grid_points(120))),
    "radius": (_cmd_radius, (
        *_COMPUTE, _FORMAT,
        Option("f0-min", float, 1e-4, "lowest competition amplitude", POSITIVE_FINITE),
        Option("f0-max", float, 1.0, "highest competition amplitude", POSITIVE_FINITE),
        _grid_points(25))),
    "power": (_cmd_power, (
        *_COMPUTE, _FORMAT,
        Option("p-min", float, 0.1, "lowest power, P0 units", POSITIVE_FINITE),
        Option("p-max", float, 100.0, "highest power, P0 units", POSITIVE_FINITE),
        _grid_points(31),
        Option("no-quadrupolar", _flag, False,
               "disable the quadrupolar channel (diffusion ceiling only)"))),
    "validity": (_cmd_validity, (
        *_COMPUTE,
        Option("field", float, 1.0, "magnetic field, T", FINITE),
        Option("r", float, 0.5, "distance, a0* units", FINITE),
        Option("occupancy", float, 0.5, "donor occupancy", FINITE),
        Option("margin", float, 10.0, "high-field margin", FINITE))),
    "verify": (_cmd_verify, (
        _OUT,
        Option("seed", int, 20260810, "Monte Carlo seed", (0, math.inf, "at least 0")),
        Option("suite", str, None, "run only this suite (repeatable; default: all)",
               choices=VERIFY_SUITES, repeat=True),
        Option("dwell", int, 1_000_000, f"Monte Carlo dwell events, {_DWELLS[2]}",
               _DWELLS))),
    "materials": (_cmd_materials, (
        Option("material", str, None, "record to dump (default: list the registry)"),
        _OUT)),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        overrides = _resolve(args, config)
        # numpy's overflow and invalid-value warnings stay silent: a result
        # they would flag is non-finite, and _require_finite refuses it
        with np.errstate(all="ignore"):
            text, code = _COMMANDS[args.command][0](args, overrides)
        _write(text, args.out)
        return code
    except NumericalError as exc:
        print(f"donor-halo: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DonorHaloError as exc:
        print(f"donor-halo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"donor-halo: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
