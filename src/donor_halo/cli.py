"""Command-line driver.

    donor-halo <command> [--material NAME] [--config FILE] [--set key=value]...
               [--out PATH] [--format csv|svg|report] [--seed N] [options]

Commands
--------
profile    polarization profile curves (columns r, p_parallel,
           p_perpendicular, p_avg)
radius     quadrupolar radius versus the competition amplitude
           (columns f0, rho_q, s_rho_q)
power      excitation-power sweep (columns p_over_p0, occupancy,
           nf_over_na, s_rho_q, alpha_n, diffusion_flag)
validity   regime report for one operating point
verify     run the verification suites; nonzero exit on any failure
materials  list the registry, or dump one record with --material

Exit codes: 0 success, 2 usage error, 3 numerical failure,
4 verification failure.  CSV outputs carry a '#' metadata header and
are byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__, kinetics, polarization, svgplot, validity
from .errors import DonorHaloError, MaterialError, NumericalError
from .fields import Geometry
from .materials import (MaterialRecord, coerce_field, dump_record, get_material,
                        key_value_lines, list_materials)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_CONFIG_KEYS = ("material", "out", "format", "seed")

#: the keys of checks.SUITES, kept here so that building the parser does
#: not import the verification suites and their oracles
VERIFY_SUITES = ("exact-oracles", "properties", "reference-numbers", "telegraph-mc")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donor-halo",
        description="Nuclear polarization around shallow donors under light excitation.",
    )
    parser.add_argument("--version", action="version", version=f"donor-halo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--material", default=None, help="registry record name")
        p.add_argument("--config", default=None, help="config file (registry format)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a material field (repeatable)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="random seed")

    p = sub.add_parser("profile", help="polarization profile curves")
    common(p)
    p.add_argument("--format", choices=("csv", "svg"), default=None)
    p.add_argument("--f0", type=float, default=None,
                   help="competition amplitude (default 1e-2)")
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)

    p = sub.add_parser("radius", help="quadrupolar radius sweep")
    common(p)
    p.add_argument("--format", choices=("csv", "svg"), default=None)
    p.add_argument("--f0-min", type=float, default=None)
    p.add_argument("--f0-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)

    p = sub.add_parser("power", help="excitation-power sweep")
    common(p)
    p.add_argument("--format", choices=("csv", "svg"), default=None)
    p.add_argument("--p-min", type=float, default=None, help="lowest power, P0 units")
    p.add_argument("--p-max", type=float, default=None, help="highest power, P0 units")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--no-quadrupolar", action="store_true",
                   help="disable the quadrupolar channel (diffusion ceiling only)")

    p = sub.add_parser("validity", help="regime report for one operating point")
    common(p)
    p.add_argument("--format", choices=("report",), default=None)
    p.add_argument("--field", type=float, default=None, help="magnetic field, T")
    p.add_argument("--r", type=float, default=None, help="distance, a0* units")
    p.add_argument("--occupancy", type=float, default=None)
    p.add_argument("--margin", type=float, default=None,
                   help="high-field margin (default 10)")

    p = sub.add_parser("verify", help="run the verification suites")
    common(p)
    p.add_argument("--suite", action="append", default=None,
                   choices=VERIFY_SUITES, help="run only this suite (repeatable)")
    p.add_argument("--dwell", type=int, default=None,
                   help="Monte Carlo dwell events (default 1000000, at least 128)")

    p = sub.add_parser("materials", help="list records or dump one")
    common(p)
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MaterialError(f"cannot read config {path}: {exc}") from exc
    # registry-style file: optional [run] (or any single block) header,
    # key = value lines, '#' comments
    return {key: value for _, header, key, value in key_value_lines(text, path)
            if header is None}


def _resolve_material(args: argparse.Namespace,
                      config: dict[str, str]) -> tuple[MaterialRecord, dict[str, object]]:
    name = args.material or config.get("material") or "GaAs:As75"
    mat = get_material(name)
    overrides: dict[str, object] = {}
    for key, value in config.items():
        if key in _CONFIG_KEYS or _is_option_key(args, key):
            continue
        overrides[key] = coerce_field(key, value)
    for item in args.set:
        if "=" not in item:
            raise MaterialError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = coerce_field(key, value)
    return (mat.with_overrides(**overrides) if overrides else mat), overrides


def _is_option_key(args: argparse.Namespace, key: str) -> bool:
    return key.replace("-", "_") in vars(args)


def _option(args: argparse.Namespace, config: dict[str, str], key: str,
            default, cast=float):
    value = getattr(args, key.replace("-", "_"), None)
    if value is None and key in config:
        try:
            value = cast(config[key])
        except ValueError as exc:
            raise MaterialError(f"bad value for {key}: {config[key]!r}") from exc
    if value is None:
        return default
    if isinstance(value, float) and not math.isfinite(value):
        raise MaterialError(f"{key} must be finite, got {value}")
    return value


def _grid_end(args: argparse.Namespace, config: dict[str, str], key: str,
              default: float) -> float:
    """An end of a logarithmic grid, which must be positive."""
    value = _option(args, config, key, default)
    if value <= 0.0:
        raise MaterialError(f"{key} must be positive, got {value}")
    return value


def _points(args: argparse.Namespace, config: dict[str, str], default: int) -> int:
    points = int(_option(args, config, "points", default, int))
    if points < 1:
        raise MaterialError(f"points must be at least 1, got {points}")
    return points


def _require_finite(**numbers) -> None:
    """NumericalError unless every number (float or array) is finite.

    Each command passes what it is about to write through here, so no
    output carries a nan or inf cell; the command exits 3 instead.
    """
    for name, value in numbers.items():
        if not np.all(np.isfinite(value)):
            raise NumericalError(f"{name} is not finite; nothing was written")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _metadata(command: str, mat: MaterialRecord, overrides: dict[str, object],
              options: dict[str, object]) -> list[str]:
    lines = [
        f"# donor-halo {__version__}",
        f"# command = {command}",
        f"# material = {mat.name}",
    ]
    for key in sorted(overrides):
        lines.append(f"# override {key} = {overrides[key]}")
    for key in sorted(options):
        lines.append(f"# {key} = {options[key]}")
    return lines


def _csv(header: list[str], columns: list[str], rows: list[Sequence[object]]) -> str:
    out = list(header)
    out.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (bool, np.bool_)):
                cells.append("1" if cell else "0")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
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


def _cmd_profile(args: argparse.Namespace, config: dict[str, str]) -> int:
    mat, overrides = _resolve_material(args, config)
    f0 = _option(args, config, "f0", 1e-2)
    r_min = _option(args, config, "r-min", 0.05)
    r_max = _option(args, config, "r-max", 3.0)
    points = _points(args, config, 120)
    fmt = _option(args, config, "format", "csv", str)
    grid = np.linspace(r_min, r_max, points)
    prof = polarization.profile(f0, grid)
    _require_finite(r=grid, p_parallel=prof.p_parallel, p_perpendicular=prof.p_perpendicular,
                    p_avg=prof.p_avg, rho_q=prof.rho_q, s_rho_q=prof.s_at_rho_q)
    options = {
        "f0": f0, "r_min": r_min, "r_max": r_max, "points": points,
        "rho_q": f"{prof.rho_q:.9g}", "s_rho_q": f"{prof.s_at_rho_q:.9g}",
        "calibrated_D": _calibrated_diffusion(mat),
    }
    if fmt == "svg":
        text = svgplot.line_chart(
            [(grid, prof.p_parallel, "parallel"),
             (grid, prof.p_perpendicular, "perpendicular"),
             (grid, prof.p_avg, "sphere average")],
            xlabel="distance (a0* units)", ylabel="normalized polarization",
            title=f"{mat.name}: polarization profile, f0={f0:g}")
    else:
        rows = list(zip(grid, prof.p_parallel, prof.p_perpendicular, prof.p_avg))
        text = _csv(_metadata("profile", mat, overrides, options),
                    ["r", "p_parallel", "p_perpendicular", "p_avg"], rows)
    _write(text, args.out or config.get("out"))
    return EXIT_OK


def _cmd_radius(args: argparse.Namespace, config: dict[str, str]) -> int:
    mat, overrides = _resolve_material(args, config)
    f0_min = _grid_end(args, config, "f0-min", 1e-4)
    f0_max = _grid_end(args, config, "f0-max", 1.0)
    points = _points(args, config, 25)
    fmt = _option(args, config, "format", "csv", str)
    table = polarization.radius_sweep(np.geomspace(f0_min, f0_max, points))
    _require_finite(f0=table[:, 0], rho_q=table[:, 1], s_rho_q=table[:, 2])
    options = {
        "f0_min": f0_min, "f0_max": f0_max, "points": points,
        "calibrated_D": _calibrated_diffusion(mat),
    }
    if fmt == "svg":
        text = svgplot.line_chart(
            [(table[:, 0], table[:, 1], "rho_q (a0*)"),
             (table[:, 0], table[:, 2], "s(rho_q)")],
            xlabel="competition amplitude f0", ylabel="radius / screening",
            title=f"{mat.name}: quadrupolar radius", logx=True, logy=True)
    else:
        text = _csv(_metadata("radius", mat, overrides, options),
                    ["f0", "rho_q", "s_rho_q"], [tuple(row) for row in table])
    _write(text, args.out or config.get("out"))
    return EXIT_OK


def _cmd_power(args: argparse.Namespace, config: dict[str, str]) -> int:
    mat, overrides = _resolve_material(args, config)
    p_min = _grid_end(args, config, "p-min", 0.1)
    p_max = _grid_end(args, config, "p-max", 100.0)
    points = _points(args, config, 31)
    fmt = _option(args, config, "format", "csv", str)
    quad_on = not args.no_quadrupolar
    sweep = polarization.power_sweep(np.geomspace(p_min, p_max, points), mat,
                                     quadrupolar=quad_on)
    p0 = kinetics.power_scale(mat)
    _require_finite(p_over_p0=sweep.p_over_p0, occupancy=sweep.occupancy,
                    nf_over_na=sweep.nf_over_na, s_rho_q=sweep.s_rho_q,
                    alpha_n=sweep.alpha_n, f00=sweep.f00, p0_W_per_m2=p0)
    options = {
        "p_min": p_min, "p_max": p_max, "points": points,
        "quadrupolar": quad_on,
        "p0_W_per_m2": f"{p0:.9g}",
        "f00": f"{sweep.f00:.9g}",
        "rho_d_cap": f"{sweep.rho_d:.9g}",
        "calibrated_D": _calibrated_diffusion(mat),
    }
    if fmt == "svg":
        text = svgplot.line_chart(
            [(sweep.p_over_p0, sweep.occupancy, "occupancy"),
             (sweep.p_over_p0, sweep.nf_over_na, "n_f / N_A"),
             (sweep.p_over_p0, sweep.s_rho_q, "s(rho_q)"),
             (sweep.p_over_p0, sweep.alpha_n, "alpha_n")],
            xlabel="excitation power (P0 units)", ylabel="dimensionless",
            title=f"{mat.name}: power dependence", logx=True, logy=True)
    else:
        rows = list(zip(sweep.p_over_p0, sweep.occupancy, sweep.nf_over_na,
                        sweep.s_rho_q, sweep.alpha_n, sweep.diffusion_flag))
        text = _csv(_metadata("power", mat, overrides, options),
                    ["p_over_p0", "occupancy", "nf_over_na", "s_rho_q",
                     "alpha_n", "diffusion_flag"], rows)
    _write(text, args.out or config.get("out"))
    return EXIT_OK


def _cmd_validity(args: argparse.Namespace, config: dict[str, str]) -> int:
    mat, overrides = _resolve_material(args, config)
    b_field = _option(args, config, "field", 1.0)
    r = _option(args, config, "r", 0.5)
    occ = _option(args, config, "occupancy", 0.5)
    margin = _option(args, config, "margin", 10.0)
    state = kinetics.state_for_occupancy(occ, mat)
    report = validity.build_report(b_field, r, state, Geometry(), mat, margin=margin)
    _require_finite(**{key: value for key, value in vars(report).items()
                       if isinstance(value, float)})
    _write(validity.render_report(report, mat), args.out or config.get("out"))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, config: dict[str, str]) -> int:
    from . import checks   # loads the oracles

    seed = args.seed if args.seed is not None else int(config.get("seed", 20260810))
    n_dwell = int(_option(args, config, "dwell", 1_000_000, int))
    if n_dwell < checks.MIN_DWELL:
        raise MaterialError(f"dwell must be at least {checks.MIN_DWELL}, got {n_dwell}")
    results = checks.run_suites(args.suite, seed=seed, n_dwell=n_dwell)
    lines = []
    by_suite: dict[str, list[checks.CheckResult]] = {}
    for res in results:
        by_suite.setdefault(res.suite, []).append(res)
    failed = 0
    for suite, items in by_suite.items():
        for res in items:
            mark = "PASS" if res.ok else "FAIL"
            note = ""
            if not res.ok and (res.suite, res.name) in checks.EXPECTED_FAILURES:
                note = " [documented discrepancy]"
            lines.append(f"{mark} {suite}/{res.name}: {res.detail}{note}")
            failed += 0 if res.ok else 1
        ok_count = sum(1 for r in items if r.ok)
        lines.append(f"-- suite {suite}: {ok_count}/{len(items)} passed")
    lines.append(f"== total: {len(results) - failed}/{len(results)} passed")
    _write("\n".join(lines) + "\n", args.out or config.get("out"))
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _cmd_materials(args: argparse.Namespace, config: dict[str, str]) -> int:
    if args.material or config.get("material"):
        mat, overrides = _resolve_material(args, config)
        text = dump_record(mat)
    else:
        text = "\n".join(list_materials()) + "\n"
    _write(text, args.out or config.get("out"))
    return EXIT_OK


_COMMANDS = {
    "profile": _cmd_profile,
    "radius": _cmd_radius,
    "power": _cmd_power,
    "validity": _cmd_validity,
    "verify": _cmd_verify,
    "materials": _cmd_materials,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        # numpy's overflow and invalid-value warnings stay silent: a result
        # they would flag is non-finite, and _require_finite refuses it
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args, config)
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
