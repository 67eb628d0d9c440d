"""Seeded workloads and per-op correctness checks.

Each workload turns a seed into a list of rounds of `Op`s.  An op calls
the program through a name in ``donor_halo.__all__`` or through its CLI;
its check then tests the output against public closed forms, never
against the code path that was timed.  A check returns None when the
output is right and a one-line reason when it is not.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: tolerances from the ROADMAP contract
RADIUS_TOL = 1e-6          # p_avg(rho_q -+ tol, f0) straddles 1/2
POWER_RTOL = 1e-10         # power_map(occ).power against the requested power
FORM_RTOL = 1e-10          # array outputs against the scalar closed forms
EXPECTED_VERIFY_FAILURES = {"reference-numbers/diffusion-quad-modified"}
VERIFY_EXIT = 4


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    points: int = 1


class Context:
    """What ops need besides the program: a scratch directory, and for
    CLI ops the traced/untraced switch and the collected child results."""

    def __init__(self, dh, tmp: Path, bench_dir: Path):
        self.dh = dh
        self.tmp = tmp
        self.bench_dir = bench_dir
        self.child_rss_kb = 0
        self.child_spans: list[Path] = []
        self.traced_cli = False
        self._serial = 0

    def scratch(self, suffix: str) -> Path:
        self._serial += 1
        return self.tmp / f"out{self._serial}{suffix}"


# --------------------------------------------------------------------------
# shared checks
# --------------------------------------------------------------------------

def _nonfinite(*values) -> str | None:
    for value in values:
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            return "non-finite output"
    return None


def _radius_error(dh, rho: float, f0: float) -> str | None:
    inner = dh.p_avg(max(rho - RADIUS_TOL, 1e-12), f0)
    outer = dh.p_avg(rho + RADIUS_TOL, f0)
    if not inner >= 0.5 >= outer:
        return f"p_avg does not straddle 1/2 at rho_q={rho!r}, f0={f0!r}"
    return None


def _power_error(dh, occ: float, power: float, mat) -> str | None:
    if occ >= dh.gamma_ceiling(mat) * (1.0 - 1e-12):
        return None              # documented plateau next to the ceiling
    got = dh.power_map(occ, mat).power
    if abs(got - power) > (POWER_RTOL + 8 * np.finfo(float).eps) * power:
        return f"power residual {abs(got - power) / power:.3e} at occupancy {occ!r}"
    return None


def _close(a, b, rtol: float = FORM_RTOL) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=0.0))


def _first_error(*errors) -> str | None:
    return next((e for e in errors if e is not None), None)


# --------------------------------------------------------------------------
# sweep-dense: one large sweep per op
# --------------------------------------------------------------------------

SWEEP_POINTS = 1000
PROFILE_POINTS = 5000


def _power_op(dh, rng, quadrupolar: bool) -> Op:
    base = dh.get_material("GaAs:As75")
    mat = base.with_overrides(
        donor_density=base.donor_density * 10 ** rng.uniform(-0.3, 0.3),
        acceptor_density=base.acceptor_density * 10 ** rng.uniform(-0.3, 0.3))
    grid = np.geomspace(10 ** rng.uniform(-1.5, -0.5), 10 ** rng.uniform(1.5, 2.0),
                        SWEEP_POINTS)

    def check(sweep) -> str | None:
        error = _nonfinite(sweep.occupancy, sweep.nf_over_na, sweep.s_rho_q,
                           sweep.alpha_n)
        if error:
            return error
        p0 = dh.power_map(0.5, mat).p0
        cap = dh.screening_fraction(sweep.rho_d)
        if quadrupolar:
            if np.any(sweep.s_rho_q > cap * (1 + FORM_RTOL)) or np.any(sweep.s_rho_q <= 0):
                return "screening outside (0, s(rho_d)]"
        elif not _close(sweep.s_rho_q, cap):
            return "no-quadrupolar sweep is not at the diffusion cap"
        return _first_error(*(_power_error(dh, float(occ), float(p) * p0, mat)
                              for occ, p in zip(sweep.occupancy, grid)))

    kind = "power_sweep" if quadrupolar else "power_sweep_noquad"
    return Op(kind, lambda: dh.power_sweep(grid, mat, quadrupolar=quadrupolar),
              check, SWEEP_POINTS)


def _radius_op(dh, rng) -> Op:
    grid = np.geomspace(10 ** rng.uniform(-5.0, -4.0), 10 ** rng.uniform(-0.3, 0.3),
                        SWEEP_POINTS)

    def check(table) -> str | None:
        table = np.asarray(table)
        if table.shape != (SWEEP_POINTS, 3):
            return f"radius table has shape {table.shape}"
        error = _nonfinite(table)
        if error:
            return error
        if not _close(table[:, 0], grid):
            return "f0 column differs from the requested grid"
        if not _close(table[:, 2], [dh.screening_fraction(r) for r in table[:, 1]]):
            return "s(rho_q) column differs from screening_fraction"
        return _first_error(*(_radius_error(dh, float(rho), float(f0))
                              for f0, rho in table[:, :2]))

    return Op("radius_sweep", lambda: dh.radius_sweep(grid), check, SWEEP_POINTS)


def _profile_error(dh, prof, grid, f0) -> str | None:
    error = _nonfinite(prof.p_parallel, prof.p_perpendicular, prof.p_avg)
    if error:
        return error
    if not (np.all(prof.p_parallel <= prof.p_avg * (1 + FORM_RTOL))
            and np.all(prof.p_avg <= prof.p_perpendicular * (1 + FORM_RTOL))):
        return "sphere average outside [parallel, perpendicular]"
    for i in range(0, grid.size, max(1, grid.size // 20)):
        r = float(grid[i])
        expect = (dh.p_point(r, 0.0, f0), dh.p_point(r, math.pi / 2, f0), dh.p_avg(r, f0))
        got = (prof.p_parallel[i], prof.p_perpendicular[i], prof.p_avg[i])
        if not _close(got, expect):
            return f"profile row {i} differs from the scalar closed forms"
    return _radius_error(dh, prof.rho_q, f0)


def _profile_op(dh, rng) -> Op:
    f0 = 10 ** rng.uniform(-3.0, -1.0)
    grid = np.linspace(rng.uniform(0.02, 0.1), rng.uniform(2.5, 4.0), PROFILE_POINTS)
    return Op("profile", lambda: dh.profile(f0, grid),
              lambda prof: _profile_error(dh, prof, grid, f0), PROFILE_POINTS)


def _diffusion_op(dh, rng) -> Op:
    mat = dh.get_material("GaAs:As75")
    state = dh.state_for_occupancy(rng.uniform(0.3, 0.8), mat)
    b_field = 0.1
    diffusion = dh.calibrate_diffusion(dh.state_for_occupancy(0.5, mat), b_field, mat)
    f0 = 10 ** rng.uniform(-3.0, -1.0)
    grid = np.linspace(0.05, 3.0, 120)

    def run():
        radius = dh.diffusion_radius(state, b_field, diffusion, mat)
        prof = dh.profile(f0, grid, rho_d=radius.value)
        return radius, dh.nuclear_field(prof, mat), prof

    def check(out) -> str | None:
        radius, field, prof = out
        if not radius.has_solution or not radius.value > 0.0:
            return "no diffusion radius"
        error = _nonfinite(radius.value, field.b_n_step, field.b_n_exact)
        if error:
            return error
        step = mat.b_n0 * dh.screening_fraction(min(prof.rho_q, radius.value))
        if not _close(field.b_n_step, step):
            return "step nuclear field differs from b_n0 * s(rho)"
        if not 0.0 < field.b_n_exact <= mat.b_n0:
            return "exact nuclear field outside (0, b_n0]"
        return _profile_error(dh, prof, grid, f0)

    return Op("diffusion_nuclear_field", run, check, 1)


def sweep_dense(ctx: Context, seed: int, rounds: int) -> list[list[Op]]:
    rng = np.random.default_rng(seed)
    makers = [lambda: _power_op(ctx.dh, rng, True), lambda: _power_op(ctx.dh, rng, False),
              lambda: _radius_op(ctx.dh, rng), lambda: _profile_op(ctx.dh, rng),
              lambda: _diffusion_op(ctx.dh, rng)]
    out = []
    for _ in range(rounds):
        order = rng.permutation(len(makers))
        out.append([makers[i]() for i in order])
    return out


# --------------------------------------------------------------------------
# point-queries: one scalar query per op
# --------------------------------------------------------------------------

def _query_ops(dh, rng, names: list[str]) -> list[Op]:
    geometry = dh.Geometry()

    def record():
        return dh.get_material(names[rng.integers(len(names))])

    # quadrupolar_radius
    f0 = 10 ** rng.uniform(-4.0, 0.0)
    qr = Op("quadrupolar_radius", lambda: dh.quadrupolar_radius(f0),
            lambda rho: _nonfinite(rho) or _radius_error(dh, rho, f0))

    # invert_power
    mat_p = record()
    power = dh.power_map(0.5, mat_p).p0 * 10 ** rng.uniform(-1.0, 2.0)
    inv = Op("invert_power", lambda: dh.invert_power(power, mat_p),
             lambda occ: _nonfinite(occ) or _power_error(dh, occ, power, mat_p))

    # p_avg: the sphere average lies between the two axial values
    r_a, f0_a = 10 ** rng.uniform(-1.0, 0.6), 10 ** rng.uniform(-4.0, 0.0)

    def check_pavg(p) -> str | None:
        lo, hi = dh.p_point(r_a, 0.0, f0_a), dh.p_point(r_a, math.pi / 2, f0_a)
        if _nonfinite(p) or not lo * (1 - FORM_RTOL) <= p <= hi * (1 + FORM_RTOL):
            return f"p_avg({r_a!r}, {f0_a!r}) = {p!r} outside [{lo!r}, {hi!r}]"
        return None

    pavg = Op("p_avg", lambda: dh.p_avg(r_a, f0_a), check_pavg)

    # local_fields and build_report
    mat_v = record()
    b_field = 10 ** rng.uniform(-0.5, 0.7)
    r_v = 10 ** rng.uniform(-0.5, 0.5)
    occ_v = rng.uniform(0.05, 0.9)
    state = dh.state_for_occupancy(occ_v, mat_v)

    def check_fields(lf) -> str | None:
        if _nonfinite(lf.b_l, lf.b_q) or lf.b_q < 0.0 or lf.b_l != mat_v.local_field:
            return "local fields not finite or inconsistent with the record"
        if lf.high_field_ok != (b_field ** 2 >= 10.0 * (lf.b_l ** 2 + lf.b_q ** 2)):
            return "high-field flag disagrees with B^2 >= 10 (B_L^2 + B_Q^2)"
        return None

    fields_op = Op("local_fields",
                   lambda: dh.local_fields(b_field, r_v, occ_v, geometry, mat_v),
                   check_fields)

    def check_report(rep) -> str | None:
        error = _nonfinite(rep.b_l, rep.b_q, rep.eta, rep.r_q, rep.b_q_prime,
                           rep.omega1_tau, rep.omegah_tau)
        if error:
            return error
        if not _close(rep.r_q, rep.eta * b_field ** -0.2):
            return "r_q differs from eta * B^(-1/5)"
        if rep.spin_temperature_ok != (b_field > rep.b_q_prime):
            return "spin-temperature flag disagrees with its threshold"
        return None

    report = Op("build_report",
                lambda: dh.build_report(b_field, r_v, state, geometry, mat_v),
                check_report)
    return [qr, inv, pavg, fields_op, report]


def point_queries(ctx: Context, seed: int, rounds: int) -> list[list[Op]]:
    rng = np.random.default_rng(seed)
    names = ctx.dh.list_materials()
    out = []
    for _ in range(rounds):
        ops = _query_ops(ctx.dh, rng, names)
        out.append([ops[i] for i in rng.permutation(len(ops))])
    return out


# --------------------------------------------------------------------------
# cli-cold: one fresh `python -m donor_halo.cli` process per op
# --------------------------------------------------------------------------

@dataclass
class CliRun:
    """Exit code and output files of one command; read after the timing."""

    code: int
    out: Path
    err: Path | None = None

    def read(self) -> tuple[str, str]:
        """(output, stderr) text; deletes the files."""
        texts = []
        for path in (self.out, self.err):
            texts.append(path.read_text(encoding="utf-8", errors="replace")
                         if path is not None and path.exists() else "")
            if path is not None:
                path.unlink(missing_ok=True)
        return texts[0], texts[1]


def _spawn(ctx: Context, argv: list[str], out: Path) -> CliRun:
    """Run one CLI process to completion and record its peak RSS."""
    if ctx.traced_cli:
        spans = out.with_suffix(".spans.json")
        ctx.child_spans.append(spans)
        cmd = [sys.executable, str(ctx.bench_dir / "cli_child.py"), str(spans)]
    else:
        cmd = [sys.executable, "-m", "donor_halo.cli"]
    err_path = out.with_suffix(".err")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd + argv + ["--out", str(out)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_rss_kb = max(ctx.child_rss_kb, usage.ru_maxrss)
    return CliRun(proc.returncode, out, err_path)


def _csv_rows(text: str, columns: list[str], points: int) -> "np.ndarray | str":
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0].split(",") != columns:
        return "missing or wrong CSV header"
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if rows.shape != (points, len(columns)):
        return f"CSV has shape {rows.shape}, expected ({points}, {len(columns)})"
    return _nonfinite(rows) or rows


def _cli_op(ctx: Context, kind: str, argv: list[str], suffix: str,
            check_text: Callable[[str], "str | None"]) -> Op:
    def run() -> CliRun:
        return _spawn(ctx, argv, ctx.scratch(suffix))

    def check(res: CliRun) -> str | None:
        text, stderr = res.read()
        if res.code != 0:
            return f"exit {res.code}, expected 0: {stderr.strip()[-200:]}"
        if "Traceback" in stderr:
            return "traceback on stderr"
        return check_text(text)

    return Op(kind, run, check)


def _cli_round(ctx: Context, rnd: random.Random, names: list[str]) -> list[Op]:
    dh = ctx.dh

    def fmt(x: float) -> str:
        return f"{x:.6g}"

    # profile
    f0 = 10 ** rnd.uniform(-3, -1)
    n_prof = rnd.randint(100, 400)

    def check_profile(text):
        rows = _csv_rows(text, ["r", "p_parallel", "p_perpendicular", "p_avg"], n_prof)
        if isinstance(rows, str):
            return rows
        f0_used = float(fmt(f0))
        i = n_prof // 2
        if not _close(rows[i, 3], dh.p_avg(rows[i, 0], f0_used), 1e-9):
            return "profile p_avg differs from the closed form"
        return None

    profile = _cli_op(ctx, "profile", [
        "profile", "--material", rnd.choice(names), "--f0", fmt(f0),
        "--r-max", fmt(rnd.uniform(2.0, 4.0)), "--points", str(n_prof)],
        ".csv", check_profile)

    # radius
    n_rad = rnd.randint(20, 60)

    def check_radius(text):
        rows = _csv_rows(text, ["f0", "rho_q", "s_rho_q"], n_rad)
        if isinstance(rows, str):
            return rows
        return _first_error(*(_radius_error(dh, rho, f) for f, rho, _ in rows))

    radius = _cli_op(ctx, "radius", [
        "radius", "--f0-min", fmt(10 ** rnd.uniform(-5, -3)),
        "--f0-max", fmt(10 ** rnd.uniform(-0.5, 0.0)), "--points", str(n_rad)],
        ".csv", check_radius)

    # power, CSV and SVG
    def power_argv() -> tuple[list[str], int]:
        n = rnd.randint(25, 60)
        argv = ["power", "--p-min", fmt(10 ** rnd.uniform(-1.5, -0.5)),
                "--p-max", fmt(10 ** rnd.uniform(1.0, 2.0)), "--points", str(n),
                "--set", f"donor_density={fmt(1e22 * 10 ** rnd.uniform(-0.3, 0.3))}",
                "--set", f"acceptor_density={fmt(5e22 * 10 ** rnd.uniform(-0.3, 0.3))}"]
        if rnd.random() < 0.5:
            argv.append("--no-quadrupolar")
        return argv, n

    argv_csv, n_pow = power_argv()
    columns = ["p_over_p0", "occupancy", "nf_over_na", "s_rho_q", "alpha_n",
               "diffusion_flag"]

    def check_power(text):
        rows = _csv_rows(text, columns, n_pow)
        if isinstance(rows, str):
            return rows
        occ = rows[:, 1]
        if np.any(occ <= 0) or np.any(occ >= 1) or np.any(np.diff(occ) <= 0):
            return "occupancy not increasing inside (0, 1)"
        return None

    power_csv = _cli_op(ctx, "power", argv_csv, ".csv", check_power)
    argv_svg, _ = power_argv()
    power_svg = _cli_op(ctx, "power_svg", argv_svg + ["--format", "svg"], ".svg",
                        lambda t: None if t.lstrip().startswith("<svg")
                        and t.rstrip().endswith("</svg>") else "not an SVG document")

    # validity
    mat_name = rnd.choice(names)
    validity = _cli_op(ctx, "validity", [
        "validity", "--material", mat_name, "--field", fmt(10 ** rnd.uniform(-0.3, 0.7)),
        "--r", fmt(rnd.uniform(0.3, 3.0)), "--occupancy", fmt(rnd.uniform(0.1, 0.9))],
        ".txt", lambda t: None if t.startswith(f"regime report: {mat_name}")
        and "nan" not in t else "malformed regime report")

    # materials: the list, or one record
    if rnd.random() < 0.5:
        materials = _cli_op(ctx, "materials", ["materials"], ".txt",
                            lambda t: None if t.split() == names else "wrong record list")
    else:
        one = rnd.choice(names)
        materials = _cli_op(ctx, "materials", ["materials", "--material", one], ".txt",
                            lambda t: None if t.startswith(f"[{one}]") else "wrong record")
    ops = [profile, radius, power_csv, power_svg, validity, materials]
    rnd.shuffle(ops)
    return ops


def cli_cold(ctx: Context, seed: int, rounds: int) -> list[list[Op]]:
    rnd = random.Random(seed)
    names = ctx.dh.list_materials()
    return [_cli_round(ctx, rnd, names) for _ in range(rounds)]


# --------------------------------------------------------------------------
# verify: the shipped verification run, in-process
# --------------------------------------------------------------------------

def _verify_op(ctx: Context) -> Op:
    from donor_halo import cli

    def run() -> CliRun:
        out = ctx.scratch(".txt")
        return CliRun(cli.main(["verify", "--out", str(out)]), out)

    def check(res: CliRun) -> str | None:
        text, _ = res.read()
        failing = {ln.split(":", 1)[0][len("FAIL "):]
                   for ln in text.splitlines() if ln.startswith("FAIL ")}
        if res.code != VERIFY_EXIT:
            return f"verify exit {res.code}, expected {VERIFY_EXIT}"
        if failing != EXPECTED_VERIFY_FAILURES:
            return f"failing checks {sorted(failing)}"
        return None

    return Op("verify", run, check)


def verify(ctx: Context, seed: int, rounds: int) -> list[list[Op]]:
    del seed                      # the shipped seed; inputs are fixed
    return [[_verify_op(ctx)] for _ in range(rounds)]


#: name -> (round factory, rounds made per run, rounds in the traced list)
WORKLOADS: dict[str, tuple[Callable, int, int]] = {
    "cli-cold": (cli_cold, 20, 1),
    "sweep-dense": (sweep_dense, 200, 1),
    "point-queries": (point_queries, 2000, 100),
    "verify": (verify, 30, 1),
}
