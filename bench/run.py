"""donor-halo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is taken from src/ of the
same checkout; nothing needs installing.  Each run

* measures set-up (import donor_halo, load the registry, one warm-up op)
  in several fresh processes and reports the median;
* with --trace 0, runs the workload for S seconds of op time in one
  process, a single client in a closed loop, checks every output and
  prints the end-to-end metrics;
* with --trace 1, alternates untraced and traced passes over a fixed op
  list and prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads, metrics and the reasons for
them are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from tracer import SUITE_PREFIX, TRACED_FUNCTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh processes whose set-up time is measured; the median is reported
SETUP_SAMPLES = 3
#: a run must finish well inside the 180 s allowed for it
RUN_BUDGET_S = 170.0
#: the program under test runs single-threaded (nproc is 2 on the
#: reference machine), so BLAS/OpenMP pools cannot add run-to-run noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SUITES = ("exact-oracles", "telegraph-mc", "reference-numbers", "properties")

#: the bounded end-to-end metrics; latency_p50_s and the rest are printed
#: (README.md says why the median is not among them)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"import.donor_halo_s": "s", "import.modules_loaded": "count",
             "materials.load_registry_s": "s"}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["kinetics.simulate_telegraph.samples"] = "count"
    units["kinetics.simulate_telegraph.samples_per_s"] = "1/s"
    for suite in SUITES:
        units[f"{SUITE_PREFIX}{suite}.s"] = "s"
    units["polarization.quadrupolar_radius.evals_per_call"] = "evals/call"
    units["kinetics.invert_power.evals_per_call"] = "evals/call"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "fraction"
    return units


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["BENCH_OUT"] = str(OUT)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(cmd: list[str], env: dict[str, str], deadline: float) -> int:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def _worker(role: str, index: int, args, env, deadline: float) -> dict:
    result = OUT / f"result-{os.getpid()}-{index}.json"
    result.unlink(missing_ok=True)
    code = _run_child([sys.executable, str(BENCH_DIR / "worker.py"), str(result),
                       args.workload, str(args.seed), str(args.seconds),
                       str(args.trace), role], env, deadline)
    if code != 0 or not result.exists():
        raise RuntimeError(f"{role} worker exited {code} without a result")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    if Path(data["src"]) != SRC.resolve():
        raise RuntimeError(f"donor_halo was imported from {data['src']}, not {SRC}")
    return data


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(workers: list[dict], main: dict) -> dict[str, float]:
    lat = main["latencies"]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
    }


def per_layer(workers: list[dict], trace: dict) -> dict[str, float]:
    rows = trace["summary"]
    values = {
        "import.donor_halo_s": statistics.median(w["import_s"] for w in workers),
        "import.modules_loaded": statistics.median(w["modules_loaded"] for w in workers),
        "materials.load_registry_s": statistics.median(w["registry_s"] for w in workers),
    }
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "notes": 0.0}
    for name in TRACED_FUNCTIONS:
        row = rows.get(name, empty)
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
    mc = rows.get("kinetics.simulate_telegraph", empty)
    values["kinetics.simulate_telegraph.samples"] = mc["notes"]
    values["kinetics.simulate_telegraph.samples_per_s"] = (
        mc["notes"] / mc["self_s"] if mc["self_s"] > 0 else 0.0)
    for suite in SUITES:
        values[f"{SUITE_PREFIX}{suite}.s"] = rows.get(SUITE_PREFIX + suite, empty)["total_s"]
    for name, key in (("polarization.quadrupolar_radius", "qr_evals"),
                      ("kinetics.invert_power", "inv_evals")):
        calls = rows.get(name, empty)["calls"]
        values[f"{name}.evals_per_call"] = trace[key] / calls if calls else 0.0
    values["trace.overhead_s"] = trace["traced_s"] - trace["plain_s"]
    values["trace.overhead_share"] = values["trace.overhead_s"] / trace["plain_s"]
    return values


def absent_metrics(trace: dict, names) -> set[str]:
    """Metrics whose function (or suite table) no longer resolves."""
    return {m for m in names for a in trace["absent"] if m.startswith(a.rstrip("*"))}


def _report(args, workers: list[dict], main: dict, metrics: dict, units: dict,
            attempted: int, failed: int) -> None:
    """Human-readable lines; the JSON result follows on the last line."""
    print(f"donor-halo benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(main["env"], sort_keys=True))
    print(f"setup samples: {len(workers)} processes, median reported")
    absent = absent_metrics(main["trace"], units) if "trace" in main else set()
    for name, unit in units.items():
        mark = ""
        if name in absent:
            mark = "  [absent: name not found in donor_halo]"
        elif metrics[name] == 0 and not name.startswith("trace."):
            mark = "  [not exercised by this workload]"
        print(f"  {name:48s} {metrics[name]:>14.6g} {unit}{mark}")
    if "latencies" in main:
        lat = main["latencies"]
        kinds = [main["kind_names"][k] for k in main["kinds"]]
        n = len(lat)
        busy = sum(lat)
        print(f"  samples: {n} ops in {busy:.3f} s of op time")
        print(f"  latency_p50_s: {statistics.median(lat):.6g} s")
        t = tail(lat)
        print("  latency_tail_s: " + (f"{t[1]:.6g} s at p{t[0]:.4g}" if t
                                      else "not reported (fewer than 11 ops)"))
        if args.workload == "sweep-dense":
            print(f"  points_per_s: {main['points'] / busy:.6g} 1/s "
                  f"({main['points']} grid points)")
        if args.workload == "point-queries":
            print(f"  queries_per_s: {n / busy:.6g} 1/s")
        for kind in sorted(set(kinds)):
            mine = [x for x, k in zip(lat, kinds) if k == kind]
            print(f"    {kind:28s} n={len(mine):6d} p50={statistics.median(mine):.6g} s")
    print(f"  error_rate: {failed}/{attempted} = {failed / attempted:.6g}")
    for w in workers:
        for err in w["errors"]:
            print(f"  failed op: {err}")
    if "trace" in main:
        trace = main["trace"]
        print(f"  trace: {trace['spans']} spans kept from the first of "
              f"{trace['passes']} traced passes, written to "
              f"{OUT.name}/spans-{args.workload}.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "donor_halo" / "__init__.py").is_file():
        print(f"bench: no donor_halo sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    # a terminated run still stops its workers (see _run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    env = _child_env()
    if _run_child([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
                  env, deadline) != 0:
        print("bench: byte-compiling the sources failed", file=sys.stderr)
        return 2
    try:
        workers = [_worker("setup", i, args, env, deadline)
                   for i in range(SETUP_SAMPLES - 1)]
        main_result = _worker("main", SETUP_SAMPLES, args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    workers.append(main_result)

    if args.trace:
        units = per_layer_units()
        metrics = per_layer(workers, main_result["trace"])
    else:
        units = END_TO_END
        metrics = end_to_end(workers, main_result)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    _report(args, workers, main_result, metrics, units, attempted, failed)
    ok = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
