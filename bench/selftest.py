"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/selftest.py -q

The short-run tests start the real benchmark once per workload and mode
and take about two minutes; the rest run in-process in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import donor_halo  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# spans and self time
# --------------------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    store = tr.SpanStore()
    root = store.add("root", 0.0, 10.0, -1)
    a = store.add("a", 1.0, 4.0, root)
    store.add("a.child", 2.0, 3.0, a)
    store.add("b", 3.0, 6.0, root)          # overlaps a: the union counts once
    store.add("late", 9.0, 12.0, root)      # clipped to the parent's end
    store.add("other_root", 20.0, 21.5, -1)
    assert tr.self_times(store) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 3.0, 3.0, 1.5])
    summary = tr.summarize(store)
    assert summary["root"]["calls"] == 1
    assert summary["root"]["total_s"] == pytest.approx(10.0)


def test_merged_stores_keep_their_trees():
    left, right = tr.SpanStore(), tr.SpanStore()
    p = left.add("x", 0.0, 2.0, -1)
    left.add("y", 0.5, 1.0, p)
    q = right.add("y", 5.0, 9.0, -1)
    right.add("x", 6.0, 7.0, q)
    left.extend(tr.SpanStore.from_json(json.loads(json.dumps(right.to_json()))))
    assert tr.self_times(left) == pytest.approx([1.5, 0.5, 3.0, 1.0])
    assert tr.nearest_ancestor_counts(left, "y", "x") == 1
    assert tr.nearest_ancestor_counts(left, "x", "y") == 1


def test_tracer_wraps_every_binding_and_restores_them():
    from donor_halo import fields, polarization
    original = fields.screening_fraction
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert polarization.screening_fraction is not original
        assert fields.screening_fraction is polarization.screening_fraction
        donor_halo.radius_sweep([1e-2, 1e-1])
    finally:
        tracer.uninstall()
    assert polarization.screening_fraction is original
    assert donor_halo.screening_fraction is original
    rows = tr.summarize(tracer.store)
    assert rows["polarization.radius_sweep"]["calls"] == 1
    assert rows["polarization.quadrupolar_radius"]["calls"] == 2
    assert rows["fields.screening_fraction"]["calls"] > 2
    assert tracer.absent == []


def test_a_vanished_name_is_absent_not_an_error():
    tracer = tr.Tracer()
    tracer.install(["polarization.no_such_function", "no_such_module.main",
                    "kinetics.p_avg"])      # resolves through the package namespace
    try:
        assert tracer.absent == ["polarization.no_such_function", "no_such_module.main"]
    finally:
        tracer.uninstall()
    assert run.absent_metrics({"absent": tracer.absent}, ["no_such_module.main.calls",
                                                         "cli.main.calls"]) \
        == {"no_such_module.main.calls"}


# --------------------------------------------------------------------------
# per-op correctness
# --------------------------------------------------------------------------

@pytest.fixture
def ctx(tmp_path):
    return wl.Context(donor_halo, tmp_path, BENCH_DIR)


def _ops(ctx, workload: str, kind: str):
    build = wl.WORKLOADS[workload][0]
    return [op for ops in build(ctx, 7, 3) for op in ops if op.kind == kind]


def _failures(ops) -> int:
    runner = Runner()
    for op in ops:
        runner.run(op)
    assert runner.attempted == len(ops)
    return runner.failed


@pytest.mark.parametrize("workload, kind, name, perturb", [
    ("point-queries", "quadrupolar_radius", "quadrupolar_radius", lambda v: v * (1 + 1e-3)),
    ("point-queries", "invert_power", "invert_power", lambda v: v * (1 + 1e-7)),
    ("point-queries", "p_avg", "p_avg", lambda v: v * 1.5),
    ("point-queries", "build_report", "build_report",
     lambda rep: type(rep)(**{**vars(rep), "r_q": rep.r_q * 1.01})),
    ("sweep-dense", "radius_sweep", "radius_sweep", lambda t: t + [0.0, 1e-3, 0.0]),
    ("sweep-dense", "power_sweep", "power_sweep",
     lambda s: type(s)(**{**vars(s), "occupancy": s.occupancy * (1 + 1e-6)})),
    ("sweep-dense", "profile", "profile",
     lambda p: type(p)(**{**vars(p), "p_avg": p.p_avg * (1 + 1e-6)})),
])
def test_perturbed_output_counts_as_failed(ctx, monkeypatch, workload, kind, name, perturb):
    ops = _ops(ctx, workload, kind)
    assert ops and _failures(ops) == 0
    real = getattr(donor_halo, name)
    monkeypatch.setattr(donor_halo, name, lambda *a, **k: perturb(real(*a, **k)))
    assert _failures(ops) == len(ops)


def test_nonfinite_and_raising_ops_fail(ctx, monkeypatch):
    ops = _ops(ctx, "point-queries", "quadrupolar_radius")
    monkeypatch.setattr(donor_halo, "quadrupolar_radius", lambda f0: float("nan"))
    assert _failures(ops) == len(ops)

    def boom(f0):
        raise donor_halo.BracketError("no sign change")

    monkeypatch.setattr(donor_halo, "quadrupolar_radius", boom)
    assert _failures(ops) == len(ops)


def test_verify_must_fail_exactly_the_documented_check(ctx, monkeypatch):
    from donor_halo import cli
    op = wl.verify(ctx, 0, 1)[0][0]
    report = ("PASS exact-oracles/k-factors: ok\n"
              "FAIL reference-numbers/diffusion-quad-modified: off [documented discrepancy]\n")

    def fake_main(argv, code=4, text=report):
        Path(argv[argv.index("--out") + 1]).write_text(text)
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    assert _failures([op]) == 0
    monkeypatch.setattr(cli, "main", lambda argv: fake_main(argv, code=0))
    assert _failures([op]) == 1
    monkeypatch.setattr(cli, "main", lambda argv: fake_main(
        argv, text=report + "FAIL properties/mc-convergence: off\n"))
    assert _failures([op]) == 1


# --------------------------------------------------------------------------
# the benchmark as a whole, run as a separate process
# --------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
