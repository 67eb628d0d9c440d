"""One benchmark process: set up, then (role "main") run the workload.

    python3 bench/worker.py RESULT.json WORKLOAD SEED SECONDS TRACE ROLE

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread variables pinned.  The import of donor_halo is timed
before anything else is imported, so the module count is the program's.
Writes one JSON object to RESULT.json.
"""

import sys
import time

_t0 = time.perf_counter()
import donor_halo  # noqa: E402
_t1 = time.perf_counter()
_MODULES_LOADED = len(sys.modules)

import gc  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent

from tracer import SpanStore, Tracer, nearest_ancestor_counts, summarize  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
                    or k == "VECLIB_MAXIMUM_THREADS"},
    }


class Runner:
    """Times ops one after another (closed loop) and checks each output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @staticmethod
    def call(op):
        """(seconds, output); an exception raised by the op is the output."""
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:                      # an op that raises fails
            output = exc
        return time.perf_counter() - start, output

    def judge(self, op, output) -> None:
        self.attempted += 1
        if isinstance(output, Exception):
            reason = f"raised {type(output).__name__}: {output}"
        else:
            try:
                reason = op.check(output)
            except Exception as exc:                  # malformed output
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.kind}: {reason}")

    def run(self, op) -> float:
        elapsed, output = self.call(op)
        self.judge(op, output)
        return elapsed


def _cycle(rounds):
    while True:
        yield from rounds


def _timed_loop(runner: Runner, rounds, seconds: float):
    """Whole rounds until the summed op time reaches `seconds`.

    Latencies go to a typed array, so the bookkeeping adds 9 bytes per op
    to the peak RSS instead of a Python float and a list slot.
    """
    names = sorted({op.kind for op in rounds[0]})
    latencies, kinds, points = array("d"), array("B"), 0
    busy = 0.0
    for ops in _cycle(rounds):
        for op in ops:
            t = runner.run(op)
            latencies.append(t)
            kinds.append(names.index(op.kind))
            points += op.points
            busy += t
        if busy >= seconds:
            return latencies, kinds, names, points


def _run_pass(runner: Runner, ops, tracer: "Tracer | None" = None) -> float:
    """Wall time of one pass; outputs are checked after it, untraced."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        outputs = [runner.call(op)[1] for op in ops]
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, output in zip(ops, outputs):
        runner.judge(op, output)
    return elapsed


def _traced(ctx: Context, runner: Runner, ops, seconds: float) -> tuple[SpanStore, dict]:
    """Alternate untraced and traced passes over one fixed op list.

    Spans come from the first traced pass, so counts repeat exactly for a
    seed; the overhead is the median traced minus the median untraced pass.
    """
    plain, traced = [], []
    kept: SpanStore | None = None
    absent: list[str] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(_run_pass(runner, ops))
        tracer = Tracer()
        ctx.traced_cli, ctx.child_spans = True, []
        try:
            traced.append(_run_pass(runner, ops, tracer))
        finally:
            ctx.traced_cli = False
        for path in ctx.child_spans:         # spans written by CLI children
            if path.exists():
                tracer.store.extend(SpanStore.from_json(json.loads(path.read_text())))
                path.unlink()
        if kept is None:
            kept, absent = tracer.store, tracer.absent
    return kept, {
        "absent": absent, "summary": summarize(kept),
        "qr_evals": nearest_ancestor_counts(kept, "polarization.p_avg",
                                            "polarization.quadrupolar_radius"),
        "inv_evals": nearest_ancestor_counts(kept, "kinetics.power_map",
                                             "kinetics.invert_power"),
        "plain_s": statistics.median(plain), "traced_s": statistics.median(traced),
        "passes": len(plain), "spans": len(kept),
    }


def main(argv: list[str]) -> int:
    result_path, workload, seed, seconds, trace, role = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    build, n_rounds, n_traced = WORKLOADS[workload]

    src = Path(donor_halo.__file__).resolve().parent.parent
    t2 = time.perf_counter()
    donor_halo.load_registry()
    t3 = time.perf_counter()

    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=os.environ["BENCH_OUT"]))
    ctx = Context(donor_halo, tmp, BENCH_DIR)
    runner = Runner()
    try:
        rounds = build(ctx, seed, n_rounds if role == "main" else 1)
        warm = 0.0
        if workload != "cli-cold":            # users pay the import per command
            # the same kind of op whatever the seed's order, so set-up
            # time does not depend on the seed
            first = min(rounds[0], key=lambda op: op.kind)
            t4 = time.perf_counter()
            runner.run(first)
            warm = time.perf_counter() - t4
        result = {
            "import_s": _t1 - _t0, "modules_loaded": _MODULES_LOADED,
            "registry_s": t3 - t2, "setup_s": (_t1 - _t0) + (t3 - t2) + warm,
            "src": str(src),
        }
        if role == "main":
            result["env"] = _environment()
            # the generated inputs are the benchmark's, not the program's:
            # keep them out of the collector's scans during the timed ops
            gc.freeze()
            if trace:
                ops = [op for ops in rounds[:n_traced] for op in ops]
                store, result["trace"] = _traced(ctx, runner, ops, seconds)
                spans = Path(os.environ["BENCH_OUT"]) / f"spans-{workload}.json"
                spans.write_text(json.dumps(store.to_json()), encoding="utf-8")
            else:
                lat, kinds, names, points = _timed_loop(runner, rounds, seconds)
                result.update(latencies=lat, kinds=kinds, kind_names=names, points=points)
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["peak_rss_kb"] = ctx.child_rss_kb if workload == "cli-cold" else own
        result.update(attempted=runner.attempted, failed=runner.failed,
                      errors=runner.errors)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # typed arrays become lists only here, after the peak RSS was read
    Path(result_path).write_text(json.dumps(result, default=list), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
