"""In-memory span tracer that wraps donor_halo functions from the outside.

A span is one call of a wrapped function: name, start, end and the index
of the enclosing span (-1 at the top).  Spans live in typed arrays while
the run goes on and are written out only at the end.  Self time is a
span's duration minus the part of it that its child spans cover.

Functions are looked up by a stable metric name such as
``fields.screening_fraction``.  The wrapper replaces the function under
every module name that bound it (``fields.screening_fraction`` and
``polarization.screening_fraction`` alike), so calls between modules are
traced too.  A name that no longer resolves is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

PACKAGE = "donor_halo"

#: functions traced as spans, by metric name (module.function)
TRACED_FUNCTIONS = (
    "cli.main",
    "svgplot.line_chart",
    "polarization.power_sweep",
    "polarization.radius_sweep",
    "polarization.profile",
    "polarization.quadrupolar_radius",
    "polarization.p_avg",
    "polarization.diffusion_radius",
    "polarization.nuclear_field",
    "kinetics.invert_power",
    "kinetics.power_map",
    "kinetics.simulate_telegraph",
    "fields.screening_fraction",
    "relaxation.radial_profile",
    "validity.build_report",
    "validity.local_fields",
    "validity.spin_temperature_eta",
    "spin_algebra.bq_local_field",
)

#: verify suites, traced through the checks.SUITES table
SUITE_PREFIX = "checks.suite."


def resolve(metric_name: str):
    """The function a metric name refers to, or None when it is gone.

    Looks in the named module first, then in the package namespace, so a
    function that moved between modules but is still exported resolves.
    """
    module_name, _, attr = metric_name.rpartition(".")
    for where in (f"{PACKAGE}.{module_name}", PACKAGE):
        try:
            module = importlib.import_module(where)
        except ImportError:
            continue
        func = getattr(module, attr, None)
        if callable(func):
            return func
    return None


@dataclass
class SpanStore:
    """Spans in parallel typed arrays; index i is one span."""

    names: list[str] = field(default_factory=list)
    name_id: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("q"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    #: extra per-span numbers keyed by span index (e.g. MC sample counts)
    notes: dict[int, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append one finished span."""
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def extend(self, other: "SpanStore") -> None:
        """Append another store's spans, keeping its tree intact."""
        offset = len(self)
        remap = [self.intern(n) for n in other.names]
        for i in range(len(other)):
            p = other.parent[i]
            self.name_id.append(remap[other.name_id[i]])
            self.parent.append(p + offset if p >= 0 else -1)
            self.start.append(other.start[i])
            self.end.append(other.end[i])
        for i, value in other.notes.items():
            self.notes[i + offset] = value

    def to_json(self) -> dict:
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(),
                "notes": {str(k): v for k, v in self.notes.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "SpanStore":
        store = cls(names=list(data["names"]))
        store.name_id.extend(data["name_id"])
        store.parent.extend(data["parent"])
        store.start.extend(data["start"])
        store.end.extend(data["end"])
        store.notes = {int(k): v for k, v in data["notes"].items()}
        return store


def self_times(store: SpanStore) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(store.parent):
        if p >= 0:
            children[p].append(i)
    result = []
    for i in range(len(store)):
        lo, hi = store.start[i], store.end[i]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda c: store.start[c]):
            a, b = max(store.start[c], cursor), min(store.end[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        result.append((hi - lo) - covered)
    return result


def nearest_ancestor_counts(store: SpanStore, child: str, ancestor: str) -> int:
    """Number of `child` spans that run inside some `ancestor` span."""
    if child not in store.names or ancestor not in store.names:
        return 0
    want = store.names.index(child)
    anc = store.names.index(ancestor)
    count = 0
    for i in range(len(store)):
        if store.name_id[i] != want:
            continue
        p = store.parent[i]
        while p >= 0 and store.name_id[p] != anc:
            p = store.parent[p]
        count += p >= 0
    return count


def summarize(store: SpanStore) -> dict[str, dict[str, float]]:
    """Per-name call count, self time and inclusive time."""
    own = self_times(store)
    out: dict[str, dict[str, float]] = {}
    for i in range(len(store)):
        name = store.names[store.name_id[i]]
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "notes": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i]
        row["total_s"] += store.end[i] - store.start[i]
        row["notes"] += store.notes.get(i, 0.0)
    return out


def _telegraph_samples(result) -> float:
    """Sample count of a TelegraphEstimate: total time over the grid step.

    0 when the result no longer has that shape, so a refactor of the
    estimate cannot crash a traced run.
    """
    try:
        return float(int(result.total_time / float(result.lag_times[1])))
    except (AttributeError, IndexError, TypeError, ZeroDivisionError):
        return 0.0


class Tracer:
    """Wraps the traced functions while installed; records into `store`."""

    def __init__(self) -> None:
        self.store = SpanStore()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func: Callable) -> Callable:
        store, stack = self.store, self._stack
        name_idx = store.intern(name)
        note = _telegraph_samples if name == "kinetics.simulate_telegraph" else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(store.start)
            store.name_id.append(name_idx)
            store.parent.append(stack[-1] if stack else -1)
            store.start.append(clock())
            store.end.append(0.0)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                store.end[index] = clock()
            if note is not None:
                store.notes[index] = note(result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _patch_everywhere(self, func: Callable, wrapper: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self, names: Iterable[str] = TRACED_FUNCTIONS) -> None:
        """Wrap every resolvable name; remember the ones that are gone."""
        self.absent = []
        for name in names:
            func = resolve(name)
            if func is None:
                self.absent.append(name)
                continue
            self._patch_everywhere(func, self._wrap(name, func))
        try:
            suites = getattr(importlib.import_module(f"{PACKAGE}.checks"), "SUITES", None)
        except ImportError:
            suites = None
        if isinstance(suites, dict):
            for key, func in list(suites.items()):
                self._patched.append((suites, key, func))
                suites[key] = self._wrap(SUITE_PREFIX + key, func)
        else:
            self.absent.append(SUITE_PREFIX + "*")

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patched.clear()
