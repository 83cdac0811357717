"""Span tracing around the public functions of the rssifit modules.

The tracer replaces every public function of each layer module, wherever a
module namespace holds it, with a wrapper that records one span per call:
label, start, end, parent span and op id. Callers look functions up by name
at call time (``localization`` calls ``sigma_at`` through its own module
globals), so patching every namespace makes spans nest the way the calls do.
The ``__post_init__`` validation hooks of public dataclasses are wrapped the
same way, because survey validation is a measurable cost of its own.

Spans live in flat arrays while the run goes on and are written out once, at
the end. Self time is a span's duration minus the time its direct children
cover; calls are single-threaded, so children never overlap.

Only the standard library is imported here: a traced CLI child process
imports this module before it starts timing anything.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter_ns

# Package modules that do measurable work, in pipeline order. ``datasets``
# (static tables) and ``errors`` (exception types) are left out.
LAYERS = (
    "dataio",
    "surveys",
    "simulate",
    "calibration",
    "numerics",
    "localization",
    "models",
    "cli",
)
ALL_MODULES = LAYERS + ("datasets", "errors")

ROOT_LABEL = "op"  # the harness span around one op; its self time is "unwrapped"


def _n_samples(survey) -> int:
    return sum(len(samples) for _, samples in survey.rows)


# Exact counts taken from arguments and results after a span has ended, so
# they cost nothing inside the timed interval.
def _observe_load(args, result):
    return {"bytes": len(args[0]), "rows": _n_samples(result)}


def _observe_save(args, result):
    return {"bytes": len(result), "rows": _n_samples(args[0])}


def _observe_stats(args, result):
    return {"samples": _n_samples(args[0])}


def _observe_solve(args, result):
    return {"qr_fallbacks": int(result[1].used_orthogonal)}


def _observe_quartic(args, result):
    return {"scaled_refits": int(result.diagnostics.scaled)}


OBSERVERS = {
    "dataio.load_survey_csv": _observe_load,
    "dataio.save_survey_csv": _observe_save,
    "surveys.survey_stats": _observe_stats,
    "numerics.solve_dense": _observe_solve,
    "numerics.polyfit_quartic": _observe_quartic,
}


class Tracer:
    """In-memory span recorder; install() patches rssifit, uninstall() undoes it."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        # One entry per span, in the order spans opened (parents first).
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._current_op = -1
        self._restore: list[tuple[object, str, object]] = []

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, label: str, fn):
        nid = self.label_id(label)
        observe = OBSERVERS.get(label)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._current_op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                for key, value in observe(args, result).items():
                    tracer.counters[f"{label}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one op; spans opened until end_op nest in it."""
        self._current_op = op_id
        return self._open(self.label_id(ROOT_LABEL))

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self._current_op = -1

    def begin_child(self) -> None:
        """Record spans without a root; a parent process supplies the op span."""
        self._current_op = 0

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"rssifit.{m}") for m in ALL_MODULES}
        namespaces = [importlib.import_module("rssifit"), *modules.values()]
        wrappers: dict[int, object] = {}
        for short in LAYERS:
            mod = modules[short]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    hook = vars(obj)["__post_init__"]
                    label = f"{short}.{name}.__post_init__"
                    self._set(obj, "__post_init__", self.wrap(label, hook), hook)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(ns, name, wrapper, obj)

    def _set(self, owner, name: str, new, old) -> None:
        setattr(owner, name, new)
        self._restore.append((owner, name, old))

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def merge(self, dump: dict, parent_idx: int, op_id: int) -> None:
        """Attach spans dumped by a child process below one of our spans."""
        ids = [self.label_id(label) for label in dump["labels"]]
        base = len(self.name)
        for nid, start, end, parent in dump["spans"]:
            self.name.append(ids[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent_idx if parent < 0 else base + parent)
            self.op.append(op_id)
        for key, value in dump["counters"].items():
            self.counters[key] += value

    def dump(self) -> dict:
        spans = [
            [n, s, e, p]
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]
        return {"labels": self.labels, "spans": spans, "counters": dict(self.counters)}

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write(f"{self.labels[n]},{s},{e},{p},{o}\n")

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Per-label calls, inclusive and self time; per-layer self time."""

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.name)
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        covered = [0] * n
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                covered[p] += dur[i]
        labels = tracer.labels
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        root_id = tracer._label_ids.get(ROOT_LABEL, -1)
        max_range_id = tracer._label_ids.get("localization.max_range", -1)
        in_plan = [False] * n
        self.calls_in_plan: dict[str, int] = defaultdict(int)
        for i in range(n):
            label = labels[tracer.name[i]]
            self_time = dur[i] - covered[i]
            self.calls[label] += 1
            self.total_ns[label] += dur[i]
            self.self_ns[label] += self_time
            layer = "unwrapped" if tracer.name[i] == root_id else label.split(".")[0]
            self.layer_self_ns[layer] += self_time
            p = tracer.parent[i]
            if p >= 0 and (tracer.name[p] == max_range_id or in_plan[p]):
                in_plan[i] = True
                self.calls_in_plan[label] += 1
        self.op_ns = self.total_ns.get(ROOT_LABEL, 0)
        self.n_spans = n
