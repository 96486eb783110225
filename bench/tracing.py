"""Per-layer tracing of boostcontrib from outside the package.

The program is not instrumented: :meth:`Tracer.install` replaces each
listed public function, at every module-level binding inside
``boostcontrib.*``, with a timing wrapper. Rebinding every binding matters:
``contrib`` calls its own imported ``decision_path`` and ``cli`` dispatches
to its own ``cmd_*`` globals, so patching only the defining module would
miss calls made across modules.

Each span is folded into per-name totals (calls, inclusive time, self time)
and per-(parent, child) totals as soon as it ends, so memory stays bounded
however many rows are explained. Self time is a span's duration minus the
durations of the traced spans it called.
"""

from __future__ import annotations

import gc
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED = {
    "cart": ("best_split", "fit_cart", "decision_path", "tree_predict"),
    "boosting": (
        "fit_gbdt",
        "predict_batch",
        "gbdt_predict",
        "save_model",
        "load_model",
        "feature_importance",
    ),
    "contrib": (
        "batch_explain",
        "feature_contributions",
        "decision_contributions",
        "decision_space",
    ),
    "oracle": ("naive_contributions", "enumerate_leaf_regions", "check_partition"),
    "data": ("load_csv", "train_test_split"),
    "experiments": (
        "run_correlation_experiment",
        "run_noise_experiment",
        "run_outlier_experiment",
        "write_report",
    ),
    "cli": ("cmd_train", "cmd_predict", "cmd_explain", "cmd_importance", "cmd_verify"),
}

# Output files a CLI command writes, by argparse destination.
CLI_OUTPUTS = ("out", "model_out", "decision_records", "decision_space")


def _bytes_written(args, result) -> int:
    paths = (getattr(args[0], dest, None) for dest in CLI_OUTPUTS)
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p))


SPANS = {f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns}

# (counter, traced span, amount per call from the call's args and result)
COUNTERS = [
    ("cart.best_split.rows", "cart.best_split", lambda a, r: len(a[0])),
    ("boosting.predict_batch.rows", "boosting.predict_batch", lambda a, r: len(r)),
    ("boosting.save_model.bytes", "boosting.save_model", lambda a, r: os.path.getsize(a[1])),
    ("contrib.batch_explain.rows", "contrib.batch_explain", lambda a, r: len(r)),
    ("contrib.records", "contrib.decision_contributions", lambda a, r: len(r)),
    ("data.load_csv.bytes", "data.load_csv", lambda a, r: os.path.getsize(a[0])),
    *(("cli.bytes_written", f"cli.{cmd}", _bytes_written) for cmd in TRACED["cli"]),
]

# (parent span, child span) whose summed child time is reported as a metric.
EDGES = {"boosting.stage_update_s": ("boosting.fit_gbdt", "cart.tree_predict")}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.edges = defaultdict(float)
        self.counters = defaultdict(float)
        self.gc_collections = 0
        self.gc_s = 0.0
        self._stack = []
        self._gc_start = 0.0

    def install(self) -> None:
        """Wrap every TRACED function wherever boostcontrib binds it."""
        wrappers = {}
        modules = []
        for short, names in TRACED.items():
            module = importlib.import_module(f"boostcontrib.{short}")
            modules.append(module)
            for fname in names:
                name = f"{short}.{fname}"
                fn = getattr(module, fname)
                counts = [(c, amount) for c, span, amount in COUNTERS if span == name]
                wrappers[id(fn)] = self._wrap(name, fn, counts)
        modules.append(importlib.import_module("boostcontrib"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def _wrap(self, name, fn, counts):
        stat = self.spans[name]
        edges = self.edges
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edges[(parent[0], name)] += elapsed
            for counter, amount in counts:
                counters[counter] += amount(args, result)
            return result

        return traced

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_s += time.perf_counter() - self._gc_start

    @contextmanager
    def recording_gc(self):
        """Count garbage collections and their time while the block runs."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def value(self, metric: str) -> float:
        """Total of one per-layer metric over everything traced so far."""
        if metric in EDGES:
            return self.edges.get(EDGES[metric], 0.0)
        if metric == "python.gc.collections":
            return float(self.gc_collections)
        if metric == "python.gc.s":
            return self.gc_s
        if any(metric == counter for counter, _, _ in COUNTERS):
            return self.counters.get(metric, 0.0)
        span, _, field = metric.rpartition(".")
        if span not in SPANS:
            raise KeyError(f"no traced span for metric {metric!r}")
        index = {"calls": 0, "s": 1, "self_s": 2}[field]
        return float(self.spans[span][index]) if span in self.spans else 0.0

    def dump(self) -> dict:
        """Every span, edge and counter, for the trace file."""
        return {
            "spans": {
                name: {"calls": calls, "s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.spans.items())
                if calls
            },
            "edges": {f"{p} > {c}": s for (p, c), s in sorted(self.edges.items())},
            "counters": dict(sorted(self.counters.items())),
            "gc": {"collections": self.gc_collections, "s": self.gc_s},
        }
