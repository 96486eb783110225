"""The per-layer tracer in bench/tracing.py wraps boostcontrib functions by
name. A rename in the package must fail here, not only when the benchmark
runs with tracing on."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [
        f"{short}.{name}"
        for short, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"boostcontrib.{short}"), name, None))
    ]
    assert not missing


def test_every_per_layer_metric_has_a_value():
    # A fresh tracer, never installed, so nothing in the package is patched:
    # each metric BENCHMARK.json declares must name a span, edge or counter.
    tracer = load_tracing().Tracer()
    metrics = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(metrics) == len(set(metrics)) > 0
    assert {name: tracer.value(name) for name in metrics} == dict.fromkeys(metrics, 0.0)
