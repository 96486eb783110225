"""The per-layer tracer in bench/tracing.py wraps boostcontrib functions by
name. A rename in the package must fail here, not only when the benchmark
runs with tracing on."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{short}.{name}"
        for short, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"boostcontrib.{short}"), name, None))
    ]
    assert not missing
