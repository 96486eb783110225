#!/usr/bin/env python3
"""Benchmark of boostcontrib, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory. One process runs one workload, driven by one client in a
closed loop: the next operation starts when the previous one and its output
checks have finished. Workloads, their inputs and the metrics are described
in bench/README.md; metric names and units come from BENCHMARK.json.

--trace 0 runs whole cycles of the workload's operations until S seconds
have passed and prints the end-to-end metrics. --trace 1 wraps the
package's public functions (see tracing.py), runs one cycle whatever S is, and
prints the per-layer metrics per operation. Either way the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before boostcontrib is imported

import os

# One process per workload and no threads of its own: keep numpy's BLAS serial.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # set-up runs this often per timed run; setup_s takes the median


@dataclass
class Run:
    durations: list = field(default_factory=list)  # seconds per operation that passed
    attempted: int = 0
    failed: int = 0
    wrong: bool = False  # some operation's output failed a check
    peak_rss_mb: float = 0.0  # peak resident set at the end of the first cycle


def measure(workload, seconds, around_op) -> Run:
    """Run whole cycles of the workload's operations; time each one alone.

    Runs at least one cycle, and more until `seconds` have passed. Checks
    run after each operation's clock stops; an operation that raises or
    fails a check counts as failed and adds no duration. The peak resident
    set is read after the first cycle, so a program that gets through more
    cycles is not charged for memory it merely had more chances to touch.
    """
    run = Run()
    start = time.perf_counter()
    while not run.peak_rss_mb or time.perf_counter() - start < seconds:
        for operation in workload.operations:
            run.attempted += 1
            try:
                with around_op():
                    begin = time.perf_counter()
                    output = operation()
                    elapsed = time.perf_counter() - begin
            except Exception:
                traceback.print_exc()
                run.failed += 1
                continue
            if workload.check(output):
                run.durations.append(elapsed)
            else:
                print(f"output check failed on operation {run.attempted}", file=sys.stderr)
                run.failed += 1
                run.wrong = True
            del output
        if not run.peak_rss_mb:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def ops_per_s(run: Run) -> float:
    return len(run.durations) / sum(run.durations) if run.durations else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.bc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"boostcontrib imported from {workloads.bc.__file__}, not from {SRC}")
    import_s = time.perf_counter() - START

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    prep = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        begin = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, out)
        prep.append(time.perf_counter() - begin)
    setup_s = import_s + statistics.median(prep)
    workload.check_setup()

    if args.trace:
        tracer = Tracer()
        tracer.install()
        run = measure(workload, 0, tracer.recording_gc)
        metrics = {
            m["name"]: {"value": tracer.value(m["name"]) / run.attempted, "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        trace = {"workload": args.workload, "seed": args.seed, "operations": run.attempted,
                 "traced_ops_per_s": ops_per_s(run), **tracer.dump()}
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(trace, indent=1) + "\n")
    else:
        run = measure(workload, args.seconds, contextlib.nullcontext)
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s(run),
            "op_p50_s": statistics.median(run.durations) if run.durations else 0.0,
            "peak_rss_mb": run.peak_rss_mb,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
