#!/usr/bin/env python3
"""Compare two checkouts with the benchmark, in alternating pairs of runs.

    python3 scripts/bench_pairs.py --base ../parent --change . --pairs 10 \
        --seconds 30 --first-seed 9001 --label pr17 [--workload studies ...]

Pair p runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, with S = first seed + p, the base first
on even pairs and the change first on odd ones, one run at a time. Each run
is a fresh process started in its checkout's root, so each side imports its
own ``src``. A local ``git worktree`` or ``git archive`` of the parent
commit serves as the base; nothing is fetched.

Writes BENCH_<label>.json in --out (default: the change checkout). Per
workload and end-to-end metric of the change's BENCHMARK.json, it holds
each side's per-pair values, median and quartiles, the pairs the change
won, and the ratio of the medians (change over base). It also records the
seeds, both commits, and the Python version, numpy version and CPU count
of this machine. Prints one line per workload and metric as it goes.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def commit(root: Path) -> str | None:
    """The commit checked out at root, with "+dirty" if files differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True).stdout
    return head + ("+dirty" if status.strip() else "")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in root; its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {root} ({workload}, seed {seed}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, help="directory for the file (default: --change)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [args.first_seed + p for p in range(args.pairs)]
    result = {
        "label": args.label,
        "commits": {side: commit(root) for side, root in roots.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for p, seed in enumerate(seeds):
            order = ("base", "change") if p % 2 == 0 else ("change", "base")
            runs.append({side: run_once(roots[side], workload, seed, args.seconds) for side in order})
        metrics = {}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in roots}
            won = sum((c > b) if higher else (c < b) for b, c in zip(values["base"], values["change"]))
            sides = {side: summary(values[side]) for side in roots}
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"], **sides, "change_won": won,
                "ratio": sides["change"]["median"] / sides["base"]["median"] if sides["base"]["median"] else None,
            }
            print(f"{workload} {name}: {sides['base']['median']:.4g} [{sides['base']['q1']:.4g}, "
                  f"{sides['base']['q3']:.4g}] -> {sides['change']['median']:.4g}, change won {won}/{len(runs)}",
                  flush=True)
        result["workloads"][workload] = {
            "metrics": metrics,
            "runs": [{side: {k: run[side][k] for k in ("correct", "attempted", "failed")} for side in roots}
                     for run in runs],
        }
    out = (args.out or roots["change"]) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
