"""scripts/bench_pairs.py on one short pair: the file it writes has every key."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_on_one_checkout_writes_every_key(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--base", str(ROOT), "--change", str(ROOT),
         "--pairs", "1", "--seconds", "0", "--first-seed", "5", "--workload", "studies",
         "--label", "test", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert set(result) == {
        "label", "commits", "python", "numpy", "cpu_count", "machine", "pairs", "seconds", "seeds", "workloads",
    }
    assert (result["label"], result["pairs"], result["seconds"], result["seeds"]) == ("test", 1, 0.0, [5])
    assert set(result["commits"]) == {"base", "change"} and result["commits"]["base"] == result["commits"]["change"]
    assert list(result["workloads"]) == ["studies"]
    studies = result["workloads"]["studies"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(studies["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for name, metric in studies["metrics"].items():
        assert set(metric) == {"unit", "better", "base", "change", "change_won", "ratio"}, name
        assert 0 <= metric["change_won"] <= 1
        for side in ("base", "change"):
            assert set(metric[side]) == {"values", "median", "q1", "q3"}
            assert len(metric[side]["values"]) == 1
            assert metric[side]["q1"] == metric[side]["median"] == metric[side]["q3"] == metric[side]["values"][0]
    assert studies["runs"] == [{side: {"correct": True, "attempted": 3, "failed": 0} for side in ("base", "change")}]
