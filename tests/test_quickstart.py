"""README's CLI quick start, run as a user runs it: the synthetic-data script
and ``python -m boostcontrib`` in fresh processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(*argv, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, (argv, done.stdout, done.stderr)
    return done.stdout


def test_cli_quick_start(tmp_path):
    run(ROOT / "scripts" / "make_synthetic.py", "--rows", "200", "--features", "8", "--seed", "0",
        "--out", "syn.csv", cwd=tmp_path)
    data = ["--data", "syn.csv", "--target", "y"]
    run("-m", "boostcontrib", "train", *data, "--n-estimators", "50", "--max-depth", "3",
        "--model-out", "model.json", cwd=tmp_path)
    run("-m", "boostcontrib", "explain", *data, "--model", "model.json", "--out", "explained.csv",
        "--check", cwd=tmp_path)
    assert "all checks passed" in run("-m", "boostcontrib", "verify", *data, "--model", "model.json",
                                      cwd=tmp_path)
