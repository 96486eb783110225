"""README's quick starts, run as a user runs them, in fresh processes: the
library code block as a script, and every line of the CLI block, with the
synthetic-data script and ``python -m boostcontrib``. Both blocks are read
out of README.md, so the test fails when the README stops working."""

import os
import shlex
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


def readme_block(heading, lang) -> str:
    """The first ```lang code block after `heading` in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    text = text[text.index(heading):]
    start = text.index(f"```{lang}\n") + len(lang) + 4
    return text[start:text.index("```", start)]


def test_library_quick_start(tmp_path):
    (tmp_path / "quick_start.py").write_text(readme_block("## Quick start (library)", "python"))
    assert run("quick_start.py", cwd=tmp_path)


def test_cli_quick_start(tmp_path):
    # Each command with its files under the working directory instead of /tmp.
    lines = readme_block("## Quick start (CLI)", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line.replace("/tmp/", "")) for line in lines if line and not line.startswith("#")]
    outputs = []
    for program, *args in commands:
        argv = [ROOT / args[0], *args[1:]] if program == "python3" else ["-m", "boostcontrib", *args]
        outputs.append(run(*argv, cwd=tmp_path))
    assert [command[:2] for command in commands] == [
        ["python3", "scripts/make_synthetic.py"], ["boostcontrib", "train"], ["boostcontrib", "explain"],
        ["boostcontrib", "verify"], ["boostcontrib", "experiment"],
    ]
    assert "all checks passed" in outputs[3]
    assert (tmp_path / "corr" / "correlation.csv").is_file()
