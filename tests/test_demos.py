"""Every demo script runs cleanly in a fresh process, under ``-W error``
and with nothing on stderr, and prints its golden output byte for byte,
so a change in what the demos show is a diff here.  The README's library
quick start runs the same way and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(argv):
    """argv run by this interpreter under ``-W error`` in a fresh process
    that imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", *argv], env=env, capture_output=True, timeout=120)


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [f"demo_{d.stem}.txt" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_pinned(demo):
    done = run_fresh([str(demo)])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert done.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()


def test_readme_quick_start_prints_what_it_says():
    readme = (ROOT / "README.md").read_text()
    block, = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    # each print line states its output in a trailing comment
    said = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert said and all(said)
    done = run_fresh(["-c", block])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert done.stdout.decode().splitlines() == said
