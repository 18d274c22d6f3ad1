"""Every demo script runs cleanly in a fresh process and prints its
golden output byte for byte, so a change in what the demos show is a
diff here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [f"demo_{d.stem}.txt" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_pinned(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()
