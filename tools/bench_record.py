"""Record one point of the benchmark trajectory as BENCH_<label>.json.

Run from anywhere:

    python3 tools/bench_record.py LABEL [--checkout DIR]

It measures the source checkout DIR (by default the one holding this
script) and writes BENCH_<label>.json at the root of the checkout holding
this script, so a parent commit cloned elsewhere is recorded next to the
change.  It runs the checkout's own ``benchmarks/run.py``, unchanged, once
per workload as a subprocess (seed 1, ``--trace 0``, its own run length)
and keeps each run's last line; then the Tier-1 command with
``--durations=10``, keeping its wall time, its counts and its ten slowest
tests; it counts the lines of each ``src/delpezzo/*.py`` of the checkout,
as ``wc -l`` does, and their total; and it notes the host:
the bare interpreter start with and without ``-S`` (median of 7), nproc,
the Python and numpy versions, and the checkout's git commit.  The runs
are sequential, benchmarks first, so that none shares the CPU with another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("check-r8", "oracle-lowrank", "sweep-r8-k1")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]


def run(cmd: list[str], cwd: Path, env: dict | None = None, check: bool = True) -> str:
    """The stdout of cmd; a failure raises when ``check``, with its stderr."""
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if check and done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def interpreter_start_s(*flags: str) -> float:
    times = []
    for _ in range(7):
        start = time.perf_counter()
        subprocess.run([sys.executable, *flags, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tier1(checkout: Path) -> dict:
    src = str(checkout / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    out = run(TIER1, checkout, env, check=False)  # a failing test is recorded, not fatal
    wall = time.perf_counter() - start
    summary = out.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|xfailed|xpassed|skipped|errors?)", summary)}
    slowest = [{"seconds": float(s), "phase": phase, "test": test}
               for s, phase, test in re.findall(r"^([\d.]+)s (\w+) +(.+)$", out, re.MULTILINE)]
    return {"wall_s": round(wall, 2), "counts": counts, "summary": summary, "slowest": slowest}


def src_lines(checkout: Path) -> dict:
    files = {path.name: path.read_bytes().count(b"\n") for path in sorted((checkout / "src" / "delpezzo").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()

    workloads = {}
    for name in WORKLOADS:
        out = run([sys.executable, "benchmarks/run.py", "--workload", name, "--seed", "1", "--trace", "0"], checkout)
        workloads[name] = json.loads(out.strip().splitlines()[-1])
    record = {
        "label": args.label,
        "git_commit": run(["git", "rev-parse", "HEAD"], checkout).strip(),
        "git_dirty": bool(run(["git", "status", "--porcelain", "--untracked-files=no"], checkout).strip()),
        "workloads": workloads,
        "tier1": tier1(checkout),
        "src_lines": src_lines(checkout),
        "host": {
            "python_c_pass_s": round(interpreter_start_s(), 4),
            "python_S_c_pass_s": round(interpreter_start_s("-S"), 4),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
