"""Record one point of the benchmark trajectory as BENCH_<label>.json.

Run from anywhere:

    python3 tools/bench_record.py LABEL [--checkout DIR]

It measures the source checkout DIR (by default the one holding this
script) and writes BENCH_<label>.json at the root of the checkout holding
this script, so a parent commit cloned elsewhere is recorded next to the
change.  It runs the checkout's own ``benchmarks/run.py``, unchanged, once
per workload as a subprocess (seed 1, ``--trace 0``, its own run length)
and keeps each run's last line; then the layers that the workloads do
not see (see ``layers``); then the Tier-1 command with
``--durations=10``, keeping its wall time, its counts and its ten slowest
tests; it counts the lines of each ``src/delpezzo/*.py`` of the checkout,
as ``wc -l`` does, and their total; and it notes the host:
the bare interpreter start with and without ``-S`` (median of 7), nproc,
the Python and numpy versions, and the checkout's git commit.  The runs
are sequential, benchmarks first, so that none shares the CPU with another.
The recorder itself does not import numpy: a child's peak RSS from
``os.wait4`` is at least the recorder's own RSS when it spawned the child
(``subprocess`` spawns by vfork, and exec keeps the high-water mark of the
address space it leaves), and numpy would raise that floor from about 15
to about 28 MB, above a cold ``check``.
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

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("check-r8", "oracle-lowrank", "sweep-r8-k1")
#: (r, k, a_max) of the warm consistency sweeps in the layer record: the
#: rank-8 boxes of the sweep layer, and a box each at ranks 3 and 1.
WARM_SWEEPS = ((8, 1, 4), (8, 1, 12), (8, 1, 20), (8, 2, 12), (3, 1, 40), (1, 1, 200))
#: (r, k, a_max) of the first sweeps of a box in a warm process in the layer
#: record: the kept boxes are cleared before each timed call, so each call
#: builds its box and pairs its failing rows, as a process's first sweep does.
FRESH_BOXES = ((8, 1, 12), (8, 1, 20))
#: Levels k of the fresh (uncached) rank-8 candidate-table builds in the
#: layer record.
TABLE_LEVELS = (1, 2, 4)
#: The warm in-process calls of the ROADMAP state table at r = 8, by row
#: name: each a lambda expression on the modules ``lattice``, ``positivity``
#: and ``reider``, whose default arguments build its classes untimed.
WARM_CALLS = {
    "is_k_very_ample(-2K, 2)": "lambda L=-2 * lattice.canonical_class(8): positivity.is_k_very_ample(L, 2)",
    "is_k_very_ample((3;2,2,0,0,0,0,0,-3), 1).as_dict()":
        "lambda L=lattice.PicardClass(3, (2, 2, 0, 0, 0, 0, 0, -3)): positivity.is_k_very_ample(L, 1).as_dict()",
    "is_effective((1;-10,-10,-10,-10,-10,0,0,0))":
        "lambda E=lattice.PicardClass(1, (-10,) * 5 + (0,) * 3): positivity.is_effective(E)",
    "search_obstructions(-2K, 1)": "lambda L=-2 * lattice.canonical_class(8): reider.search_obstructions(L, 1)",
    # the three shapes of a check-r8 op: nef, not effective, and not nef but effective
    "is_k_very_ample((20;5,4,4,3,3,2,1,0), 1).as_dict()":
        "lambda L=lattice.PicardClass(20, (5, 4, 4, 3, 3, 2, 1, 0)): positivity.is_k_very_ample(L, 1).as_dict()",
    "is_k_very_ample(-(20;5,4,4,3,3,2,1,1), 1).as_dict()":
        "lambda L=-lattice.PicardClass(20, (5, 4, 4, 3, 3, 2, 1, 1)): positivity.is_k_very_ample(L, 1).as_dict()",
    "is_k_very_ample((93;21,24,45,42,23,25,24,41), 1).as_dict()":
        "lambda L=lattice.PicardClass(93, (21, 24, 45, 42, 23, 25, 24, 41)): positivity.is_k_very_ample(L, 1).as_dict()",
    "PicardClass.render at r = 8": "lambda L=lattice.PicardClass(20, (5, 4, 4, 3, 3, 2, 1, 0)): L.render()",
}
#: CLI argv of the cold commands in the layer record.
COLD_COMMANDS = tuple(f"verify --r 8 --k {k} --box {box} --json".split() for k, box in ((1, 12), (1, 20), (2, 12))) + (
    ["check", "--r", "8", "--k", "1", "3;1,1,1,1,1,1,1,1", "--json"],)
#: A fresh process that times, against the package in sys.argv[1], each
#: warm sweep (r, k, a_max) of sys.argv[2] (JSON), each fresh
#: ``_candidate_table(8, k)`` build for k in sys.argv[3], each call of
#: sys.argv[4] (WARM_CALLS) and each first sweep of a box of sys.argv[5]
#: (FRESH_BOXES): one untimed call (for a sweep, it builds its table and
#: box), then the best of 5 timeit repeats, each of the
#: autorange count of calls.  Each row's callable is made inside its own
#: try, so a layer the checkout cannot run, a name it lacks included, is
#: null with its reason and the other rows still run.
WARM_CHILD = """
import json, sys, timeit
sys.path.insert(0, sys.argv[1])
out = {}

def best(key, make):
    try:
        call = make()
        call()
        timer = timeit.Timer(call)
        number = timer.autorange()[0]
        out[key] = min(timer.repeat(5, number)) / number
    except Exception as exc:
        out[key] = repr(exc)

def warm(call):
    from delpezzo import lattice, positivity, reider
    return eval(call, {"lattice": lattice, "positivity": positivity, "reider": reider})

for r, k, a_max in json.loads(sys.argv[2]):
    def sweep():
        from delpezzo.reider import consistency_sweep
        consistency_sweep(r, k, a_max)
    best(f"{r},{k},{a_max}", lambda: sweep)
for k in json.loads(sys.argv[3]):
    def table():
        from delpezzo.bulk import _candidate_table
        _candidate_table.__wrapped__(8, k)
    best(f"table 8,{k}", lambda: table)
for key, call in json.loads(sys.argv[4]).items():
    best(key, lambda: warm(call))
for r, k, a_max in json.loads(sys.argv[5]):
    def fresh_box():
        from delpezzo.bulk import _box_blocks
        from delpezzo.reider import consistency_sweep
        _box_blocks.cache_clear()
        consistency_sweep(r, k, a_max)
    best(f"fresh {r},{k},{a_max}", lambda: fresh_box)
print(json.dumps(out))
"""
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


def cold_run(argv: list[str], checkout: Path, env: dict) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB (the child's own ``ru_maxrss`` from
    ``os.wait4``) and exit code of one cold ``python -m delpezzo`` run."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "delpezzo", *argv], cwd=checkout, env=env,
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def layers(checkout: Path) -> dict:
    """The warm sweeps of WARM_SWEEPS, the fresh rank-8 candidate tables of
    TABLE_LEVELS, the warm calls of WARM_CALLS and the first sweeps of
    FRESH_BOXES, each the median of three fresh processes' best-of-5
    seconds per call, and the cold COLD_COMMANDS,
    the median wall time and peak RSS of 7 rounds that run the commands in
    turn.  A layer the checkout cannot run is null, with its reason."""
    src = str(checkout / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    processes = []
    for _ in range(3):
        argv = [sys.executable, "-c", WARM_CHILD, src, json.dumps(WARM_SWEEPS), json.dumps(TABLE_LEVELS),
                json.dumps(WARM_CALLS), json.dumps(FRESH_BOXES)]
        done = subprocess.run(argv, capture_output=True, text=True)
        reason = (done.stderr.strip().splitlines() or [f"exit code {done.returncode}"])[-1]
        processes.append(json.loads(done.stdout) if done.returncode == 0 else reason)

    def median_of(key: str) -> dict:
        runs = [p[key] if isinstance(p, dict) else p for p in processes]
        if all(isinstance(x, float) for x in runs):
            return {"median_s": statistics.median(runs), "best_of_5_s": runs}
        return {"median_s": None, "reason": next(x for x in runs if not isinstance(x, float))}

    warm = {key: median_of(key) for key in (f"{r},{k},{a_max}" for r, k, a_max in WARM_SWEEPS)}
    tables = {f"8,{k}": median_of(f"table 8,{k}") for k in TABLE_LEVELS}
    calls = {key: median_of(key) for key in WARM_CALLS}
    boxes = {f"{r},{k},{a_max}": median_of(f"fresh {r},{k},{a_max}") for r, k, a_max in FRESH_BOXES}
    rounds = [[cold_run(argv, checkout, env) for argv in COLD_COMMANDS] for _ in range(7)]
    cold = {}
    for i, argv in enumerate(COLD_COMMANDS):
        runs = [round_[i] for round_ in rounds]
        failed = [code for _, _, code in runs if code]
        cold[" ".join(argv)] = {"wall_s": None, "peak_rss_mb": None, "reason": f"exit code {failed[0]}"} if failed else {
            "wall_s": statistics.median(wall for wall, _, _ in runs),
            "peak_rss_mb": statistics.median(rss for _, rss, _ in runs),
            "runs": len(runs),
        }
    return {"warm_sweeps": warm, "fresh_tables": tables, "warm_calls": calls, "fresh_boxes": boxes,
            "cold_commands": cold}


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
        "layers": layers(checkout),
        "tier1": tier1(checkout),
        "src_lines": src_lines(checkout),
        "host": {
            "python_c_pass_s": round(interpreter_start_s(), 4),
            "python_S_c_pass_s": round(interpreter_start_s("-S"), 4),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": run([sys.executable, "-c", "import numpy; print(numpy.__version__)"], ROOT).strip(),
        },
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
