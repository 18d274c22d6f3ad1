"""Benchmark of the delpezzo package; see benchmarks/README.md.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload check-r8 --seed 1 --seconds 10 --trace 0

It imports the package from ``src/`` of the same checkout, drives the
public API from one process with one closed-loop caller, checks every
output, and prints a metadata line and then, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones.  Run records and spans go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("check-r8", "oracle-lowrank", "sweep-r8-k1")
SETUP_REPEATS = (5, 1)  # full, quick
SETUP_TIMEOUT_S = 120

#: Speed calibration.  The host's speed drifts by up to 2x within seconds
#: (other tenants share its cores), so raw times of one build swing 30-40%
#: from run to run.  A fixed kernel is timed every CAL_WINDOW_S between
#: operations, so its readings sample the same stretch of time as the
#: operations do, and every reported time is scaled by CAL_REF_S / (mean
#: kernel reading): it reads as on a machine whose kernel time is CAL_REF_S
#: (a quiet 2.1 GHz x86-64 vCPU under CPython 3.11).  Raw times go in the
#: metadata.  The drift does not slow all code alike: integer generator
#: loops by about 1.75x, object allocation by about 1.35x, numpy passes over
#: large arrays by about 1.25x.  So the kernel mixes generator loops and
#: allocation, as the pure-Python workloads do, and for the sweep, which
#: also spends much of its time in numpy window masks, adds such passes.
CAL_REF_S = {False: 0.0032, True: 0.0052}  # keyed by "with numpy passes"
CAL_WINDOW_S = 0.2


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Calibrator:
    """The calibration kernel, optionally with numpy passes."""

    def __init__(self, with_numpy: bool = False):
        self.ref = CAL_REF_S[with_numpy]
        self.rows = None
        if with_numpy:
            import numpy as np

            self.rows = np.random.default_rng(0).integers(-6, 7, size=(50_000, 9))
            self.vec = np.arange(8)

    def __call__(self) -> float:
        """Seconds taken by the kernel: the faster of two runs, with the
        garbage collector paused so that a collection of the package's
        caches is never charged to the kernel."""
        a, b = (3, 1, 2, 5, 1, 0, 2, 1), (1, 2, 0, 1, 3, 1, 1, 2)
        best = math.inf
        gc.disable()
        try:
            for _ in range(2):
                t0 = time.perf_counter()
                s = 0
                for i in range(2500):
                    s += 3 * i - sum(x * y for x, y in zip(a, b))
                objs = [_Pair(i, (i, s)) for i in range(8000)]
                if self.rows is not None:
                    for _ in range(3):
                        ((3 * self.rows[:, 0] - self.rows[:, 1:] @ self.vec) < 4).sum()
                best = min(best, time.perf_counter() - t0)
                del objs
        finally:
            gc.enable()
        return best


def import_package():
    """Import delpezzo from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import delpezzo

    if Path(delpezzo.__file__).resolve().parent != SRC / "delpezzo":
        raise RuntimeError(f"imported delpezzo from {delpezzo.__file__}, not from {SRC}")
    return delpezzo


def setup_child(name: str) -> None:
    """Body of a set-up child: import the package, then build the caches.

    The cache build is pure-Python work and is calibrated like the ops.  The
    import (file reads, extension loading, module code) slows about half as
    much as the kernel in log terms (1.35x when the kernel slows 2x), so it
    is scaled by the square root of the same factor.
    """
    t0 = time.perf_counter()
    dp = import_package()
    import workloads

    import_s = time.perf_counter() - t0
    calibration_kernel = Calibrator()
    cal = [calibration_kernel() for _ in range(3)]
    t1 = time.perf_counter()
    workloads.SETUPS[name](dp)
    build_s = time.perf_counter() - t1
    cal += [calibration_kernel() for _ in range(3)]
    f = calibration_kernel.ref / statistics.median(cal)
    print(json.dumps({"setup_s": import_s * math.sqrt(f) + build_s * f,
                      "import_s": import_s, "raw_build_s": build_s, "kernel_s": statistics.median(cal)}))


def measure_setup(name: str, repeats: int) -> list[dict]:
    """Set-up times of `repeats` fresh child processes, one after another."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child", name],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


@dataclass
class Timing:
    """Per-op latencies (ns per operation) and the kernel readings taken
    between them: ``cuts[j]`` ops had completed when ``cal[j]`` was read."""

    ref: float  # the kernel's reference time
    lat: array = field(default_factory=lambda: array("d"))
    ops: int = 0
    cal: list = field(default_factory=list)
    cuts: list = field(default_factory=list)

    def calibrate(self, reading: float) -> None:
        self.cal.append(reading)
        self.cuts.append(len(self.lat))

    def calibrated(self) -> array:
        """Latencies, each scaled by the reference over the mean kernel
        reading at the two ends of its window."""
        out = array("d")
        for j in range(len(self.cal) - 1):
            f = self.ref / ((self.cal[j] + self.cal[j + 1]) / 2)
            out.extend(x * f for x in self.lat[self.cuts[j]:self.cuts[j + 1]])
        return out

    def rate(self) -> float:
        """Calibrated operations per second of op time (an item's weight is
        the same on every pass, so this is one over the mean latency)."""
        norm = self.calibrated()
        return len(norm) / (sum(norm) / 1e9)


class Stream:
    """Closed loop: one caller, each operation after the previous one returns.

    Items are run in order and cycled.  The first pass checks every output
    in full and feeds the output digest; later passes require each output
    to equal the first-pass output of the same item.
    """

    def __init__(self, wl, dp, ctxs):
        from workloads import digest_line

        self.wl, self.dp, self.ctxs = wl, dp, ctxs
        self.calibrate = Calibrator(wl.calibrate_numpy)
        self.digest_line = digest_line
        self.first: list = [None] * len(wl.items)
        self.digest = hashlib.sha256()
        self.done = 0  # items run so far
        self.attempted = 0
        self.failed = 0

    def run(self, until_s: float | None = None, count: int | None = None, tracer=None) -> Timing:
        """Run until `until_s` seconds have passed and one full pass is done,
        or for exactly `count` items from the start of a pass."""
        wl, items, n = self.wl, self.wl.items, len(self.wl.items)
        if count is not None:
            self.done = -(-self.done // n) * n
        clock = time.perf_counter_ns
        timing = Timing(self.calibrate.ref)
        timing.calibrate(self.calibrate())
        started = time.perf_counter()
        next_cal = started + CAL_WINDOW_S
        while True:
            if count is not None and len(timing.lat) >= count:
                break
            if until_s is not None and self.done >= n and time.perf_counter() >= started + until_s:
                break
            i = self.done % n
            item = items[i]
            if tracer is not None:
                tracer.op = self.done
            t0 = clock()
            try:
                out = wl.op(self.dp, self.ctxs, item)
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, exc
            else:
                error = None
            elapsed = clock() - t0
            weight = wl.weight(out) if error is None else 1
            if error is not None:
                ok = False
                print(f"op {self.done} raised {error!r}", file=sys.stderr)
            elif self.done < n:
                ok = wl.check(item, out)
                self.first[i] = out if ok else None  # a failed item fails on every pass
                self.digest.update(self.digest_line(wl.render(out)))
            else:
                ok = out == self.first[i]
            if not ok and error is None:
                print(f"op {self.done}: output check failed for {item!r}", file=sys.stderr)
            self.done += 1
            self.attempted += weight
            self.failed += 0 if ok else weight
            timing.ops += weight
            timing.lat.append(elapsed / weight)
            if time.perf_counter() >= next_cal:
                timing.calibrate(self.calibrate())
                next_cal = time.perf_counter() + CAL_WINDOW_S
        timing.calibrate(self.calibrate())
        return timing


def tail_quantile(n: int) -> float:
    """The highest quantile, at most 0.99, with at least ten samples beyond it."""
    return max(0.5, min(0.99, 1 - 10 / n))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None when it is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pinned_digest(wl, seed: int, quick: bool) -> str | None:
    """The pinned output digest for this run, if one applies."""
    import workloads

    if wl.seeded and seed != workloads.DEFAULT_SEED:
        return None
    pins = json.loads((HERE / "digests.json").read_text())
    return pins[wl.name]["quick" if quick else "full"]


def per_layer(cold, cold_factor: float, steady, steady_factor: float, overhead: float) -> dict:
    """Per-layer metrics: calls, counts and calibrated self times of the
    steady traced phase, plus the cold set-up phase's first-call times."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for span in ("lattice.intersect", "lattice.PicardClass", "positivity.minimum_pairing",
                 "positivity.is_effective", "positivity.certificate_replay",
                 "positivity.InequalityFamily.evaluate", "positivity.generate_inequality_families",
                 "reider.window_applicable", "reider.search_obstructions"):
        put(f"{span}.calls", steady.calls[span], "count")
        put(f"{span}.self_s", steady.self_ns[span] * steady_factor / 1e9, "s")
    put("positivity.is_effective.steps", steady.counts["positivity.is_effective.steps"], "count")
    put("positivity.is_k_very_ample.self_s", steady.self_ns["positivity.is_k_very_ample"] * steady_factor / 1e9, "s")
    put("reider.consistency_sweep.self_s", steady.self_ns["reider.consistency_sweep"] * steady_factor / 1e9, "s")
    put("reider.search_obstructions.first_s", cold.first_ns.get("reider.search_obstructions", 0) * cold_factor / 1e9, "s")
    put("enumeration.surface_context.self_s", cold.self_ns["enumeration.surface_context"] * cold_factor / 1e9, "s")
    screened = steady.counts["reider.candidates_screened"]
    witnesses = steady.counts["reider.witnesses"]
    put("reider.candidates_screened", screened, "count")
    put("reider.witnesses", witnesses, "count")
    put("reider.witness_yield", witnesses / screened if screened else 0.0, "ratio")
    put("reider.rows_scanned", steady.counts["reider.rows_scanned"], "count")
    put("reider.rows_applicable", steady.counts["reider.rows_applicable"], "count")
    put("trace.overhead_ratio", overhead, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "delpezzo" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'delpezzo'}; run from a delpezzo checkout", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    import numpy as np
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    wl = workloads.build(args.workload, seed, args.quick)
    setup = [] if args.trace else measure_setup(wl.name, SETUP_REPEATS[args.quick])

    dp = import_package()
    if args.trace:
        from tracer import Tracer

        calibration_kernel = Calibrator()
        cal = [calibration_kernel() for _ in range(3)]
        with Tracer("cold") as cold:
            ctxs = wl.setup(dp)
        cal += [calibration_kernel() for _ in range(3)]
        cold_factor = calibration_kernel.ref / statistics.median(cal)
    else:
        ctxs = wl.setup(dp)
    gc.collect()
    stream = Stream(wl, dp, ctxs)
    timing = stream.run(until_s=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the statistics below

    meta = {
        "workload": wl.name, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "quick": args.quick, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": git_commit(), "stream_items": len(wl.items),
        "items_run": stream.done, "timed_ops": timing.ops, "latency_samples": len(timing.lat),
        "calibrations": len(timing.cal),
        "raw_ops_per_s": len(timing.lat) / (sum(timing.lat) / 1e9),
    }
    if args.trace:
        with Tracer("steady") as steady:
            traced = stream.run(count=wl.trace_items, tracer=steady)
        metrics = per_layer(cold, cold_factor, steady, sum(traced.calibrated()) / sum(traced.lat),
                            traced.rate() / timing.rate())
        meta.update(traced_items=wl.trace_items, spans_kept=len(cold.spans) + len(steady.spans),
                    spans_dropped=cold.dropped + steady.dropped)
    else:
        raw, norm = sorted(timing.lat), sorted(timing.calibrated())
        tail = tail_quantile(len(raw))
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setup), "unit": "s"},
            "ops_per_s": {"value": timing.rate(), "unit": "1/s"},
            "op_p50_us": {"value": statistics.median(norm) / 1e3, "unit": "us"},
            "op_tail_us": {"value": percentile(norm, tail) / 1e3, "unit": "us"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        meta.update(setup_runs=setup, tail_quantile=tail, raw_op_p50_us=statistics.median(raw) / 1e3,
                    raw_op_tail_us=percentile(raw, tail) / 1e3)

    digest = stream.digest.hexdigest()
    pinned = pinned_digest(wl, seed, args.quick)
    digest_ok = pinned is None or digest == pinned
    if not digest_ok:
        print(f"output digest {digest} differs from the pinned {pinned}", file=sys.stderr)
    meta.update(output_digest=digest, digest_pinned=pinned is not None,
                failed_ratio=stream.failed / stream.attempted)
    result = {"correct": stream.failed == 0 and digest_ok, "attempted": stream.attempted,
              "failed": stream.failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"metadata": meta, "result": result}, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            cold.write_spans(fh)
            steady.write_spans(fh)
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
