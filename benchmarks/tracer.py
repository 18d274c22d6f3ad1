"""In-memory span tracer for the benchmark's per-layer metrics.

The tracer wraps the package's public functions from the outside, at
every import site: a module that did ``from .positivity import
is_effective`` holds its own binding, so each binding to the same
function object is replaced, and methods are replaced on their class.
Each wrapped call records a span (id, parent id, name, start, end, op)
and adds its duration, minus the time its wrapped children took, to the
name's self time.  Counters are read from the outputs of the wrapped
calls.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: Spans kept for the trace file; calls beyond this are still counted
#: and timed, only their individual spans are dropped.
SPAN_CAP = 20_000


def _effectivity_steps(result, counts):
    _, cert = result
    if cert is not None:
        counts["positivity.is_effective.steps"] += sum(m for _, m in cert.subtracted)


def _search_counts(outcome, counts):
    # SearchOutcome.nodes_visited is len(candidate table): every candidate
    # screened by the window mask, not a count of search nodes.
    counts["reider.candidates_screened"] += outcome.nodes_visited
    counts["reider.witnesses"] += len(outcome.witnesses)


def _sweep_counts(summary, counts):
    counts["reider.rows_scanned"] += summary.scanned
    counts["reider.rows_applicable"] += summary.applicable


def targets():
    """(span name, owner, attribute, counter) for every traced function."""
    lattice = sys.modules["delpezzo.lattice"]
    enumeration = sys.modules["delpezzo.enumeration"]
    positivity = sys.modules["delpezzo.positivity"]
    reider = sys.modules["delpezzo.reider"]
    return (
        ("lattice.intersect", lattice, "intersect", None),
        ("lattice.PicardClass", lattice.PicardClass, "__init__", None),
        ("enumeration.surface_context", enumeration, "surface_context", None),
        ("positivity.minimum_pairing", positivity, "minimum_pairing", None),
        ("positivity.is_effective", positivity, "is_effective", _effectivity_steps),
        ("positivity.certificate_replay", positivity.EffectivityCertificate, "replay", None),
        ("positivity.InequalityFamily.evaluate", positivity.InequalityFamily, "evaluate", None),
        ("positivity.generate_inequality_families", positivity, "generate_inequality_families", None),
        ("positivity.is_k_very_ample", positivity, "is_k_very_ample", None),
        ("reider.window_applicable", reider, "window_applicable", None),
        ("reider.search_obstructions", reider, "search_obstructions", _search_counts),
        ("reider.consistency_sweep", reider, "consistency_sweep", _sweep_counts),
    )


class Tracer:
    def __init__(self, phase: str):
        self.phase = phase
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.first_ns: dict[str, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op: int | None = None  # the operation the current spans belong to
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, counter):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                self.first_ns.setdefault(name, duration)
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, start, end, self.op))
                else:
                    self.dropped += 1
            if counter is not None:
                counter(result, self.counts)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "delpezzo" or n.startswith("delpezzo.")]
        for name, owner, attr, counter in targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, k) for m in modules for k, v in list(vars(m).items()) if v is original]
            for site, key in sites:
                setattr(site, key, wrapper)
                self._restore.append((site, key, original))

    def uninstall(self) -> None:
        while self._restore:
            site, key, original = self._restore.pop()
            setattr(site, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, fh) -> None:
        for span_id, parent, name, start, end, op in self.spans:
            fh.write(json.dumps({"phase": self.phase, "id": span_id, "parent": parent, "name": name,
                                 "start_ns": start, "end_ns": end, "op": op}) + "\n")
