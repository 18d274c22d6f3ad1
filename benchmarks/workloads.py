"""Workloads of the delpezzo benchmark.

Each workload owns a seeded input generator, the operation it times, the
cache set-up that operation needs, and a correctness check applied to the
output of every operation.  The generators use only numpy and an
independent reference (the exceptional classes rebuilt from their seven
types), never the package, so the inputs stay identical across versions
of the package.  The package is passed in as ``dp`` and is only ever
handed the generated classes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 1
K_LEVELS = (0, 1, 2)

# ---------------------------------------------------------------------------
# Independent reference: the exceptional classes (a; b) with xi.xi = -1 and
# K.xi = -1, listed by type as in Manin, *Cubic Forms* §26.  Coordinate
# permutations of these types give every exceptional class at rank <= 8.

EXCEPTIONAL_TYPES = (
    (0, (-1,)),
    (1, (1, 1)),
    (2, (1,) * 5),
    (3, (2,) + (1,) * 6),
    (4, (2,) * 3 + (1,) * 5),
    (5, (2,) * 6 + (1,) * 2),
    (6, (3,) + (2,) * 7),
)
EXCEPTIONAL_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def is_exceptional(a: int, b: tuple[int, ...]) -> bool:
    """The definition: self-intersection -1 and anticanonical degree 1."""
    return a * a - sum(x * x for x in b) == -1 and 3 * a - sum(b) == 1


@lru_cache(maxsize=None)
def exceptional_rows(r: int) -> np.ndarray:
    """All exceptional classes at rank r as int64 rows (a, b_1..b_r)."""
    rows = set()
    for a, mults in EXCEPTIONAL_TYPES:
        if len(mults) <= r:
            padded = mults + (0,) * (r - len(mults))
            rows.update((a, *b) for b in itertools.permutations(padded))
    if len(rows) != EXCEPTIONAL_COUNTS[r] or not all(is_exceptional(x[0], x[1:]) for x in rows):
        raise RuntimeError(f"reference exceptional set at rank {r} is wrong")
    return np.array(sorted(rows), dtype=np.int64)


@lru_cache(maxsize=None)
def test_curves(r: int) -> np.ndarray:
    """The curves nefness is tested against: the exceptional classes, plus
    the fiber l - e_1 at rank 1."""
    X = exceptional_rows(r)
    return np.vstack([X, [[1, 1]]]) if r == 1 else X


def ref_min_pairing(rows: np.ndarray, r: int) -> np.ndarray:
    """Row-wise minimum intersection with the test curves."""
    X = test_curves(r)
    return (rows[:, :1] * X[:, 0] - rows[:, 1:] @ X[:, 1:].T).min(axis=1)


def ref_is_nef(a: int, b: tuple[int, ...]) -> bool:
    return int(ref_min_pairing(np.array([[a, *b]], dtype=np.int64), len(b))[0]) >= 0


def _parse(literal: str) -> tuple[int, tuple[int, ...]]:
    a, b = literal.split(";")
    return int(a), tuple(int(x) for x in b.split(","))


def certificate_ok(a: int, b: tuple[int, ...], subtracted, terminal) -> bool:
    """Replays to (a; b), subtracts only exceptional classes, ends nef.

    ``subtracted`` is a list of ((a, b), multiplicity); ``terminal`` is (a, b).
    """
    ta, tb = terminal
    total_a, total_b = ta, list(tb)
    for (ca, cb), m in subtracted:
        if m < 1 or not is_exceptional(ca, cb):
            return False
        total_a += m * ca
        total_b = [x + m * y for x, y in zip(total_b, cb)]
    return (total_a, tuple(total_b)) == (a, b) and ref_is_nef(ta, tb)


def rr_forces_effective(a: int, b: tuple[int, ...]) -> bool:
    """Riemann-Roch: D.D >= K.D gives chi(D) >= 1, hence D effective once
    h2(D) = h0(K - D) vanishes, which a > -3 ensures: (K - D).l = -3 - a < 0
    against the nef class l."""
    return a > -3 and a * a - sum(x * x for x in b) >= -3 * a + sum(b)


# ---------------------------------------------------------------------------
# Input generators.  Category proportions are fixed per block, so the seed
# only changes which classes are drawn, not the mix.

def _min_nef_a(b: np.ndarray, r: int) -> int:
    """Smallest a >= 1 making (a; b) nef, for b >= 0."""
    X = test_curves(r)
    X = X[X[:, 0] > 0]
    need = -(-(X[:, 1:] @ b) // X[:, 0])  # ceil(xb.b / xa)
    return max(1, int(need.max()))


def _nef(rng, r: int, ample: bool) -> np.ndarray:
    if ample:
        b = rng.integers(1, 6, size=r)  # b_i >= 1 pairs >= 1 with every e_i
        slack = int(rng.integers(1, 4))
    else:
        b = rng.integers(0, 6, size=r)
        b[rng.choice(r, size=int(rng.integers(1, r)), replace=False)] = 0  # pairs 0 with e_i
        slack = int(rng.integers(0, 3))
    return np.array([_min_nef_a(b, r) + slack, *b], dtype=np.int64)


def _non_nef_effective(rng, r: int) -> np.ndarray:
    """Nef N plus enough copies of one exceptional class xi that L.xi < 0."""
    N = _nef(rng, r, ample=bool(rng.integers(0, 2)))
    X = exceptional_rows(r)
    xi = X[int(rng.integers(0, len(X)))]
    n_xi = int(N[0] * xi[0] - N[1:] @ xi[1:])
    return N + (n_xi + int(rng.integers(1, 4))) * xi


def _non_effective_reducing(rng, r: int) -> np.ndarray:
    """b_i > a pairs negatively with the nef class l - e_i, so L is not
    effective; positive anticanonical degree makes the reduction run."""
    while True:
        a = int(rng.integers(1, 9))
        b = rng.integers(-2, 4, size=r)
        b[int(rng.integers(0, r))] = a + int(rng.integers(1, 4))
        if 3 * a - int(b.sum()) >= 1:
            return np.array([a, *b], dtype=np.int64)


def _exception(r: int, j: int) -> tuple[np.ndarray, int]:
    """The named exception classes: -kK and -(k+1)K at r = 8, -K at r = 7, k = 1."""
    if r == 7:
        m, k = 1, 1
    else:
        k = K_LEVELS[(j // 2) % len(K_LEVELS)]
        m = k + j % 2
    return np.array([3 * m] + [m] * r, dtype=np.int64), k


# (rank, category, count) per block of 32 classes.
CHECK_BLOCK = (
    (8, "ample", 7),
    (8, "nef_not_ample", 5),
    (8, "non_nef_effective", 6),
    (8, "non_effective_reducing", 2),
    (8, "non_effective_negative", 2),
    (8, "exception", 2),
    (7, "ample", 2),
    (7, "nef_not_ample", 2),
    (7, "non_nef_effective", 2),
    (7, "non_effective_reducing", 1),
    (7, "exception", 1),
)
CHECK_BLOCK_SIZE = sum(n for _, _, n in CHECK_BLOCK)


@dataclass(frozen=True)
class CheckItem:
    a: int
    b: tuple[int, ...]
    k: int
    effective: bool  # known from the construction
    min_pairing: int  # reference value


def check_items(seed: int, size: int) -> list[CheckItem]:
    rng = np.random.default_rng([seed, 8])
    rows = []
    seen: dict[tuple[int, str], int] = {}
    for _ in range(size // CHECK_BLOCK_SIZE):
        for r, cat, n in CHECK_BLOCK:
            for _ in range(n):
                j = seen.get((r, cat), 0)
                seen[(r, cat)] = j + 1
                k = K_LEVELS[j % len(K_LEVELS)]
                if cat == "exception":
                    L, k = _exception(r, j)
                elif cat in ("ample", "nef_not_ample"):
                    L = _nef(rng, r, ample=cat == "ample")
                elif cat == "non_nef_effective":
                    L = _non_nef_effective(rng, r)
                elif cat == "non_effective_reducing":
                    L = _non_effective_reducing(rng, r)
                else:
                    L = -_nef(rng, r, ample=True)
                rows.append((L, k, not cat.startswith("non_effective")))
    items = []
    for L, k, effective in (rows[i] for i in rng.permutation(len(rows))):
        mp = int(ref_min_pairing(L[None, :], len(L) - 1)[0])
        items.append(CheckItem(int(L[0]), tuple(int(x) for x in L[1:]), k, effective, mp))
    return items


def oracle_items(seed: int, size: int) -> list[tuple[int, tuple[int, ...]]]:
    """Classes from the criterion-7 box a in [-2, 12], b in [-12, 12]^r,
    one third at each rank r = 1, 2, 3."""
    rng = np.random.default_rng([seed, 3])
    items = []
    for j in range(size):
        r = 1 + j % 3
        items.append((int(rng.integers(-2, 13)), tuple(int(x) for x in rng.integers(-12, 13, size=r))))
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# Expected outputs.

def _exception_flag(a: int, b: tuple[int, ...], k: int) -> str:
    r = len(b)
    if r == 8:
        if (a, b) == (3 * k, (k,) * 8):
            return "minus_kK_S8"
        if (a, b) == (3 * (k + 1), (k + 1,) * 8):
            return "minus_k1K_S8"
    if r == 7 and k == 1 and (a, b) == (3, (1,) * 7):
        return "minus_K_S7_k1"
    return "none"


def check_report(item: CheckItem, out: dict) -> bool:
    """Full check of one ``is_k_very_ample(...).as_dict()`` output."""
    a, b, k, mp = item.a, item.b, item.k, item.min_pairing
    flag = _exception_flag(a, b, k)
    square = a * a - sum(x * x for x in b)
    v = out["verdicts"]
    nef = mp >= 0
    if (out["subject"], out["r"], out["k"]) != (f"{a};{','.join(map(str, b))}", len(b), k):
        return False
    if out["degree"] != square or 2 * out["genus"] - 2 != square - 3 * a + sum(b):
        return False
    if (v["nef"], v["spanned"], v["big"]) != (nef, nef, nef and square > 0):
        return False
    if out["exception_flag"] != flag or v["k_very_ample"] != (mp >= k and flag == "none"):
        return False
    violations = out["violations"]
    if bool(violations) != (mp < k) or any(x["value"] >= x["bound"] for x in violations):
        return False
    if any(x["check"] == "nef" for x in violations) != (mp < 0):
        return False
    if v["effective"] != item.effective:
        return False
    cert = out["certificate"]
    if not item.effective:
        return cert is None and not rr_forces_effective(a, b)
    subtracted = [(_parse(c), m) for c, m in cert["subtracted"]]
    return certificate_ok(a, b, subtracted, _parse(cert["terminal"]))


def check_effectivity(item: tuple[int, tuple[int, ...]], out) -> bool:
    """Full check of one ``is_effective`` decision plus its replay."""
    a, b = item
    effective, cert, replayed = out
    if len(b) == 1 and effective != (a >= 0 and a >= b[0]):
        return False
    if rr_forces_effective(a, b) and not effective:
        return False
    if not effective:
        return cert is None and replayed is None
    if (replayed.a, replayed.b) != (a, b):
        return False
    subtracted = [((c.a, c.b), m) for c, m in cert.subtracted]
    return certificate_ok(a, b, subtracted, (cert.terminal.a, cert.terminal.b))


def _render_effectivity(out) -> Any:
    effective, cert, _ = out
    if not effective:
        return None
    return [[[c.render(), m] for c, m in cert.subtracted], cert.terminal.render()]


# ---------------------------------------------------------------------------
# Workload definitions.

SWEEP_R, SWEEP_K = 8, 1


@dataclass(frozen=True)
class Workload:
    """One workload: its inputs and how to set up, run and check them.

    ``weight`` says how many operations one item stands for (the classes a
    sweep covers); ``seeded`` says whether the inputs depend on the seed.
    """

    name: str
    items: list
    setup: Callable[[Any], dict]  # builds the caches, returns what op needs
    op: Callable[[Any, dict, Any], Any]
    check: Callable[[Any, Any], bool]
    render: Callable[[Any], Any]  # JSON form for the output digest
    weight: Callable[[Any], int]
    trace_items: int  # items run by the traced phase
    seeded: bool
    calibrate_numpy: bool = False  # calibration kernel includes numpy passes


def _setup_check(dp) -> dict:
    ctxs = {r: dp.surface_context(r) for r in (7, 8)}
    for r, ctx in ctxs.items():
        dp.generate_inequality_families(r, ctx)
    return ctxs


def _op_check(dp, ctxs, item: CheckItem):
    return dp.is_k_very_ample(dp.PicardClass(item.a, item.b), item.k, ctxs[len(item.b)]).as_dict()


def _setup_oracle(dp) -> dict:
    return {r: dp.surface_context(r) for r in (1, 2, 3)}


def _op_oracle(dp, ctxs, item):
    a, b = item
    effective, cert = dp.is_effective(dp.PicardClass(a, b), ctxs[len(b)])
    return effective, cert, cert.replay() if effective else None


def _setup_sweep(dp) -> dict:
    ctx = dp.surface_context(SWEEP_R)
    # Any applicable (L, k) builds the (8, 1) candidate table; -2K is one.
    dp.search_obstructions(-2 * ctx.canonical, SWEEP_K, ctx)
    return {SWEEP_R: ctx}


def _op_sweep(dp, ctxs, box: int):
    return dp.consistency_sweep(SWEEP_R, SWEEP_K, box, ctxs[SWEEP_R])


SIZES = {
    # workload: (full, quick) stream sizes, or sweep boxes
    "check-r8": (4096, 64),
    "oracle-lowrank": (8192, 96),
    "sweep-r8-k1": (4, 3),
}
TRACE_ITEMS = {"check-r8": (256, 32), "oracle-lowrank": (2048, 96), "sweep-r8-k1": (1, 1)}
# Set-up children look their set-up up here, so they never generate inputs.
SETUPS = {"check-r8": _setup_check, "oracle-lowrank": _setup_oracle, "sweep-r8-k1": _setup_sweep}


def build(name: str, seed: int, quick: bool) -> Workload:
    size = SIZES[name][quick]
    trace_items = TRACE_ITEMS[name][quick]
    if name == "check-r8":
        return Workload(name, check_items(seed, size), _setup_check, _op_check, check_report,
                        lambda out: out, lambda out: 1, trace_items, True)
    if name == "oracle-lowrank":
        return Workload(name, oracle_items(seed, size), _setup_oracle, _op_oracle, check_effectivity,
                        _render_effectivity, lambda out: 1, trace_items, True)
    if name == "sweep-r8-k1":
        return Workload(name, [size], _setup_sweep, _op_sweep,
                        lambda box, out: out.ok and (out.r, out.k, out.a_max) == (SWEEP_R, SWEEP_K, box),
                        lambda out: out.as_dict(), lambda out: out.covered, trace_items, False,
                        calibrate_numpy=True)
    raise ValueError(f"unknown workload {name!r}")


def digest_line(rendered: Any) -> bytes:
    return (json.dumps(rendered, sort_keys=True, separators=(",", ":")) + "\n").encode()
