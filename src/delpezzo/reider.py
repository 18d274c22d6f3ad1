"""Brute-force verifier for the adjoint-style numeric obstruction window.

Given L and k, put M = L - K.  When M is nef with M.M >= 4k + 5, failure
of k-very ampleness forces an effective divisor D inside the window

    M.D - k - 1 <= D.D  <  M.D / 2  <  k + 1

(the halving is compared in integers: ``2*D.D < M.D`` and
``M.D < 2k + 2``).  This module enumerates every effective class in the
window over a finite box and cross-checks the result against the
inequality-based k-very-ampleness verdicts.

Box derivation, recorded in each outcome (valid for nef L):

  (i)   M.D = L.D + (-K).D >= (-K).D for effective D, and the window
        caps M.D at 2k + 1, so 1 <= (-K).D <= 2k + 1;
  (ii)  6*(-K) - l is nef (asserted at startup for every rank), hence
        alpha := D.l <= 6 * (-K).D <= 6 * (2k + 1);
  (iii) l - e_i is nef, hence beta_i <= alpha;
  (iv)  beta_i < 0 forces e_i as a component with multiplicity -beta_i,
        so (-K).D >= -beta_i and beta_i >= -(2k + 1);
  (v)   the window itself pins 2*D.D < M.D < 2k + 2 and
        D.D >= M.D - k - 1 >= -k, i.e. -k <= D.D <= k.

The (alpha; beta) scan with these prunes depends only on (r, k), so it
runs once per pair and is cached: per alpha, the shared sorted-vector
search of :mod:`delpezzo.enumeration` finds the non-increasing beta in
the box, each representative is tested for effectivity once, and the
table keeps one row per permutation orbit.  One window kernel then tests
the candidates against N rows of M at once, in two stages.  First, the
smallest M.D over each orbit (``bulk.orbit_floor``) drops every
orbit that no row can meet with M.D <= min(D.D + k + 1, 2k + 1), the top
of the window for the orbit's D.D.  Second, only orbits that some row
reaches are expanded, and the exact window runs on their classes against
those rows.  A class that is a witness is certified effective once per
table.  Every array product is exact by the rule of :mod:`delpezzo.bulk`.

``search_obstructions`` runs the kernel on its one M and lists the
witnesses in (a, b) order.  ``consistency_sweep`` runs it on blocks of
box rows and decides each block with array operations: it converts and
pairs each block once, and the pairing rows give the nef filter, the
pairing verdict and the exceptional classes a row pairs below k; the
premise of a nef row is M.M >= 4k + 5 alone (-K pairs >= 1 with every
test curve, so M = L + (-K) is nef with L); the sweep counts witnesses
instead of listing them.  For non-nef L the bounds in (i) and
(v) that use L.D >= 0 are not theorems, so the scan is best-effort
outside the nef cone (the outcome says which box was used).
"""

from __future__ import annotations

import itertools
import math as _math
import operator
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bulk import curve_operand, exact_product, exact_rows, expand_orbit, float_operand, orbit_floor, orbit_sizes
from .lattice import LatticeMismatchError, PicardClass, SurfaceContext, _check_rank, degree, line, point_class
from .enumeration import descending_vectors, surface_context
from .positivity import (
    EXCEPTION_NONE,
    EffectivityCertificate,
    ampleness_level,
    exception_flag,
    is_effective,
    is_nef,
)

#: The scan box grows like (6*(2k+1)) * (2k+2+6*(2k+1))**r before pruning;
#: sweeps refuse above this k and single searches emit a warning.
DESK_SCALE_K = 2

#: Largest exhaustive sweep, measured in box leaves (the descending rows of
#: ``_box_leaves``, before the nef filter); bigger requests must sample instead.
MAX_EXHAUSTIVE_LEAVES = 250_000


@lru_cache(maxsize=None)
def _assert_box_premises(r: int) -> bool:
    """The box derivation needs 6*(-K) - l and every l - e_i nef; refuse to
    search if that ever failed."""
    ctx = surface_context(r)
    guard = 6 * ctx.anticanonical - line(r)
    if not is_nef(guard, ctx):
        raise RuntimeError(f"box premise broken at rank {r}: {guard} is not nef")
    for i in range(1, r + 1):
        if not is_nef(line(r) - point_class(r, i), ctx):
            raise RuntimeError(f"box premise broken at rank {r}: l - e_{i} is not nef")
    return True


def _window_premise(L: PicardClass, k: int, ctx: SurfaceContext) -> tuple[PicardClass, int, str | None]:
    """M = L - K, M.M, and why the window argument does not apply: it
    applies iff M is nef and M.M >= 4k+5 (reason None), for a checked k."""
    M = L - ctx.canonical
    m2 = degree(M)
    if not is_nef(M, ctx):
        return M, m2, f"M = {M} is not nef"
    if m2 < 4 * k + 5:
        return M, m2, f"M.M = {m2} < {4 * k + 5}"
    return M, m2, None


def window_applicable(L: PicardClass, k: int, ctx: SurfaceContext) -> tuple[bool, PicardClass, int]:
    """M = L - K; the window argument applies iff M is nef and M.M >= 4k+5."""
    M, m2, reason = _window_premise(L, ampleness_level(k), ctx)
    return reason is None, M, m2


@dataclass(frozen=True)
class ObstructionWitness:
    """An effective class D inside the numeric window for a given (L, k); a
    failing window triple or certificate is refused with ValueError."""

    D: PicardClass
    MD: int
    D_squared: int
    window: tuple[tuple[int, str, int], ...]
    effectivity_certificate: EffectivityCertificate

    def __post_init__(self):
        # checks that raise, so that they hold under ``python -O`` too
        for lhs, op, rhs in self.window:
            if op not in ("<=", "<"):
                raise ValueError(f"witness {self.D}: window operator {op!r} is not '<=' or '<'")
            if not (lhs <= rhs if op == "<=" else lhs < rhs):
                raise ValueError(f"witness {self.D}: window {lhs} {op} {rhs} fails")
        if self.effectivity_certificate.replay() != self.D:
            raise ValueError(f"witness {self.D}: its certificate replays to another class")

    def as_dict(self) -> dict:
        return {
            "D": self.D.render(),
            "MD": self.MD,
            "D_squared": self.D_squared,
            "window": [[lhs, op, rhs] for lhs, op, rhs in self.window],
            "certificate": self.effectivity_certificate.as_dict(),
        }


@dataclass(frozen=True)
class SearchOutcome:
    """The window search for (L, k); an inapplicable outcome without a
    reason, or with witnesses, is refused with ValueError."""

    subject: PicardClass
    k: int
    applicable: bool
    reason: str | None
    M: PicardClass
    M_squared: int
    witnesses: tuple[ObstructionWitness, ...]
    search_bounds: dict
    nodes_visited: int

    def __post_init__(self):
        if not self.applicable and (self.witnesses or not self.reason):
            raise ValueError(f"search on {self.subject}: an inapplicable outcome needs a reason and no witnesses")

    def as_dict(self) -> dict:
        return {
            "subject": self.subject.render(),
            "r": self.subject.r,
            "k": self.k,
            "applicable": self.applicable,
            "reason": self.reason,
            "M": self.M.render(),
            "M_squared": self.M_squared,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "search_bounds": self.search_bounds,
            "nodes_visited": self.nodes_visited,
        }


@dataclass(frozen=True)
class _CandidateTable:
    """Every effective class in the (r, k) box that could sit in a window:
    (-K).D in [1, 2k+1] and -k <= D.D <= k, held as one row per S_r orbit.

    Built from one sorted-vector search per alpha and one effectivity test
    per representative.  Only orbits that reach the window are expanded,
    each once (``expanded``, keyed by orbit index), as rows of the table's
    product operand; ``certified`` keeps each witness class with its
    certificate, keyed by its coefficients.
    """

    reps: np.ndarray  # (n, r+1) orbit representatives (alpha, beta), beta non-increasing
    squares: np.ndarray  # (n,) self-intersection of each orbit's classes
    sizes: np.ndarray  # (n,) number of classes in each orbit
    expanded: dict = field(default_factory=dict, compare=False, repr=False)
    certified: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def exceptional(self) -> np.ndarray:  # orbits of exceptional classes: D.D = -1 = K.D
        return (self.squares == -1) & (3 * self.reps[:, 0] - self.reps[:, 1:].sum(axis=1) == 1)

    @cached_property
    def size(self) -> int:  # classes in the table: the sum of the orbit sizes
        return int(self.sizes.sum())

    @cached_property
    def operand(self) -> np.ndarray:
        """``reps.T`` as the right operand of exact products (float64 when
        every product with an M row is exact in float64, see float_operand);
        the bound holds for every orbit, whose classes share the entries of
        their representative."""
        return float_operand(self.reps.T)

    def orbit_rows(self, o: int) -> np.ndarray:
        """The classes of orbit o in (a, b) order, in the dtype of
        ``operand``: float64 (integer-valued) or int64."""
        rows = self.expanded.get(o)
        if rows is None:
            rows = self.expanded[o] = expand_orbit(self.operand.T[o])
        return rows

    def witness(self, coeffs: tuple[int, ...]) -> tuple[PicardClass, EffectivityCertificate]:
        """The class (a, *b) = ``coeffs`` and its own certificate (the
        certificate orders tied negative curves by first index, so a
        permuted representative's certificate would differ), against the
        context that admitted it."""
        hit = self.certified.get(coeffs)
        if hit is None:
            a, *b = coeffs
            D = PicardClass(a, tuple(b))
            effective, cert = is_effective(D, surface_context(D.r))
            if not effective:
                raise RuntimeError(f"candidate table let a non-effective class through: {D}")
            hit = self.certified[coeffs] = (D, cert)
        return hit


def _box_bounds(k: int) -> tuple[int, int]:
    """alpha_max and beta_min of the (r, k) scan box, from (ii) and (iv)."""
    return 6 * (2 * k + 1), -(2 * k + 1)


@lru_cache(maxsize=None)
def _candidate_table(r: int, k: int) -> _CandidateTable:
    ctx = surface_context(r)
    _assert_box_premises(r)
    alpha_max, beta_min = _box_bounds(k)
    reps = []
    for alpha in range(0, alpha_max + 1):
        # (-K).D = 3*alpha - sum(beta) in [1, 2k+1] and |D.D| <= k
        found = descending_vectors(
            r, beta_min, alpha, 3 * alpha - (2 * k + 1), 3 * alpha - 1,
            alpha * alpha - k, alpha * alpha + k,
        )
        # Effectivity is invariant under coordinate permutations (the
        # exceptional set is permutation-closed), so test the orbit once.
        reps.extend((alpha, *b) for b in found if is_effective(PicardClass(alpha, b), ctx)[0])
    rows = np.array(reps, dtype=np.int64).reshape(len(reps), r + 1)
    return _CandidateTable(
        reps=rows,
        squares=rows[:, 0] ** 2 - (rows[:, 1:] ** 2).sum(axis=1),
        sizes=orbit_sizes(rows[:, 1:]),  # each beta is non-increasing
    )


def _window_hits(table: _CandidateTable, M: np.ndarray, k: int) -> list[tuple]:
    """Every (class, row) pair inside the window at level k for the N exact
    rows M (see ``bulk.exact_rows``), grouped by orbit: one tuple
    ``(o, C, ci, ri, md)`` per orbit o that has a hit, where C holds the
    orbit's class rows and hit j is class ``C[ci[j]]`` against row
    ``M[ri[j]]``, with M.D = ``md[j]``.

    D.D = d2 is constant on an orbit, so the window md - k - 1 <= d2,
    2*d2 < md, md < 2k+2 is the integer range 2*d2 < md <= top, with
    top = min(d2 + k + 1, 2k + 1) per orbit.  The (N x orbits)
    ``orbit_floor`` of M against the representatives, the smallest M.D
    over each orbit, gives the (orbit, row) pairs whose floor is at most
    top.  Each orbit in such a pair is expanded and meets the window in
    one (orbit size x reaching rows) M.D product.  C is in the dtype of
    the table's operand (integer-valued float64 or int64); md is exact."""
    top = np.minimum(table.squares + k + 1, 2 * k + 1)
    orbit, row = (orbit_floor(M, table.operand).T <= top[:, None]).nonzero()  # grouped by orbit
    if not len(orbit):
        return []
    dual = M[row]  # (m0; -mu) per pair, so that dual @ C.T is M.D
    dual[:, 1:] *= -1
    edges = (np.flatnonzero(np.diff(orbit)) + 1).tolist()
    starts, ends = [0, *edges], [*edges, len(orbit)]
    squares, top = table.squares.tolist(), top.tolist()
    hits = []
    for o, start, end in zip(orbit[starts].tolist(), starts, ends):
        C = table.orbit_rows(o)
        md = exact_product(dual[start:end], C.T).T
        ci, pi = ((2 * squares[o] < md) & (md <= top[o])).nonzero()
        if len(ci):
            hits.append((o, C, ci, row[start + pi], md[ci, pi]))
    return hits


def _witness_rows(table: _CandidateTable, M: np.ndarray, k: int) -> list[tuple[list[int], int, int]]:
    """The window classes of the one exact row M (shape (1, r+1)) as
    (class row, M.D, D.D) triples, in (a, b) order."""
    found = [
        (row, md, int(table.squares[o]))
        for o, C, ci, _, mds in _window_hits(table, M, k)
        for row, md in zip(C[ci].astype(np.int64).tolist(), mds.tolist())
    ]
    return sorted(found)  # distinct rows, so this sorts by (a, b)


def _bounds_record(k: int, table: _CandidateTable) -> dict:
    alpha_max, beta_min = _box_bounds(k)
    return {
        "alpha_max": alpha_max,
        "beta_min": beta_min,
        "beta_max": "alpha",
        "anticanonical_degree_range": [1, 2 * k + 1],
        "d_squared_range": [-k, k],
        "effective_candidates": table.size,
        "derivation": [
            "(i) nef L: M.D = L.D + (-K).D >= (-K).D >= 1 and M.D <= 2k+1",
            "(ii) 6*(-K) - l nef: alpha = D.l <= 6*(-K).D <= 6*(2k+1)",
            "(iii) l - e_i nef: beta_i <= alpha",
            "(iv) beta_i < 0 forces e_i^(-beta_i) as component: beta_i >= -(2k+1)",
            "(v) window: 2*D.D < M.D < 2k+2 and D.D >= M.D - k - 1 >= -k",
            "bounds (i) and (v) use L.D >= 0; outside the nef cone the scan is best-effort",
        ],
    }


def search_obstructions(L: PicardClass, k: int, ctx: SurfaceContext) -> SearchOutcome:
    """Enumerate every effective class in the window for (L, k).

    Not applicable (M not nef, or M.M < 4k+5) returns an empty outcome
    with the reason recorded.  Identical inputs always produce identical
    witness lists in identical (a, b) order.
    """
    k = ampleness_level(k)
    M, m2, reason = _window_premise(L, k, ctx)
    if k > DESK_SCALE_K:
        warnings.warn(
            f"k = {k} is beyond the desk-scale envelope (k <= {DESK_SCALE_K}); "
            f"the scan box has alpha <= {_box_bounds(k)[0]} and may be slow",
            RuntimeWarning,
            stacklevel=2,
        )
    if reason is not None:
        return SearchOutcome(
            subject=L, k=k, applicable=False, reason=reason, M=M, M_squared=m2,
            witnesses=(), search_bounds={}, nodes_visited=0,
        )
    table = _candidate_table(ctx.r, k)
    witnesses = []
    for row, md, d2 in _witness_rows(table, exact_rows([[M.a, *M.b]]), k):
        D, cert = table.witness(tuple(row))
        witnesses.append(
            ObstructionWitness(
                D=D,
                MD=md,
                D_squared=d2,
                window=((md - k - 1, "<=", d2), (2 * d2, "<", md), (md, "<", 2 * k + 2)),
                effectivity_certificate=cert,
            )
        )
    return SearchOutcome(
        subject=L, k=k, applicable=True, reason=None, M=M, M_squared=m2,
        witnesses=tuple(witnesses),
        search_bounds=_bounds_record(k, table),
        nodes_visited=table.size,
    )


@dataclass(frozen=True)
class SweepViolation:
    subject: PicardClass
    kind: str
    detail: str

    def as_dict(self) -> dict:
        return {"subject": self.subject.render(), "kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class SweepSummary:
    r: int
    k: int
    a_max: int
    sample: int | None
    seed: int | None
    scanned: int  # nef classes the loop actually ran on
    covered: int  # nef classes decided (orbit closure in exhaustive mode)
    applicable: int
    passing: int
    failing: int
    exceptions: int
    witness_total: int
    violations: tuple[SweepViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "k": self.k,
            "a_max": self.a_max,
            "sample": self.sample,
            "seed": self.seed,
            "scanned": self.scanned,
            "covered": self.covered,
            "applicable": self.applicable,
            "passing": self.passing,
            "failing": self.failing,
            "exceptions": self.exceptions,
            "witness_total": self.witness_total,
            "violations": [v.as_dict() for v in self.violations],
        }

    def render(self) -> str:
        mode = f"sample {self.sample} (seed {self.seed})" if self.sample else "exhaustive"
        lines = [
            f"sweep r={self.r} k={self.k} a<={self.a_max} [{mode}]",
            f"nef classes scanned: {self.scanned}",
            f"nef classes covered (orbit closure): {self.covered}",
            f"window applicable: {self.applicable}",
            f"k-very ample / failing the pairing test: {self.passing} / {self.failing}",
            f"exception classes (no assertion): {self.exceptions}",
            f"witnesses found: {self.witness_total}",
            f"violations: {len(self.violations)}",
        ]
        lines.extend(f"  VIOLATION {v.kind} at {v.subject}: {v.detail}" for v in self.violations)
        return "\n".join(lines)


#: Box rows decided together.  It bounds the pairing matrices and M.D
#: products of one pass, so a sweep's peak memory does not grow with its box.
_BLOCK_ROWS = 1024


def _box_leaves(r: int, a_max: int) -> np.ndarray:
    """Every (a; b) with 0 <= a <= a_max, b non-increasing and non-negative
    and b_1 + b_2 <= a, in (a ascending, b descending) order.

    A nef class has 0 <= b_i <= a and (for r >= 2) b_i + b_j <= a, so these
    descending-coordinate rows hold every nef orbit of the box.  The tail
    (b_2, ..., b_r) of a leaf is any non-increasing tuple bounded by
    c = min(b_1, a - b_1).  In descending-lex order the tuples bounded by
    a_max // 2 end with exactly those bounded by c, comb(c + r - 1, r - 1)
    of them, so one enumeration of the tuples serves every (a, b_1): each
    pair is repeated once per tuple of its suffix, which is gathered."""
    tails = itertools.combinations_with_replacement(range(a_max // 2, -1, -1), r - 1)
    n_tails = _math.comb(a_max // 2 + r - 1, r - 1)
    tails = np.fromiter(itertools.chain.from_iterable(tails), dtype=np.int64, count=n_tails * (r - 1))
    tails = tails.reshape(n_tails, r - 1)  # r = 1: one empty tail
    a = np.repeat(np.arange(a_max + 1, dtype=np.int64), np.arange(1, a_max + 2))
    b1 = a - (np.arange(len(a)) - a * (a + 1) // 2)  # b_1 from a down to 0
    suffix = np.array([_math.comb(c + r - 1, r - 1) for c in range(a_max // 2 + 1)], dtype=np.int64)
    count = suffix[np.minimum(b1, a - b1)]
    rows = np.empty((int(count.sum()), r + 1), dtype=np.int64)
    rows[:, 0] = np.repeat(a, count)
    rows[:, 1] = np.repeat(b1, count)
    rows[:, 2:] = tails[np.arange(len(rows)) + np.repeat(n_tails - np.cumsum(count), count)]
    return rows


def _box_leaf_count(r: int, a_max: int, cap: float = _math.inf) -> int:
    """``len(_box_leaves(r, a_max))`` without building the leaves, or the
    first partial sum over a that exceeds ``cap``.

    For one a, the c = min(b_1, a - b_1) below a/2 each come from two b_1
    and add comb(c + r - 1, r - 1) leaves each, c = a/2 comes from one;
    by the hockey-stick identity that is
    2*comb(ceil(a/2) + r - 1, r) + [a even]*comb(a/2 + r - 1, r - 1)."""
    total = 0
    for a in range(a_max + 1):
        half = (a + 1) // 2
        total += 2 * _math.comb(half + r - 1, r) + (a % 2 == 0) * _math.comb(a // 2 + r - 1, r - 1)
        if total > cap:
            break
    return total


def _sample_blocks(r: int, a_max: int, seed: int) -> Iterator[np.ndarray]:
    """Seeded candidate rows with 0 <= a <= a_max and every b_i <= a, one
    block per draw of 4096 (a; b), without end."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(0, a_max + 1, size=4096)
        b = rng.integers(0, a_max + 1, size=(4096, r))
        yield np.column_stack([a, b]).astype(np.int64)[(b <= a[:, None]).all(axis=1)]


def _as_class(row: list[int]) -> PicardClass:
    a, *b = row
    return PicardClass(a, tuple(b))


def _row_counts(parts: list[np.ndarray], n: int) -> np.ndarray:
    """How often each of the row indices 0..n-1 occurs in `parts`."""
    return np.bincount(np.concatenate([np.empty(0, dtype=np.intp), *parts]), minlength=n)


def _decide_block(
    L: np.ndarray, P: np.ndarray, k: int, ctx: SurfaceContext, table: _CandidateTable,
) -> tuple[tuple[int, ...], list[SweepViolation]]:
    """The sweep over one block of nef rows L, exact rows (see
    ``bulk.exact_rows``) with their pairing rows P against the test
    curves: the counts (applicable, passing, failing, exceptions,
    witnesses) and the violations, in row order.
    M = L + (-K) of a nef row is nef (-K pairs >= 1 with every test
    curve), so its premise is M.M >= 4k + 5 alone.

    Every verdict is an array comparison.  Python runs once per orbit that
    some row reaches, once per distinct witness class (certified once per
    table), and once per row that is a multiple of -K or breaks a rule.
    """
    K = ctx.canonical
    M = L - np.array([K.a, *K.b], dtype=np.int64)
    m2 = M[:, 0] ** 2 - (M[:, 1:] ** 2).sum(axis=1)
    applicable = np.flatnonzero(m2 >= 4 * k + 5)
    L, M, P = L[applicable], M[applicable], P[applicable]
    n = len(applicable)
    low = P < k  # the exceptional classes come first among the test curves

    hit_rows, exceptional_hits = [], []
    for o, C, ci, ri, md in _window_hits(table, M, k):
        hit_rows.append(ri)
        if table.exceptional[o]:
            exceptional_hits.append(ri[md - 1 < k])  # L.x = M.x - (-K).x = M.x - 1
        for row in C[np.bincount(ci).nonzero()[0]].astype(np.int64).tolist():
            table.witness(tuple(row))
    witnesses = _row_counts(hit_rows, n)
    # Each exceptional class x with L.x < k sits in the window (M.x <= k,
    # x.x = -1), and those hits are the exceptional ones with L.x < k; so a
    # row misses one of them exactly when it has fewer such hits than
    # violating exceptional classes.
    missing_exc = _row_counts(exceptional_hits, n) < low[:, :len(ctx.exceptional_set)].sum(axis=1)

    passes = ~low.any(axis=1)
    # An exception class is a multiple (3m; m, ..., m) of -K.  It satisfies
    # the inequalities without being k-very ample, and the window may or may
    # not show an obstruction for it (it does for -(k+1)K at rank 8, it
    # cannot for -kK), so neither outcome is a violation.
    exception = np.zeros(n, dtype=bool)
    multiple = passes & (L[:, 0] == 3 * L[:, 1]) & (L[:, 1:] == L[:, 1:2]).all(axis=1)
    for i in np.flatnonzero(multiple).tolist():
        exception[i] = exception_flag(_as_class(L[i].tolist()), k, ctx) != EXCEPTION_NONE
    passing = passes & ~exception
    # A k-very-ample class may have no witness at all, so none with D.D <= 0
    # either; a failing one needs a witness and each violating exceptional class.
    flagged = (passing & (witnesses > 0)) | (~passes & ((witnesses == 0) | missing_exc))
    violations = []
    for i in np.flatnonzero(flagged).tolist():
        L_i = _as_class(L[i].tolist())
        violations += _row_violations(L_i, M[i:i + 1], low[i], bool(passing[i]), k, ctx, table)
    counts = (n, int(passing.sum()), int((~passes).sum()), int(exception.sum()), int(witnesses.sum()))
    return counts, violations


def _row_violations(
    L: PicardClass, M: np.ndarray, low: np.ndarray, passing: bool, k: int, ctx: SurfaceContext,
    table: _CandidateTable,
) -> list[SweepViolation]:
    """The violations of one flagged row (M as one exact row, ``low`` its
    test curves that pair below k), worded from its witness list in (a, b)
    order and, for a failing row, the exceptional classes in ``low``."""
    witnesses = _witness_rows(table, M, k)
    if passing:
        unexpected = SweepViolation(L, "unexpected_witness", f"k-very ample but has {len(witnesses)} witnesses")
        return [unexpected] + [
            SweepViolation(L, "nonpositive_square_witness", f"witness {_as_class(row)} with D.D = {d2}")
            for row, _, d2 in witnesses if d2 <= 0
        ]
    if not witnesses:
        return [SweepViolation(L, "missing_witness", "fails the pairing test but has no witnesses")]
    found = {tuple(row) for row, _, _ in witnesses}
    exc = ctx.exceptional_set
    return [
        SweepViolation(L, "missing_exceptional_witness", f"violating class {exc[i]} absent from the witness list")
        for i in np.flatnonzero(low[:len(exc)]).tolist() if (exc[i].a, *exc[i].b) not in found
    ]


def consistency_sweep(
    r: int,
    k: int,
    a_max: int,
    ctx: SurfaceContext | None = None,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> SweepSummary:
    """Cross-check the window search against the pairing criterion.

    For every nef L in the box (exhaustive, or a seeded sample) with the
    window applicable: a k-very-ample class must have zero witnesses; a
    class failing the pairing test must have at least one, and each
    exceptional class it fails against must be among them.  Any breach is
    returned as a violation (and means a genuine bug).

    The rows are decided in blocks of array operations.  Each block of
    candidate rows is converted to exact rows and paired once; its
    pairing rows keep the nef rows and give the pairing verdict and the
    exceptional classes each row pairs below k.  The premise is
    M.M >= 4k + 5 alone (-K pairs >= 1 with every test curve, so
    M = L + (-K) is nef with L), and one orbit-floor product finds the
    candidate orbits that reach each row's window.
    Witnesses are counted, not listed; a row's witness list is built only
    to word its violations.  The exhaustive mode runs on one
    representative per coordinate-permutation orbit, the nef rows among
    the box leaves of ``_box_leaves``: all checks are
    permutation-equivariant, so the representative decides its whole
    orbit (counted in ``covered``).  Desk-scale only: k <= 2.  An
    exhaustive box of more than ``MAX_EXHAUSTIVE_LEAVES`` leaves (counted
    in closed form, before any leaf is built), a negative ``a_max``, a
    ``sample`` below 1, a negative ``seed`` and a sampled box past the
    int64 sampler (``a_max`` above 2**63 - 1) raise ValueError; a k,
    ``a_max``, ``sample`` or ``seed`` that is not an integer raises
    TypeError, a rank that is not an integer in 1..8 raises RankError, and
    a ``ctx`` of another rank raises LatticeMismatchError.  A ``ctx`` must
    be ``surface_context(r)``: the pairing rows always pair against that
    context's test curves (``curve_operand(r)``), while the canonical class
    and exceptional set come from ``ctx``.
    """
    r = _check_rank(r)
    if ctx is None:
        ctx = surface_context(r)
    if ctx.r != r:
        raise LatticeMismatchError(f"context rank {ctx.r} does not match r={r}")
    k, a_max, seed = ampleness_level(k), operator.index(a_max), operator.index(seed)
    if k > DESK_SCALE_K:
        raise ValueError(
            f"consistency_sweep is desk-scale only (k <= {DESK_SCALE_K}, got k = {k}); "
            f"the scan box grows like (6*(2k+1))*(2k+2+6*(2k+1))**r"
        )
    if a_max < 0:
        raise ValueError(f"box bound a_max must be >= 0, got {a_max}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if sample is None:
        if _box_leaf_count(r, a_max, MAX_EXHAUSTIVE_LEAVES) > MAX_EXHAUSTIVE_LEAVES:
            raise ValueError(
                f"exhaustive box a <= {a_max} at rank {r} has more than "
                f"{MAX_EXHAUSTIVE_LEAVES} descending leaves; pass sample= instead"
            )
        leaves = _box_leaves(r, a_max)
        blocks = (leaves[start:start + _BLOCK_ROWS] for start in range(0, len(leaves), _BLOCK_ROWS))
    else:
        sample = operator.index(sample)
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        if a_max > np.iinfo(np.int64).max:
            raise ValueError(f"sampled box a_max = {a_max} is past the int64 sampler's 2**63 - 1")
        blocks = _sample_blocks(r, a_max, seed)
    table = _candidate_table(r, k)

    scanned = covered = 0
    totals = [0] * 5
    violations = []
    for block in blocks:
        L = exact_rows(block)
        P = exact_product(L, curve_operand(r))
        nef = np.flatnonzero(P.min(axis=1) >= 0)
        if sample is not None:
            nef = nef[:sample - scanned]
        rows = L[nef]
        counts, found = _decide_block(rows, P[nef], k, ctx, table)
        scanned += len(rows)
        # a box leaf decides its whole permutation orbit
        covered += len(rows) if sample is not None else int(orbit_sizes(rows[:, 1:]).sum())
        totals = [t + c for t, c in zip(totals, counts)]
        violations += found
        if scanned == sample:
            break
    applicable, passing, failing, exceptions, witness_total = totals
    return SweepSummary(
        r=r, k=k, a_max=a_max, sample=sample, seed=seed if sample else None,
        scanned=scanned, covered=covered, applicable=applicable,
        passing=passing, failing=failing, exceptions=exceptions,
        witness_total=witness_total, violations=tuple(violations),
    )
