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
table keeps one row per permutation orbit.  Each call then tests the
candidates for its own M in two stages.  First, the smallest M.D over
each orbit (one dot product with the representative, by the
rearrangement inequality) drops every orbit that cannot satisfy
M.D < 2k + 2.  Second, only orbits that reach the window are expanded,
and the exact window runs on their classes, in (a, b) order.  A class
emitted as a witness is certified effective once per table.  For non-nef
L the bounds in (i) and (v) that use L.D >= 0 are not theorems, so the
scan is best-effort outside the nef cone (the outcome says which box was
used).
"""

from __future__ import annotations

import math as _math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .lattice import PicardClass, SurfaceContext, degree, line, point_class
from .enumeration import descending_vectors, distinct_permutations, orbit_size, surface_context
from .positivity import (
    EXCEPTION_NONE,
    EffectivityCertificate,
    exact_rows,
    exception_flag,
    is_effective,
    is_nef,
    minimum_pairing_bulk,
    pairing_vector,
)

#: The scan box grows like (6*(2k+1)) * (2k+2+6*(2k+1))**r before pruning;
#: sweeps refuse above this k and single searches emit a warning.
DESK_SCALE_K = 2

#: Largest exhaustive sweep, measured in descending-coordinate orbit
#: representatives before pruning; bigger requests must sample instead.
MAX_EXHAUSTIVE_REPRESENTATIVES = 2 * 10**6


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
    applies iff M is nef and M.M >= 4k+5 (reason None)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    M = L - ctx.canonical
    m2 = degree(M)
    if not is_nef(M, ctx):
        return M, m2, f"M = {M} is not nef"
    if m2 < 4 * k + 5:
        return M, m2, f"M.M = {m2} < {4 * k + 5}"
    return M, m2, None


def window_applicable(L: PicardClass, k: int, ctx: SurfaceContext) -> tuple[bool, PicardClass, int]:
    """M = L - K; the window argument applies iff M is nef and M.M >= 4k+5."""
    M, m2, reason = _window_premise(L, k, ctx)
    return reason is None, M, m2


@dataclass(frozen=True)
class ObstructionWitness:
    """An effective class D inside the numeric window for a given (L, k)."""

    D: PicardClass
    MD: int
    D_squared: int
    window: tuple[tuple[int, str, int], ...]
    effectivity_certificate: EffectivityCertificate

    def __post_init__(self):
        for lhs, op, rhs in self.window:
            assert (lhs <= rhs) if op == "<=" else (lhs < rhs), self.window
        assert self.effectivity_certificate.replay() == self.D

    def as_dict(self) -> dict:
        return {
            "D": self.D.render(),
            "MD": self.MD,
            "D_squared": self.D_squared,
            "window": [[lhs, op, rhs] for lhs, op, rhs in self.window],
            "certificate": {
                "subtracted": [[c.render(), m] for c, m in self.effectivity_certificate.subtracted],
                "terminal": self.effectivity_certificate.terminal.render(),
            },
        }


@dataclass(frozen=True)
class SearchOutcome:
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
        if not self.applicable:
            assert not self.witnesses and self.reason

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
    each once (``expanded``, keyed by representative); ``certified`` keeps
    each witness class with its certificate, keyed by its coefficients.
    """

    reps: np.ndarray  # (n, r+1) orbit representatives (alpha, beta), beta non-increasing
    squares: np.ndarray  # (n,) self-intersection of each orbit's classes
    sizes: np.ndarray  # (n,) number of classes in each orbit
    expanded: dict = field(default_factory=dict, compare=False, repr=False)
    certified: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def size(self) -> int:  # classes in the table: the sum of the orbit sizes
        return int(self.sizes.sum())

    def orbit_rows(self, rep: tuple[int, ...]) -> np.ndarray:
        """The orbit of ``rep`` = (alpha, *beta) as int64 rows."""
        rows = self.expanded.get(rep)
        if rows is None:
            alpha, *beta = rep
            orbit = [(alpha, *perm) for perm in distinct_permutations(beta)]
            rows = self.expanded[rep] = np.array(orbit, dtype=np.int64)
        return rows

    def witness(self, coeffs: tuple[int, ...]) -> tuple[PicardClass, EffectivityCertificate]:
        """The class (a, *b) = ``coeffs`` and its own certificate (the greedy
        reduction breaks ties by first index, so a permuted representative's
        certificate would differ), against the context that admitted it."""
        hit = self.certified.get(coeffs)
        if hit is None:
            a, *b = coeffs
            D = PicardClass(a, tuple(b))
            effective, cert = is_effective(D, surface_context(D.r))
            assert effective, f"candidate table let a non-effective class through: {D}"
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
        sizes=np.array([orbit_size(rep[1:]) for rep in reps], dtype=np.int64),
    )


def _window_rows(table: _CandidateTable, M: PicardClass, k: int) -> list[tuple[list[int], int, int]]:
    """The classes inside the window for (M, k) as (row, M.D, D.D) triples,
    rows in (a, b) order.

    By the rearrangement inequality the smallest M.D over the orbit of
    (alpha; beta) is ``m0*alpha - <sort_desc(mu), sort_desc(beta)>`` for
    M = (m0; mu), exact for any M.  An orbit whose smallest M.D is already
    >= 2k+2 has no class with M.D < 2k+2, so only the other orbits are
    expanded and meet the three window comparisons."""
    floor = table.reps @ exact_rows([M.a, *(-x for x in sorted(M.b, reverse=True))])
    reach = np.flatnonzero(floor < 2 * k + 2)
    if not len(reach):
        return []
    rows = np.concatenate([table.orbit_rows(tuple(rep)) for rep in table.reps[reach].tolist()])
    md = rows @ exact_rows([M.a, *(-x for x in M.b)])
    d2 = np.repeat(table.squares[reach], table.sizes[reach])
    hit = (md - k - 1 <= d2) & (2 * d2 < md) & (md < 2 * k + 2)
    # distinct rows, so this sorts by (a, b); cheaper than np.lexsort on few hits
    return sorted(zip(rows[hit].tolist(), md[hit].tolist(), d2[hit].tolist()))


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
    for row, md, d2 in _window_rows(table, M, k):
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


def _nef_box_rows(r: int, a_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted representatives of all nef classes with 0 <= a <= a_max.

    A nef class has 0 <= b_i <= a and (for r >= 2) b_i + b_j <= a, which
    prunes the descending-coordinate scan hard.  Every sweep assertion is
    equivariant under coordinate permutations (the exceptional set is
    permutation-closed and the exception classes are symmetric), so one
    representative per orbit decides the whole orbit; the returned orbit
    sizes say how many classes each row covers.
    One bulk pairing keeps the nef leaves, as in the sampled sweep; orbit
    sizes are computed for those survivors only.
    """
    leaves = []
    for a in range(0, a_max + 1):
        vec: list[int] = []

        def rec(slots, hi):
            if slots == 0:
                leaves.append((a, *vec))
                return
            for v in range(hi, -1, -1):
                vec.append(v)
                rec(slots - 1, min(v, a - vec[0]))  # pair bound b_1 + b_i <= a
                vec.pop()

        rec(r, a)
    coeffs = np.array(leaves, dtype=np.int64).reshape(len(leaves), r + 1)
    coeffs = coeffs[minimum_pairing_bulk(coeffs, surface_context(r)) >= 0]
    return coeffs, np.array([orbit_size(row[1:]) for row in coeffs.tolist()], dtype=np.int64)


def _nef_sample_rows(r: int, a_max: int, count: int, seed: int) -> np.ndarray:
    """Seeded rejection sample of `count` nef rows with 0 <= a <= a_max."""
    ctx = surface_context(r)
    rng = np.random.default_rng(seed)
    kept = []
    total = 0
    while total < count:
        a = rng.integers(0, a_max + 1, size=4096)
        b = rng.integers(0, a_max + 1, size=(4096, r))
        coeffs = np.column_stack([a, b]).astype(np.int64)
        coeffs = coeffs[(b <= a[:, None]).all(axis=1)]
        coeffs = coeffs[minimum_pairing_bulk(coeffs, ctx) >= 0]
        kept.append(coeffs)
        total += len(coeffs)
    return np.concatenate(kept, axis=0)[:count]


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

    Each row runs one ``search_obstructions`` call, whose outcome says
    whether the window applies.  The exhaustive mode runs on one
    representative per coordinate-permutation orbit: all checks are
    permutation-equivariant, so the representative decides its whole
    orbit (counted in ``covered``).  Desk-scale only: k <= 2.  A negative
    ``a_max``, a ``sample`` below 1, a negative ``seed`` and a sampled box
    past the int64 sampler (``a_max`` above 2**63 - 1) raise ValueError.
    """
    if ctx is None:
        ctx = surface_context(r)
    if ctx.r != r:
        raise ValueError(f"context rank {ctx.r} does not match r={r}")
    if k > DESK_SCALE_K:
        raise ValueError(
            f"consistency_sweep is desk-scale only (k <= {DESK_SCALE_K}); "
            f"the scan box grows like (6*(2k+1))*(2k+2+6*(2k+1))**r"
        )
    if a_max < 0:
        raise ValueError(f"box bound a_max must be >= 0, got {a_max}")
    if sample is None:
        rep_bound = _math.comb(a_max + 1 + r, r + 1)  # descending tuples in the box
        if rep_bound > MAX_EXHAUSTIVE_REPRESENTATIVES:
            raise ValueError(
                f"exhaustive box has up to {rep_bound} orbit representatives "
                f"(> {MAX_EXHAUSTIVE_REPRESENTATIVES}); pass sample= instead"
            )
        coeffs, weights = _nef_box_rows(r, a_max)
    else:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if a_max > np.iinfo(np.int64).max:
            raise ValueError(f"sampled box a_max = {a_max} is past the int64 sampler's 2**63 - 1")
        coeffs = _nef_sample_rows(r, a_max, sample, seed)
        weights = np.ones(len(coeffs), dtype=np.int64)
    scanned = len(coeffs)
    covered = int(weights.sum())

    violations = []
    applicable_n = passing = failing = exceptions = witness_total = 0
    for row in coeffs:
        L = PicardClass(int(row[0]), tuple(int(x) for x in row[1:]))
        outcome = search_obstructions(L, k, ctx)
        if not outcome.applicable:
            continue
        applicable_n += 1
        witness_total += len(outcome.witnesses)
        P = pairing_vector(L, ctx)
        if P.min() >= k:
            if exception_flag(L, k, ctx) != EXCEPTION_NONE:
                # An exception class satisfies the inequalities without
                # being k-very ample; the window may or may not show an
                # obstruction for it (it does for -(k+1)K at rank 8, it
                # cannot for -kK), so neither outcome is a violation.
                exceptions += 1
                continue
            passing += 1
            if outcome.witnesses:
                violations.append(
                    SweepViolation(L, "unexpected_witness",
                                   f"k-very ample but has {len(outcome.witnesses)} witnesses")
                )
            # A k-very-ample class may not even have a witness with
            # D.D <= 0; vacuous when the list is empty.
            for w in outcome.witnesses:
                if w.D_squared <= 0:
                    violations.append(
                        SweepViolation(L, "nonpositive_square_witness",
                                       f"witness {w.D} with D.D = {w.D_squared}")
                    )
        else:
            failing += 1
            if not outcome.witnesses:
                violations.append(
                    SweepViolation(L, "missing_witness", "fails the pairing test but has no witnesses")
                )
            else:
                found = {w.D for w in outcome.witnesses}
                n_exc = len(ctx.exceptional_set)  # the test curves start with them
                for i in np.flatnonzero(P[:n_exc] < k):
                    xi = ctx.exceptional_set[i]
                    if xi not in found:
                        violations.append(
                            SweepViolation(L, "missing_exceptional_witness",
                                           f"violating class {xi} absent from the witness list")
                        )
    return SweepSummary(
        r=r, k=k, a_max=a_max, sample=sample, seed=seed if sample else None,
        scanned=scanned, covered=covered, applicable=applicable_n,
        passing=passing, failing=failing, exceptions=exceptions,
        witness_total=witness_total, violations=tuple(violations),
    )
