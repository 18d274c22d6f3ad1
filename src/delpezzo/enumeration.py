"""Complete enumeration of the distinguished curve classes.

Three finite integer systems in (a; b) are solved exhaustively, and all
three are symmetric in the b coordinates.  So one search serves them:
:func:`descending_vectors` finds the non-increasing b with a prescribed
range of sum and of sum of squares, by depth-first search with
partial-sum and Cauchy-Schwarz pruning, and :func:`orderings` expands
such a representative into its S_r orbit.  The array forms of the orbits
are in :mod:`delpezzo.bulk`; this module imports no numpy.

* exceptional classes: ``xi.xi = -1`` and ``K.xi = -1``, i.e.
  ``sum(b) = 3a - 1`` and ``sum(b^2) = a^2 + 1``.  Cauchy-Schwarz,
  ``(3a-1)^2 <= r*(a^2+1)`` with r <= 8, forces ``-1 <= a <= 7``; the
  search runs a = 0..7 and checks that a = 7 contributes nothing (the
  real maximum is 6).  Inside a fixed a the coordinates are confined to
  ``[-1, a]``: an entry >= a+1 makes ``sum(b^2)`` overshoot, and an entry
  <= -2 contradicts Cauchy-Schwarz on the remaining coordinates.

* classes of self-intersection zero and anticanonical degree two:
  ``D.D = 0`` and ``K.D = -2``, i.e. ``sum(b) = 3a - 2`` and
  ``sum(b^2) = a^2``, with b non-negative and sorted ascending.  Here
  Cauchy-Schwarz gives ``a <= 11``; the search runs through a = 12 and
  checks emptiness there.

* window candidates for :mod:`delpezzo.reider`: ``(-K).D`` in
  ``[1, 2k+1]`` and ``|D.D| <= k``, i.e. ``sum(b)`` in
  ``[3a - 2k - 1, 3a - 1]`` and ``sum(b^2)`` in ``[a^2 - k, a^2 + k]``,
  in the box of :func:`window_box`, listed by :func:`window_candidates`.

Results are returned in a canonical sort order, so any internal
parallel partitioning of the search space could not change the output.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .lattice import (
    EXCEPTIONAL_CLASS_COUNTS,
    CurveTypePattern,
    PicardClass,
    _check_rank,
    canonical_class,
    degree,
    fiber_class,
    intersect,
    type_pattern,
)

EXCEPTIONAL_A_BOUND = 7  # from (3a-1)^2 <= 8(a^2+1)
NULL_CLASS_A_BOUND = 11  # from (3a-2)^2 <= 8*a^2


def descending_vectors(length, lo, hi, s_lo, s_hi, q_lo, q_hi) -> list[tuple[int, ...]]:
    """Every non-increasing tuple of `length` integers in [lo, hi] whose sum
    lies in [s_lo, s_hi] and whose sum of squares lies in [q_lo, q_hi], in
    descending lexicographic order.

    Depth-first over the coordinates with residual-bound pruning: the
    residual sum must stay reachable by the remaining slots (each in
    [lo, previous entry]), the residual square budget may not go negative,
    and Cauchy-Schwarz, ``residual_sum^2 <= slots * residual_squares``,
    must keep the residual sum within the square budget.
    """
    out = []
    vec = []
    slack = q_hi - q_lo

    def rec(slots, top, s_lo, s_hi, q_left):
        if slots == 0:
            if s_lo <= 0 <= s_hi and q_left <= slack:
                out.append(tuple(vec))
            return
        rest = slots - 1
        for v in range(top, lo - 1, -1):
            q2 = q_left - v * v
            lo2, hi2 = s_lo - v, s_hi - v
            if lo2 > rest * v:
                break  # later entries are <= v; shrinking v only hurts
            if q2 < 0 or hi2 < rest * lo:
                continue  # v^2 is not monotone in v when lo < 0
            if lo2 > 0 and lo2 * lo2 > rest * q2:
                continue
            if hi2 < 0 and hi2 * hi2 > rest * q2:
                continue
            vec.append(v)
            rec(rest, v, lo2, hi2, q2)
            vec.pop()

    rec(length, hi, s_lo, s_hi, q_hi)
    return out


def window_box(k: int) -> tuple[int, int]:
    """alpha_max and beta_min of the window box at level k, by steps (ii)
    and (iv) of the box derivation in :mod:`delpezzo.reider`."""
    return 6 * (2 * k + 1), -(2 * k + 1)


def window_candidates(r: int, k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each (alpha, beta), beta non-increasing, of the window box at level
    k with (-K).D in [1, 2k+1] and |D.D| <= k: one per S_r orbit, alpha
    ascending, then beta descending.  Effectivity is not tested."""
    alpha_max, beta_min = window_box(k)
    for alpha in range(alpha_max + 1):
        s_hi, q = 3 * alpha - 1, alpha * alpha
        for beta in descending_vectors(r, beta_min, alpha, s_hi - 2 * k, s_hi, q - k, q + k):
            yield alpha, beta


def orderings(values) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of the multiset ``values`` once, in ascending
    lexicographic order: from the sorted tuple, each step swaps the last
    ascent ``p[i] < p[i+1]`` with the last entry above ``p[i]`` and
    reverses the tail after i (Narayana's next permutation)."""
    p = sorted(values)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]


@lru_cache(maxsize=None)
def enumerate_exceptional(r: int) -> tuple[PicardClass, ...]:
    """Every class with self-intersection -1 and anticanonical degree 1.

    Returns the full set (all coordinate permutations, not one per type),
    sorted by (a, b), and checked against the classical counts.
    """
    r = _check_rank(r)
    found = []
    for a in range(0, EXCEPTIONAL_A_BOUND + 1):
        sols = descending_vectors(r, -1, a, 3 * a - 1, 3 * a - 1, a * a + 1, a * a + 1)
        if a == EXCEPTIONAL_A_BOUND and sols:
            raise RuntimeError("Cauchy-Schwarz bound a <= 7 attained; enumeration is unsound")
        for rep in sols:
            found.extend(PicardClass(a, b) for b in orderings(rep))
    if len(found) != EXCEPTIONAL_CLASS_COUNTS[r]:
        raise RuntimeError(f"rank {r} has {EXCEPTIONAL_CLASS_COUNTS[r]} exceptional classes, found {len(found)}")
    return tuple(sorted(found, key=PicardClass.sort_key))


@dataclass(frozen=True)
class SurfaceContext:
    """The surface of rank r, whose exceptional classes, as Python integers,
    depend on r alone; the array form of its test curves is
    :func:`delpezzo.bulk.curve_operand`.  Immutable and safe to share;
    :func:`surface_context` caches one per rank.  The five functions that
    take an optional ``ctx`` check it for its rank only."""

    r: int

    def __post_init__(self):
        object.__setattr__(self, "r", _check_rank(self.r))

    @cached_property
    def exceptional_set(self) -> tuple[PicardClass, ...]:
        return enumerate_exceptional(self.r)

    @cached_property
    def exceptional_index(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """Each exceptional class's position in ``exceptional_set``, keyed by
        its ``sort_key()`` ``(a, b)``, for O(1) membership tests and lookups
        without building a class: ``x.sort_key() in ctx.exceptional_index``."""
        return {x.sort_key(): i for i, x in enumerate(self.exceptional_set)}

    @cached_property
    def canonical(self) -> PicardClass:
        """The canonical class ``(-3; -1, ..., -1)`` at rank r."""
        return canonical_class(self.r)

    @property
    def anticanonical(self) -> PicardClass:
        return -self.canonical

    @cached_property
    def test_curves(self) -> tuple[PicardClass, ...]:
        """The exceptional classes, in their (a, b) order, followed at rank 1
        by the fiber ``l - e_1``: L is nef iff it pairs >= 0 with each."""
        if self.r == 1:
            return self.exceptional_set + (fiber_class(),)
        return self.exceptional_set


def surface_context(r: int) -> SurfaceContext:
    """The cached context of rank r."""
    return _surface_context(_check_rank(r))


@lru_cache(maxsize=None)
def _surface_context(r: int) -> SurfaceContext:
    return SurfaceContext(r)


@dataclass(frozen=True)
class ExceptionalTable:
    """Per-type counts of the exceptional classes at one rank."""

    r: int
    counts: tuple[tuple[CurveTypePattern, int], ...]

    @property
    def total(self) -> int:
        return sum(n for _, n in self.counts)

    def count(self, pattern: CurveTypePattern) -> int:
        for pat, n in self.counts:
            if pat == pattern:
                return n
        return 0


def exceptional_type_census(r: int) -> ExceptionalTable:
    """Group the exceptional classes at rank r by type pattern."""
    groups = Counter(type_pattern(xi) for xi in enumerate_exceptional(r))
    ordered = tuple(sorted(groups.items(), key=lambda kv: kv[0].sort_key()))
    return ExceptionalTable(r=r, counts=ordered)


@dataclass(frozen=True)
class NullClassRecord:
    """A class D with D.D = 0, K.D = -2 (b ascending), plus its splittings
    into unordered pairs of exceptional classes; any other D, or a
    splitting that does not sum to D, is refused with ValueError."""

    representative: PicardClass
    decompositions: tuple[tuple[PicardClass, PicardClass], ...]

    def __post_init__(self):
        D = self.representative
        if degree(D) != 0 or intersect(canonical_class(D.r), D) != -2:
            raise ValueError(f"{D} is not a null class: D.D = 0 and K.D = -2 needed")
        for xi1, xi2 in self.decompositions:
            if xi1 + xi2 != D:
                raise ValueError(f"splitting {xi1} + {xi2} does not sum to {D}")

    def decomposition_shapes(self) -> tuple[tuple[CurveTypePattern, CurveTypePattern], ...]:
        """Distinct unordered type-pattern pairs among the decompositions,
        each pair ordered by descending a0."""
        shapes = {
            tuple(sorted((type_pattern(x1), type_pattern(x2)),
                         key=CurveTypePattern.sort_key, reverse=True))
            for x1, x2 in self.decompositions
        }
        return tuple(sorted(shapes, key=lambda p: (p[0].sort_key(), p[1].sort_key())))


def decompose_null_class(D: PicardClass) -> tuple[tuple[PicardClass, PicardClass], ...]:
    """All unordered pairs {xi1, xi2} of exceptional classes with xi1 + xi2 = D.

    Deduplication is by unordered-pair identity of the exact classes; two
    distinct pairs may well share a type-pattern shape.
    """
    surface = _surface_context(D.r)
    if degree(D) != 0 or intersect(surface.canonical, D) != -2:
        raise ValueError(f"{D} does not satisfy D.D = 0 and K.D = -2")
    pairs = set()
    for xi in surface.exceptional_set:
        other = D - xi
        if other.sort_key() in surface.exceptional_index:
            pairs.add(tuple(sorted((xi, other), key=PicardClass.sort_key)))
    return tuple(sorted(pairs, key=lambda p: (p[0].sort_key(), p[1].sort_key())))


@lru_cache(maxsize=None)
def enumerate_null_classes(r: int) -> tuple[NullClassRecord, ...]:
    """All sorted-ascending solutions of D.D = 0, K.D = -2 with b >= 0.

    At rank r only representatives with at most r nonzero coordinates
    exist (the vector has length r).  Records carry every decomposition
    into two exceptional classes.  The a = 1 pencil class l - e_i admits
    none at rank 1, but splits as (l - e_i - e_j) + e_j once r >= 2.
    """
    r = _check_rank(r)
    records = []
    for a in range(1, NULL_CLASS_A_BOUND + 2):
        sols = descending_vectors(r, 0, a, 3 * a - 2, 3 * a - 2, a * a, a * a)
        if a == NULL_CLASS_A_BOUND + 1:
            if sols:
                raise RuntimeError("Cauchy-Schwarz bound a <= 11 attained; enumeration is unsound")
            break
        for b in sorted(sol[::-1] for sol in sols):
            rep = PicardClass(a, b)
            records.append(NullClassRecord(rep, decompose_null_class(rep)))
    return tuple(records)
