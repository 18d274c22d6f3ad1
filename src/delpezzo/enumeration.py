"""Complete enumeration of the distinguished curve classes.

Two integer systems are solved exhaustively, both by depth-first search
with partial-sum pruning:

* exceptional classes: ``xi.xi = -1`` and ``K.xi = -1``, i.e.
  ``sum(b) = 3a - 1`` and ``sum(b^2) = a^2 + 1``.  Cauchy-Schwarz,
  ``(3a-1)^2 <= r*(a^2+1)`` with r <= 8, forces ``-1 <= a <= 7``; the
  search runs a = 0..7 and asserts that a = 7 contributes nothing (the
  real maximum is 6).  Inside a fixed a the coordinates are confined to
  ``[-1, a]``: an entry >= a+1 makes ``sum(b^2)`` overshoot, and an entry
  <= -2 contradicts Cauchy-Schwarz on the remaining coordinates.

* classes of self-intersection zero and anticanonical degree two:
  ``D.D = 0`` and ``K.D = -2``, i.e. ``sum(b) = 3a - 2`` and
  ``sum(b^2) = a^2``, with b non-negative and sorted ascending.  Here
  Cauchy-Schwarz gives ``a <= 11``; the search runs through a = 12 and
  asserts emptiness there.

Results are returned in a canonical sort order, so any internal
parallel partitioning of the search space could not change the output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .lattice import (
    CurveTypePattern,
    PicardClass,
    SurfaceContext,
    _check_rank,
    canonical_class,
    degree,
    intersect,
    type_pattern,
)

EXCEPTIONAL_A_BOUND = 7  # from (3a-1)^2 <= 8(a^2+1)
NULL_CLASS_A_BOUND = 11  # from (3a-2)^2 <= 8*a^2


def _vectors_with_sums(length, lo, hi, total, total_sq):
    """All tuples of `length` integers in [lo, hi] with the prescribed sum
    and sum of squares, in lexicographic order."""
    out = []
    vec = []

    def rec(slots, s, q):
        if slots == 0:
            if s == 0 and q == 0:
                out.append(tuple(vec))
            return
        rest = slots - 1
        for v in range(lo, hi + 1):
            s2 = s - v
            q2 = q - v * v
            if q2 < 0:
                continue  # v^2 is not monotone over [lo, hi] when lo < 0
            if s2 < rest * lo or s2 > rest * hi:
                continue
            if s2 * s2 > rest * q2:  # Cauchy-Schwarz on the remaining slots
                continue
            vec.append(v)
            rec(rest, s2, q2)
            vec.pop()

    rec(length, total, total_sq)
    return out


def _ascending_vectors(length, hi, total, total_sq):
    """Like _vectors_with_sums but entries are >= 0 and non-decreasing."""
    out = []
    vec = []

    def rec(slots, start, s, q):
        if slots == 0:
            if s == 0 and q == 0:
                out.append(tuple(vec))
            return
        rest = slots - 1
        for v in range(start, hi + 1):
            s2 = s - v
            q2 = q - v * v
            if q2 < 0:
                break  # entries are non-negative here, squares only grow
            if s2 < rest * v:
                break  # later entries are >= v
            if s2 > rest * hi:
                continue
            if s2 * s2 > rest * q2:
                continue
            vec.append(v)
            rec(rest, v, s2, q2)
            vec.pop()

    rec(length, 0, total, total_sq)
    return out


@lru_cache(maxsize=None)
def enumerate_exceptional(r: int) -> tuple[PicardClass, ...]:
    """Every class with self-intersection -1 and anticanonical degree 1.

    Returns the full set (all coordinate permutations, not one per type),
    sorted by (a, b).
    """
    _check_rank(r)
    found = []
    for a in range(0, EXCEPTIONAL_A_BOUND + 1):
        sols = _vectors_with_sums(r, -1, a, 3 * a - 1, a * a + 1)
        if a == EXCEPTIONAL_A_BOUND:
            assert not sols, "Cauchy-Schwarz bound a <= 7 attained; enumeration is unsound"
        found.extend(PicardClass(a, b) for b in sols)
    return tuple(sorted(found, key=PicardClass.sort_key))


@lru_cache(maxsize=None)
def surface_context(r: int) -> SurfaceContext:
    """Context for rank r: the cached exceptional set plus the canonical class."""
    return SurfaceContext(
        r=r, exceptional_set=enumerate_exceptional(r), canonical=canonical_class(r)
    )


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

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "counts": [[pat.render(), n] for pat, n in self.counts],
            "total": self.total,
        }


def exceptional_type_census(r: int) -> ExceptionalTable:
    """Group the exceptional classes at rank r by type pattern."""
    groups = Counter(type_pattern(xi) for xi in enumerate_exceptional(r))
    ordered = tuple(sorted(groups.items(), key=lambda kv: kv[0].sort_key()))
    return ExceptionalTable(r=r, counts=ordered)


@dataclass(frozen=True)
class NullClassRecord:
    """A class D with D.D = 0, K.D = -2 (b ascending), plus its splittings
    into unordered pairs of exceptional classes."""

    representative: PicardClass
    decompositions: tuple[tuple[PicardClass, PicardClass], ...]

    def __post_init__(self):
        assert degree(self.representative) == 0
        assert intersect(canonical_class(self.representative.r), self.representative) == -2
        for xi1, xi2 in self.decompositions:
            assert xi1 + xi2 == self.representative

    def decomposition_shapes(self) -> tuple[tuple[CurveTypePattern, CurveTypePattern], ...]:
        """Distinct unordered type-pattern pairs among the decompositions,
        each pair ordered by descending a0."""
        shapes = {
            tuple(sorted((type_pattern(x1), type_pattern(x2)),
                         key=CurveTypePattern.sort_key, reverse=True))
            for x1, x2 in self.decompositions
        }
        return tuple(sorted(shapes, key=lambda p: (p[0].sort_key(), p[1].sort_key())))


def decompose_null_class(D: PicardClass, ctx: SurfaceContext) -> tuple[tuple[PicardClass, PicardClass], ...]:
    """All unordered pairs {xi1, xi2} of exceptional classes with xi1 + xi2 = D.

    Deduplication is by unordered-pair identity of the exact classes; two
    distinct pairs may well share a type-pattern shape.
    """
    if degree(D) != 0 or intersect(ctx.canonical, D) != -2:
        raise ValueError(f"{D} does not satisfy D.D = 0 and K.D = -2")
    pairs = set()
    for xi in ctx.exceptional_set:
        other = D - xi
        if other in ctx.exceptional_index:
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
    _check_rank(r)
    ctx = surface_context(r)
    records = []
    for a in range(1, NULL_CLASS_A_BOUND + 2):
        sols = _ascending_vectors(r, a, 3 * a - 2, a * a)
        if a == NULL_CLASS_A_BOUND + 1:
            assert not sols, "Cauchy-Schwarz bound a <= 11 attained; enumeration is unsound"
            break
        for b in sols:
            rep = PicardClass(a, b)
            records.append(NullClassRecord(rep, decompose_null_class(rep, ctx)))
    return tuple(records)
