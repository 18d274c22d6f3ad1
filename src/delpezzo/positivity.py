"""Decision procedures for effectivity, nefness, spannedness and k-very
ampleness of divisor classes.

The single primitive underneath everything is the pairing of a class
against the test curves: the exceptional set, plus the fiber class
``l - e_1`` at rank 1.  It is computed in two forms.

* nef  <=>  every pairing >= 0           (and nef <=> spanned);
* k-very ample  <=>  every pairing >= k, excluding three explicitly
  enumerated exception classes on the degree-1 and degree-2 surfaces;
* effective  <=>  the exceptional classes that pair negatively are
  pairwise disjoint and the positive part of the Zariski decomposition
  is nef (Zariski, Ann. of Math. 76, 1962; on del Pezzo surfaces every
  negative curve is a (-1)-curve).  That is a closed form: the
  certificate subtracts each negatively pairing class E exactly -L.E
  times, in the order of a greedy reduction that subtracts one unit of
  the most negative class at a time (ties by first index).  Its work
  grows with the number of the greedy's runs: a lone curve's
  multiplicity is one run, but tied curves alternate, one run each per
  level (:func:`is_effective`).  A certificate is summed once, when it
  is built, and its ``replay()`` reads that sum.

The verdicts (nef, big, spanned, k-very ample, and a report's
violations) come from the paper's inequalities: one family per
permutation orbit of test curves, that is per type pattern, the
pairing test folded over that orbit, ``a0*a >= <multiplicities, b> + k``
with both sides sorted.  Each family is held once, as its representative
``(a0; c)``, c sorted descending (:func:`_family_table`), and each rank's
representatives are compiled once into a straight-line kernel
(:func:`_fold_kernel`): it reads every family's value off at most two
prefix sums of b sorted descending, in plain Python integers, so a
verdict is exact at any size and builds no array.  Every verdict and
every effectivity pass runs it through :func:`_fold_values`.

Effectivity needs the negatively pairing curves themselves, and the
same kernel finds them: each fold pass on the positive part built so far
names the curve attaining its minimum, the minimizing family's
representative (:func:`is_effective`).  This module imports no numpy:
the array forms of the pairing (``bulk.curve_operand``) and of the orbit
minima (``bulk.orbit_floor``) are in :mod:`delpezzo.bulk`.
"""

from __future__ import annotations

import itertools
import operator
import sys
from bisect import insort
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

from .lattice import (
    CurveTypePattern,
    LatticeMismatchError,
    PicardClass,
    RankError,
    _check_context,
    _check_rank,
    _genus,
    _same_rank,
    _slot_setters,
    canonical_class,
    degree,
    type_pattern,
    adjoint as adjoint_class,
)
from .enumeration import SurfaceContext, _surface_context, surface_context

EXCEPTION_NONE = "none"
EXCEPTION_MINUS_KK_S8 = "minus_kK_S8"
EXCEPTION_MINUS_K1K_S8 = "minus_k1K_S8"
EXCEPTION_MINUS_K_S7_K1 = "minus_K_S7_k1"


def ampleness_level(k, least: int = 0) -> int:
    """k as a plain int (``operator.index`` admits Python and numpy integers
    and refuses floats), refused below ``least``."""
    k = operator.index(k)
    if k < least:
        raise ValueError(f"k must be >= {least}, got {k}")
    return k


def minimum_pairing(L: PicardClass) -> int:
    """Smallest intersection of L with the test curves at this rank: the
    smallest family value, read off the sorted coefficients of L."""
    return min(_family_values(L))


def is_nef(L: PicardClass) -> bool:
    """True iff L pairs >= 0 with every exceptional class (and with
    ``l - e_1`` at rank 1)."""
    return minimum_pairing(L) >= 0


def is_spanned(L: PicardClass) -> bool:
    """Spanned-by-sections coincides with nef on these surfaces."""
    return is_nef(L)


def is_big(L: PicardClass) -> bool:
    """Nef with positive self-intersection."""
    return is_nef(L) and degree(L) > 0


def _certificate_sum(L: PicardClass, runs) -> PicardClass:
    """``L + sum(m * E)`` over the (E, m) pairs of runs, exact; a class E of
    another rank than L raises LatticeMismatchError."""
    a, b = L.a, list(L.b)
    for cls, mult in runs:
        if len(cls.b) != len(b):
            _same_rank(cls, L)  # raises
        a += mult * cls.a
        for j, x in enumerate(cls.b):
            if x:
                b[j] += mult * x
    return PicardClass._trusted(a, tuple(b))


@dataclass(frozen=True, init=False, slots=True)
class EffectivityCertificate:
    """Replayable witness: L = sum(multiplicity * subtracted class) + terminal,
    where the terminal class is nef (possibly zero).  The runs are kept as a
    tuple of ``(class, int)`` pairs: each multiplicity passes
    ``operator.index``, so ``[[E, 2]]`` is stored as ``((E, 2),)`` and a
    multiplicity of 2.5 raises TypeError.  The sum is taken once, when the
    certificate is built, and kept as ``total`` (outside ``==``, hash, repr
    and :meth:`as_dict`); a class of another rank than the terminal raises
    LatticeMismatchError there, a terminal class that is not nef ValueError."""

    subtracted: tuple[tuple[PicardClass, int], ...]
    terminal: PicardClass
    total: PicardClass = field(init=False, compare=False, repr=False)

    def __init__(self, subtracted: tuple[tuple[PicardClass, int], ...], terminal: PicardClass):
        if not is_nef(terminal):
            raise ValueError(f"certificate ends at {terminal}, which is not nef")
        _store_certificate(self, tuple((cls, operator.index(mult)) for cls, mult in subtracted), terminal)

    @classmethod
    def _trusted(cls, subtracted: tuple, terminal: PicardClass) -> "EffectivityCertificate":
        """Internal constructor for runs that are already a tuple of
        ``(class, Python int)`` pairs and a nef terminal: skips both checks."""
        obj = object.__new__(cls)
        _store_certificate(obj, subtracted, terminal)
        return obj

    def replay(self) -> PicardClass:
        """L, the sum taken when the certificate was built."""
        return self.total

    def as_dict(self) -> dict:
        """Machine-readable form; field names and order are stable."""
        return {
            "subtracted": [[c.render(), m] for c, m in self.subtracted],
            "terminal": self.terminal.render(),
        }


def _store_certificate(cert: EffectivityCertificate, subtracted: tuple, terminal: PicardClass) -> None:
    """Store the runs and the terminal of cert, and their sum as its total."""
    runs = subtracted
    if len(runs) > 1:
        # tied curves alternate over many runs of a few classes: total
        # each class object's multiplicity, then add each class once
        totals: dict[int, list] = {}
        for cls, mult in runs:
            entry = totals.get(id(cls))
            if entry is None:
                totals[id(cls)] = [cls, mult]
            else:
                entry[1] += mult
        runs = totals.values()
    _set_subtracted(cert, subtracted)
    _set_terminal(cert, terminal)
    _set_total(cert, _certificate_sum(terminal, runs) if runs else terminal)


_set_subtracted, _set_terminal, _set_total = _slot_setters(EffectivityCertificate)


def is_effective(L: PicardClass, ctx: SurfaceContext | None = None) -> tuple[bool, EffectivityCertificate | None]:
    """Decide effectivity in closed form, by the Zariski decomposition of L
    along the (-1)-curves.

    Let C be the exceptional classes E with ``L.E < 0``.  If L is effective,
    C is pairwise disjoint (two meeting curves E, E' of C would give
    ``L.E + L.E' >= 0``), each E of C is a fixed component of multiplicity
    at least ``-L.E``, and the positive part ``T = L + sum (L.E) * E`` over
    C is nef.  Conversely a nef T makes ``L = T + sum (-L.E) * E``
    effective.  So L is effective iff C is pairwise disjoint and T is nef;
    the certificate subtracts each E of C ``-L.E`` times and ends at T.

    C is found by fold passes, one curve per pass.  Its points are the e_i
    with ``L.e_i = b_i < 0``, so T starts at ``(a; max(b_i, 0))``.  A pass
    evaluates the families on T and ends the search if T is nef; otherwise
    the minimizing family names a curve E with T.E at the minimum (its
    multiplicities on T's coordinates in descending order, as in
    :func:`_family_table`).  Each curve E' subtracted so far added
    ``(L.E')(E'.E) <= 0`` to T.E, so ``L.E != T.E`` exactly when E meets
    one of them or is not in C, and either way the final T is not nef:
    L is refused.  Otherwise T gains ``(L.E) * E``.  The subtracted curves
    are pairwise disjoint (-1)-curves spanning a negative definite
    sublattice, so there are at most r of them and at most r + 1 passes.

    Its runs are those of the greedy reduction, which subtracts the most
    negatively pairing exceptional class one unit at a time, ties still
    broken by first index in (a, b) order.  Subtracting E of C raises L.E
    by one and leaves the rest of C alone, so the greedy fills levels:
    between consecutive values lo < hi of L.E over C (the last hi is 0) it
    takes every E with ``L.E <= lo`` once per level, in index order.  The
    work grows with the number of runs, not with the multiplicities; a
    level whose tied curves need more runs than ``sys.maxsize`` is refused
    with ValueError.  The certificate is summed once, when it is built:
    the check that it sums to L and every later ``replay()`` read that sum.

    Rank 1 is the monoid generated by ``e_1`` and ``l - e_1``: ``(a; b1)``
    is effective iff ``a >= 0`` and ``a >= b1``.
    """
    _check_context(L.r, ctx)
    return _effectivity(L)


def _effectivity(L: PicardClass, values: list[int] | None = None) -> tuple[bool, EffectivityCertificate | None]:
    """:func:`is_effective`, given the caller's family values of L
    (:func:`_family_values`), if it has them.  A class that is not nef and
    passes the early reject below is searched for C by at most r + 1 fold
    passes on its positive part T (see :func:`is_effective`)."""
    if values is not None and min(values) >= 0:
        # a nef class is its own positive part: C is empty
        return True, EffectivityCertificate._trusted((), L)
    if L.a < 0 or L.a < max(L.b):
        # pairs negatively with the nef class l or some l - e_i; at rank 1
        # this is the whole closed form
        return False, None
    r = len(L.b)
    if r == 1:
        # C is e_1 when b1 < 0, read off L, and T = (a; max(b1, 0)) is
        # nef by the early reject.  The fold search below decides rank 1
        # the same way, but more slowly: without this branch oracle-lowrank
        # (r = 1..3) took 4.9 against 3.2 us per-op p50 on a 2 vCPU host.
        b1 = L.b[0]
        if b1 >= 0:
            return True, EffectivityCertificate._trusted((), L)
        cert = EffectivityCertificate._trusted(
            ((_surface_context(1).exceptional_set[0], -b1),), PicardClass._trusted(L.a, (0,)),
        )
        if cert.total != L:
            raise RuntimeError(f"the certificate of {L} replays to another class")
        return True, cert
    # C, each curve with L.E, and T = L + sum (L.E) * E, one fold pass per
    # curve.  C holds e_i iff L.e_i = b_i < 0, and enumerate_exceptional
    # sorts by (a, b), so e_1..e_r are exceptional_set[0..r-1].
    a, b = L.a, L.b
    found = [(x, i) for i, x in enumerate(b) if x < 0]
    ta, tb = a, [x if x > 0 else 0 for x in b]
    if found or values is None:
        # with no negative b_i, T = L and the caller's values are T's
        values = _fold_values(ta, sorted(tb, reverse=True))
    reps = _family_table(r).reps
    while (low := min(values)) < 0:
        # the minimizing curve, with T.E = low
        e0, *c = reps[values.index(low)]
        e = [0] * r
        for j, m in zip(sorted(range(r), key=tb.__getitem__, reverse=True), c):
            e[j] = m
        v = e0 * a - sum(map(operator.mul, e, b))
        if v != low:
            # E meets a curve already subtracted, or E is not in C
            return False, None
        found.append((v, _surface_context(r).exceptional_index[e0, tuple(e)]))
        ta += v * e0
        tb = [x + v * y for x, y in zip(tb, e)]
        values = _fold_values(ta, sorted(tb, reverse=True))
    if not found:
        return True, EffectivityCertificate._trusted((), L)
    exc = _surface_context(r).exceptional_set
    # the greedy's order: most negative first, ties by first index
    order = sorted(found)
    terminal = PicardClass._trusted(ta, tuple(tb))
    # the greedy's runs by level: `active` holds the curves with L.E <= lo,
    # by index, and the last range ends at L.E = 0; only a range with one
    # active curve (the first) gives a run longer than 1, and it merges
    # with the next range when that range starts with the same curve
    chain: list[tuple[PicardClass, int]] = []
    active: list[int] = []
    for (lo, i), (hi, _) in itertools.pairwise(order + [(0, None)]):
        insort(active, i)
        if hi == lo:
            continue
        if len(active) == 1:
            runs = [(exc[i], hi - lo)]
        elif len(active) * (hi - lo) > sys.maxsize:
            n = len(active) * (hi - lo)
            raise ValueError(f"cannot certify {L}: its tied curves need {n} runs, past sys.maxsize")
        else:
            runs = [(exc[j], 1) for j in active] * (hi - lo)
        if chain and chain[-1][0] is runs[0][0]:
            runs[0] = (runs[0][0], chain.pop()[1] + runs[0][1])
        chain += runs
    cert = EffectivityCertificate._trusted(tuple(chain), terminal)
    if cert.total != L:
        raise RuntimeError(f"the certificate of {L} replays to another class")
    return True, cert


def exception_flag(L: PicardClass, k: int) -> str:
    """Which of the three named exception classes L is, if any.

    On the degree-1 surface neither ``-k*K`` nor ``-(k+1)*K`` is k-very
    ample, and on the degree-2 surface ``-K`` is not very ample, even
    though all three satisfy the intersection inequalities.  k = 0 is
    handled uniformly (so the zero class and ``-K`` are flagged at rank 8);
    k is checked by :func:`ampleness_level`, so a negative or non-integer
    k is refused.
    """
    return _exception_flag(L, ampleness_level(k))


def _exception_flag(L: PicardClass, k: int) -> str:
    """:func:`exception_flag` for a checked level k."""
    # -mK = (3m; m, ..., m); find m, if L is a multiple of -K at all
    m, rem = divmod(L.a, 3)
    r = len(L.b)
    if rem or L.b.count(m) != r:
        return EXCEPTION_NONE
    if r == 8:
        if m == k:
            return EXCEPTION_MINUS_KK_S8
        if m == k + 1:
            return EXCEPTION_MINUS_K1K_S8
    if r == 7 and k == 1 and m == 1:
        return EXCEPTION_MINUS_K_S7_K1
    return EXCEPTION_NONE


@dataclass(frozen=True, init=False, slots=True)
class Violation:
    """One failed inequality: the family, its evaluated value, the bound."""

    check: str  # "nef" or "k_very_ample"
    family: str
    value: int
    bound: int

    def __init__(self, check: str, family: str, value: int, bound: int):
        _set_check(self, check)
        _set_family(self, family)
        _set_value(self, value)
        _set_bound(self, bound)

    def as_dict(self) -> dict:
        return {"check": self.check, "family": self.family, "value": self.value, "bound": self.bound}


_set_check, _set_family, _set_value, _set_bound = _slot_setters(Violation)


@dataclass(frozen=True, init=False, slots=True)
class PositivityReport:
    """All verdicts for one class, with violations and certificates.  It
    stores what was measured (``minimum``, the smallest family value; the
    degree, genus, exception flag and certificate) and reads the five
    verdicts off it: ``effective`` is having a certificate, ``nef`` and
    ``spanned`` are ``minimum >= 0``, ``big`` is nef of positive degree and
    ``k_very_ample`` is ``minimum >= k`` unflagged.  A class with minimum
    >= 1 is ample, so ``__init__`` refuses one of degree <= 0 (ValueError).
    The violations are kept as a tuple (a tuple argument as it is)."""

    subject: PicardClass
    k: int
    minimum: int
    degree: int
    genus: int
    violations: tuple[Violation, ...]
    exception_flag: str
    certificate: EffectivityCertificate | None

    def __init__(
        self, subject: PicardClass, k: int, minimum: int, degree: int, genus: int,
        violations: tuple[Violation, ...], exception_flag: str, certificate: EffectivityCertificate | None,
    ):
        # a check that raises, so that it holds under ``python -O`` too
        if minimum >= 1 and degree <= 0:
            raise ValueError(f"report on {subject}: minimum={minimum} makes it ample, and ample or very ample "
                             f"needs degree > 0, got degree={degree}")
        _set_subject(self, subject)
        _set_k(self, k)
        _set_minimum(self, minimum)
        _set_degree(self, degree)
        _set_genus(self, genus)
        _set_violations(self, tuple(violations))
        _set_exception_flag(self, exception_flag)
        _set_certificate(self, certificate)

    @property
    def effective(self) -> bool:
        return self.certificate is not None

    @property
    def nef(self) -> bool:
        return self.minimum >= 0

    @property
    def spanned(self) -> bool:
        """Spanned-by-sections coincides with nef on these surfaces."""
        return self.nef

    @property
    def big(self) -> bool:
        return self.nef and self.degree > 0

    @property
    def k_very_ample(self) -> bool:
        return self.minimum >= self.k and self.exception_flag == EXCEPTION_NONE

    @property
    def r(self) -> int:
        return self.subject.r

    def as_dict(self) -> dict:
        """Machine-readable form; field names and order are stable."""
        subject = self.subject.render()
        cert = self.certificate
        if cert is None:
            certificate = None
        elif cert.terminal is self.subject and not cert.subtracted:
            # the trivial certificate: its terminal renders as the subject
            certificate = {"subtracted": [], "terminal": subject}
        else:
            certificate = cert.as_dict()
        return {
            "subject": subject,
            "r": self.r,
            "k": self.k,
            "degree": self.degree,
            "genus": self.genus,
            "verdicts": {
                "effective": self.effective,
                "nef": self.nef,
                "big": self.big,
                "spanned": self.spanned,
                "k_very_ample": self.k_very_ample,
            },
            "violations": [v.as_dict() for v in self.violations],
            "exception_flag": self.exception_flag,
            "certificate": certificate,
        }


(
    _set_subject, _set_k, _set_minimum, _set_degree, _set_genus, _set_violations, _set_exception_flag,
    _set_certificate,
) = _slot_setters(PositivityReport)


def is_k_very_ample(L: PicardClass, k: int, ctx: SurfaceContext | None = None) -> PositivityReport:
    """Full positivity report.  Each family's value (the minimum pairing
    over its orbit) is read off the sorted coefficients of L; their
    minimum gives the nef verdict, and the k-very-ample verdict is that
    minimum >= k minus the enumerated exceptions.  A nef class is its own
    effectivity certificate, so only a non-nef class that passes the early
    reject is searched for its negative curves."""
    k = ampleness_level(k)
    _check_context(L.r, ctx)
    values = _family_values(L)
    mp = min(values)
    flag = _exception_flag(L, k)
    _, cert = _effectivity(L, values)
    violations = []
    if mp < k:
        for (nef_label, kva_label), val in zip(_family_table(L.r).labels, values, strict=True):
            if val < 0:
                violations.append(Violation("nef", nef_label, val, 0))
            if val < k:
                violations.append(Violation("k_very_ample", kva_label, val, k))
    square = degree(L)
    # subject, k, minimum, degree, genus, violations, exception_flag, certificate
    return PositivityReport(L, k, mp, square, _genus(L, square), violations, flag, cert)


@dataclass(frozen=True)
class InequalityFamily:
    """One per-type inequality: ``a0 * a >= <b-terms> + k`` for the pattern
    ``source_type`` = (a0; m1^n1, ...), ranging over all choices of distinct
    coordinates, i.e. the pairing test against a whole permutation orbit of
    exceptional classes folded into one line.  A rank that is not an
    integer in 1..8 raises RankError."""

    r: int
    source_type: CurveTypePattern

    def __post_init__(self):
        object.__setattr__(self, "r", _check_rank(self.r))

    def evaluate(self, L: PicardClass) -> int:
        """min over the orbit of the pairing with L: this family's entry of
        :func:`_fold_values` at L.  A family whose pattern is not a test-curve
        type at its rank has no entry and is refused."""
        if len(L.b) != self.r:
            raise LatticeMismatchError(f"class of rank {len(L.b)} evaluated by a rank-{self.r} family")
        try:
            entry = _family_table(self.r).families.index(self)
        except ValueError:
            raise ValueError(f"pattern {self.source_type} is not a test-curve type at rank {self.r}") from None
        return _family_values(L)[entry]

    def satisfied(self, L: PicardClass, k: int) -> bool:
        return self.evaluate(L) >= k

    def label(self, with_k: bool = True) -> str:
        """Symbolic form, e.g. ``a >= b_i + b_j + k`` or ``b_i >= k``."""
        pat = self.source_type
        suffix = " + k" if with_k else ""
        bound = "k" if with_k else "0"
        if pat.entries == ((-1, 1),):
            name = "b_1" if self.r == 1 else "b_i"
            return f"{name} >= {bound}"
        lhs = "a" if pat.a0 == 1 else f"{pat.a0}a"
        letters = iter("ijmn")
        terms = []
        for mult, n in pat.entries:
            coeff = "" if mult == 1 else f"{mult}"
            if self.r == 1:
                terms.append(f"{coeff}b_1")
            elif n == 1:
                terms.append(f"{coeff}b_{next(letters)}")
            elif n == 2:
                x, y = next(letters), next(letters)
                terms.append(f"{coeff}b_{x} + {coeff}b_{y}")
            else:
                terms.append(f"{coeff} sum_{n} b" if coeff else f"sum_{n} b")
        return f"{lhs} >= {' + '.join(terms)}{suffix}"


def generate_inequality_families(r: int, ctx: SurfaceContext | None = None) -> tuple[InequalityFamily, ...]:
    """One family per permutation orbit of the test curves, that is per type
    pattern of ``surface_context(r).test_curves``, sorted by pattern: one per
    exceptional type present at rank r, plus the ``a >= b_1 + k`` fiber
    family at rank 1.
    Evaluating every family at (L, k) is equivalent to pairing L against
    every test curve.

    The families depend on r alone, and the cache is keyed on r only.
    ``ctx`` is optional and checked for its rank only: one of another rank
    than r raises LatticeMismatchError."""
    _check_context(r, ctx)
    return _family_table(r).families


class _FamilyTable(NamedTuple):
    """One rank's families, each with its representative and labels, in
    family order, the representatives compiled into one kernel."""

    families: tuple[InequalityFamily, ...]
    reps: tuple[tuple[int, ...], ...]  # (a0; c), c descending and zero-padded to r
    labels: tuple[tuple[str, str], ...]  # without and with k
    kernel: Callable[[int, list[int]], list[int]]  # see _fold_kernel


@lru_cache(maxsize=None)
def _family_table(r: int) -> _FamilyTable:
    """The families of rank r, sorted by pattern, each with its
    representative ``(a0; c)``: the pattern's multiplicities zero-padded to
    r and sorted descending.  By the rearrangement inequality the family's
    value at L is ``a0 * a - sum c_j s_j``, with s_1 >= ... >= s_r the b_i
    sorted descending.  :func:`_fold_kernel` compiles the representatives
    once; the effectivity search reads them to name a minimizing curve."""
    families, reps, labels = [], [], []
    patterns = {type_pattern(x) for x in surface_context(r).test_curves}
    for pat in sorted(patterns, key=CurveTypePattern.sort_key):
        fam = InequalityFamily(r=r, source_type=pat)
        families.append(fam)
        reps.append((pat.a0, *sorted(pat.to_class(r).b, reverse=True)))
        labels.append((fam.label(with_k=False), fam.label(with_k=True)))
    reps = tuple(reps)
    return _FamilyTable(tuple(families), reps, tuple(labels), _fold_kernel(r, reps))


def _fold_kernel(r: int, reps) -> Callable[[int, list[int]], list[int]]:
    """The representatives of rank r as one generated function
    ``kernel(a, desc)``, built with ``exec`` as :mod:`dataclasses` builds an
    ``__init__``.  Abel summation gives ``sum c_j s_j = sum (c_j - c_{j+1}) S_j``
    (c_{r+1} = 0, S_j the sum of the j largest b_i), at most two nonzero
    terms at rank <= 8, as ``6 * a - S1 - 2 * S8`` for (6; 3, 2^7).  The
    kernel unpacks desc, forms S1..Sr in turn and returns each family's
    value in family order, its coefficients as literals (a zero term
    dropped, a unit one written bare)."""

    def value(a0: int, *c: int) -> str:
        c = (*c, 0)
        terms = [(a0, "a"), *((c[j] - c[j - 1], f"S{j}") for j in range(1, r + 1))]
        parts = [f"{'-' if w < 0 else '+'} {name if abs(w) == 1 else f'{abs(w)} * {name}'}" for w, name in terms if w]
        return " ".join(parts).removeprefix("+ ")

    source = "\n".join([
        f"def fold_kernel_r{r}(a, desc):",
        f"    {''.join(f's{j}, ' for j in range(1, r + 1))}= desc",
        "    S1 = s1",
        *(f"    S{j} = S{j - 1} + s{j}" for j in range(2, r + 1)),
        f"    return [{', '.join(value(*rep) for rep in reps)}]",
    ])
    namespace: dict = {}
    exec(source, {}, namespace)
    return namespace[f"fold_kernel_r{r}"]


def _family_values(L: PicardClass) -> list[int]:
    """Every family's value at L, in family order, as Python integers."""
    return _fold_values(L.a, sorted(L.b, reverse=True))


def _fold_values(a: int, desc: list[int]) -> list[int]:
    """Every family's value at the class (a; desc), desc sorted descending,
    run by the rank's kernel (:func:`_fold_kernel`).  The one caller of
    every kernel; a desc of no rank in 1..8 raises RankError."""
    return _family_table(len(desc)).kernel(a, desc)


def adjoint_report(L: PicardClass, k: int) -> PositivityReport:
    """The (k-1) report of the adjoint class K + L, for L k-very ample.

    Refuses k < 1 and a class L that is not k-very ample (ValueError).
    For rank >= 2 the inequalities always carry over (each pairing drops
    by exactly 1); K + L can still fail to be (k-1)-very ample when it
    lands on an exception class, which happens exactly for L = -2K at
    rank 7, k = 2.  For rank 1 it is (k-1)-very ample iff
    ``a >= b_1 + k + 1``.
    """
    k = ampleness_level(k, 1)
    if not is_k_very_ample(L, k).k_very_ample:
        raise ValueError(f"{L} is not {k}-very ample; adjoint check needs that")
    return is_k_very_ample(adjoint_class(L), k - 1)


def adjoint_kva_check(L: PicardClass, k: int) -> bool:
    """Whether K + L is (k-1)-very ample, given that L is k-very ample
    (see :func:`adjoint_report`)."""
    return adjoint_report(L, k).k_very_ample


def degree_bound_check(L: PicardClass, k: int) -> bool:
    """Assert-style check ``degree(L) >= k^2 + 3k + 2`` for k-very ample L
    with k >= 2 and L != -kK.  Expected to hold always."""
    k = ampleness_level(k, 2)
    if L == -k * canonical_class(L.r):
        raise ValueError(f"{L} = -{k}K is excluded from the degree bound")
    if not is_k_very_ample(L, k).k_very_ample:
        raise ValueError(f"{L} is not {k}-very ample; degree bound needs that")
    return degree(L) >= k * k + 3 * k + 2


# Rank-1 surface in ruled-surface coordinates: the class a0*E0 + b*f with
# E0 = e_1 the section of square -1 and f = l - e_1 the fiber.

def f1_coords(L: PicardClass) -> tuple[int, int]:
    """(a0, b) with L = a0*E0 + b*f; inverse of :func:`f1_class`."""
    if L.r != 1:
        raise RankError(f"ruled-surface coordinates need rank 1, got {L.r}")
    return (L.a - L.b[0], L.a)


def f1_class(a0: int, b: int) -> PicardClass:
    """The class ``b*l - (b - a0)*e_1`` of a0*E0 + b*f."""
    return PicardClass(b, (b - a0,))


def f1_is_k_very_ample(a0: int, b: int, k: int) -> bool:
    """k-very ampleness in (a0, b) coordinates: a0 >= k and b >= a0 + k."""
    a0, b, k = operator.index(a0), operator.index(b), ampleness_level(k)
    return a0 >= k and b >= a0 + k
