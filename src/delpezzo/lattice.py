"""Exact integer model of the divisor-class lattice of a blown-up plane.

A divisor class ``a*l - sum(b_i * e_i)`` on the blowup of the projective
plane at ``r`` general points (``1 <= r <= 8``) is stored as the integer
vector ``(a; b_1, ..., b_r)``.  In the basis ``l, e_1, ..., e_r`` the
intersection form is ``diag(1, -1, ..., -1)`` and the canonical class is
``(-3; -1, ..., -1)``; with this sign convention the class of the blown-up
point ``e_i`` is ``(0; ..., -1, ...)``.

The class arithmetic is plain Python integers, exact at any magnitude, and
this module imports no numpy; the array helpers, and the exactness rule of
every array path, are in :mod:`delpezzo.bulk`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import FrozenInstanceError, dataclass, fields

MIN_RANK = 1
MAX_RANK = 8

#: Number of classes with self-intersection -1 and anticanonical degree 1,
#: per rank (Manin, *Cubic Forms* §26).  ``enumeration.enumerate_exceptional``
#: checks its search against it, and ``bulk.sweep_blocks`` slices the
#: exceptional columns by it.
EXCEPTIONAL_CLASS_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


class RankError(ValueError):
    """Number of blown-up points outside the del Pezzo range 1..8."""


class LatticeMismatchError(ValueError):
    """Classes living on lattices of different rank were combined."""


def _check_rank(r: int) -> int:
    """r as a plain int (``operator.index`` admits Python and numpy integers
    and refuses floats), refused outside MIN_RANK..MAX_RANK."""
    try:
        rank = operator.index(r)
    except TypeError:
        rank = None
    if rank is None or not MIN_RANK <= rank <= MAX_RANK:
        raise RankError(f"rank must be an integer in {MIN_RANK}..{MAX_RANK}, got {r!r}")
    return rank


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each slot of a slotted frozen dataclass, in field
    order.  A hand-written ``__init__`` stores each field once through them:
    past the frozen ``__setattr__``, with no attribute lookup by name (as
    ``object.__setattr__`` makes) and no instance dict.

    It also gives cls a ``__setattr__`` and ``__delattr__`` that refuse
    every name with FrozenInstanceError: the ones ``dataclass`` generates
    call ``super()`` on the class ``slots=True`` replaced, so a name that
    is not a field raised TypeError."""
    cls.__setattr__, cls.__delattr__ = _refuse_setattr, _refuse_delattr
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, init=False, slots=True)
class PicardClass:
    """The class ``a*l - sum(b_i * e_i)``, as the vector ``(a; b_1..b_r)``."""

    a: int
    b: tuple[int, ...]

    def __init__(self, a: int, b: tuple[int, ...]):
        # operator.index accepts Python and numpy integers and refuses
        # floats, so 1.5 raises TypeError instead of truncating to 1.
        a, b = operator.index(a), tuple(map(operator.index, b))
        if not MIN_RANK <= len(b) <= MAX_RANK:
            _check_rank(len(b))  # raises
        _set_a(self, a)
        _set_b(self, b)

    @classmethod
    def _trusted(cls, a: int, b: tuple[int, ...]) -> "PicardClass":
        """Internal constructor for a Python int and a tuple of Python ints
        of valid length: skips the coercion and rank check."""
        obj = object.__new__(cls)
        _set_a(obj, a)
        _set_b(obj, b)
        return obj

    @property
    def r(self) -> int:
        return len(self.b)

    def __add__(self, other: "PicardClass") -> "PicardClass":
        _same_rank(self, other)
        return PicardClass(self.a + other.a, tuple(x + y for x, y in zip(self.b, other.b)))

    def __sub__(self, other: "PicardClass") -> "PicardClass":
        _same_rank(self, other)
        return PicardClass(self.a - other.a, tuple(x - y for x, y in zip(self.b, other.b)))

    def __neg__(self) -> "PicardClass":
        return PicardClass(-self.a, tuple(-x for x in self.b))

    def __mul__(self, n: int) -> "PicardClass":
        if not isinstance(n, int):
            return NotImplemented  # the intersection number is intersect(), not *
        return PicardClass(n * self.a, tuple(n * x for x in self.b))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and not any(self.b)

    def sort_key(self) -> tuple:
        return (self.a, self.b)

    def render(self) -> str:
        """Literal form ``a;b1,b2,...`` accepted back by the CLI parser."""
        return f"{self.a};{','.join(map(str, self.b))}"

    def __str__(self) -> str:
        return self.render()


_set_a, _set_b = _slot_setters(PicardClass)


def _same_rank(L1: PicardClass, L2: PicardClass) -> None:
    if L1.r != L2.r:
        raise LatticeMismatchError(f"rank mismatch: {L1.r} vs {L2.r}")


def zero_class(r: int) -> PicardClass:
    r = _check_rank(r)
    return PicardClass(0, (0,) * r)


def line(r: int) -> PicardClass:
    """The pullback ``l`` of a general line in the plane."""
    r = _check_rank(r)
    return PicardClass(1, (0,) * r)


def point_class(r: int, i: int) -> PicardClass:
    """The class of the blown-up point ``e_i`` (1-based), i.e. b_i = -1."""
    r, i = _check_rank(r), operator.index(i)
    if not 1 <= i <= r:
        raise RankError(f"index {i} outside 1..{r}")
    return PicardClass(0, tuple(-1 if j == i else 0 for j in range(1, r + 1)))


def fiber_class() -> PicardClass:
    """``l - e_1`` at rank 1, where it joins the exceptional class as a test curve."""
    return PicardClass(1, (1,))


def canonical_class(r: int) -> PicardClass:
    """The canonical class ``-(3l - sum e_i)`` = ``(-3; -1, ..., -1)``."""
    r = _check_rank(r)
    return PicardClass(-3, (-1,) * r)


def intersect(L1: PicardClass, L2: PicardClass) -> int:
    """Intersection number ``a1*a2 - sum(b1_i * b2_i)``; symmetric bilinear."""
    _same_rank(L1, L2)
    return L1.a * L2.a - sum(x * y for x, y in zip(L1.b, L2.b))


def degree(L: PicardClass) -> int:
    """Self-intersection ``L.L``."""
    return L.a * L.a - sum(map(operator.mul, L.b, L.b))


def sectional_genus(L: PicardClass) -> int:
    """The integer g with ``2g - 2 = L.L + K.L``.

    The sum ``L.L + K.L`` is even for every lattice point (adjunction), so
    the division is exact; a parity failure would mean the lattice model
    itself is broken.
    """
    return _genus(L, degree(L))


def _genus(L: PicardClass, square: int) -> int:
    """Sectional genus of L given its self-intersection ``square``."""
    s = square - 3 * L.a + sum(L.b)  # L.L + K.L
    if s % 2:
        raise RuntimeError(f"adjunction parity violated for {L}")
    return s // 2 + 1


def adjoint(L: PicardClass) -> PicardClass:
    """The adjoint class ``K + L`` = ``(a-3; b_1-1, ..., b_r-1)``."""
    return PicardClass(L.a - 3, tuple(x - 1 for x in L.b))


@dataclass(frozen=True)
class CurveTypePattern:
    """Permutation-invariant signature ``(a0; m1^n1, m2^n2, ...)``.

    ``entries`` lists (multiplicity, count) pairs with multiplicities
    strictly descending and zeros omitted.  Two classes differing by a
    permutation of the ``e_i`` coordinates have equal patterns.  Negative
    multiplicities (the blown-up points themselves, or stranger inputs)
    are retained and exposed via :attr:`has_negative`.
    """

    a0: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # operator.index refuses floats, as in PicardClass
        object.__setattr__(self, "a0", operator.index(self.a0))
        object.__setattr__(self, "entries", tuple((operator.index(m), operator.index(n)) for m, n in self.entries))
        mults = [m for m, _ in self.entries]
        if mults != sorted(mults, reverse=True) or len(set(mults)) != len(mults):
            raise ValueError(f"entries must have strictly descending multiplicities: {self.entries}")
        if any(m == 0 or n <= 0 for m, n in self.entries):
            raise ValueError(f"zero multiplicities or non-positive counts: {self.entries}")

    @property
    def has_negative(self) -> bool:
        return any(m < 0 for m, _ in self.entries)

    def multiplicities(self) -> tuple[int, ...]:
        """The multiset of nonzero b-values, descending, one slot each."""
        return tuple(m for m, n in self.entries for _ in range(n))

    def to_class(self, r: int) -> PicardClass:
        """The class at rank r whose b lists the multiplicities in
        descending order, then zeros: ``(0;-1)`` is ``0;-1,0`` at rank 2."""
        r = _check_rank(r)
        mults = self.multiplicities()
        if len(mults) > r:
            raise RankError(f"pattern {self} needs {len(mults)} coordinates, rank is {r}")
        return PicardClass(self.a0, mults + (0,) * (r - len(mults)))

    def sort_key(self) -> tuple:
        return (self.a0, self.entries)

    def render(self) -> str:
        parts = [f"{m}^{n}" if n > 1 else f"{m}" for m, n in self.entries]
        return f"({self.a0};{','.join(parts)})" if parts else f"({self.a0};)"

    def __str__(self) -> str:
        return self.render()


def type_pattern(L: PicardClass) -> CurveTypePattern:
    """Pattern of L: b sorted descending, zeros dropped, equal values grouped."""
    vals = sorted((x for x in L.b if x != 0), reverse=True)
    entries = tuple((v, len(list(grp))) for v, grp in itertools.groupby(vals))
    return CurveTypePattern(L.a, entries)


def _check_context(r: int, ctx) -> None:
    """Refuse a given ``enumeration.SurfaceContext`` of another rank than r:
    the one reader of the ctx of ``is_effective``, ``is_k_very_ample``,
    ``generate_inequality_families``, ``search_obstructions`` and
    ``consistency_sweep``, kept as the benchmark passes it."""
    if ctx is not None and ctx.r != r:
        raise LatticeMismatchError(f"context rank {ctx.r} does not match r={r}")
