"""Exact integer model of the divisor-class lattice of a blown-up plane.

A divisor class ``a*l - sum(b_i * e_i)`` on the blowup of the projective
plane at ``r`` general points (``1 <= r <= 8``) is stored as the integer
vector ``(a; b_1, ..., b_r)``.  In the basis ``l, e_1, ..., e_r`` the
intersection form is ``diag(1, -1, ..., -1)`` and the canonical class is
``(-3; -1, ..., -1)``; with this sign convention the class of the blown-up
point ``e_i`` is ``(0; ..., -1, ...)``.

The class arithmetic is plain Python integers, exact at any magnitude.
The array helpers at the end of this module hold the one exactness rule
of every numpy path in the package.  Bulk inputs refuse non-integers, as
PicardClass does.  Class rows are int64 only while
every entry is within SAFE_COEFF_BOUND (:func:`exact_rows`), object
arrays of Python integers beyond it, so no result wraps; an int64 block
is at most shifted by a class of small coefficients such as K.  A right
operand B is float64 (:func:`float_operand`) only when every partial sum
of such a row against a column of B is an integer below
FLOAT_EXACT_BOUND = 2**53, which float64 holds exactly however BLAS
splits and orders the sums; :func:`exact_product` runs any other pair
on Python integers.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MIN_RANK = 1
MAX_RANK = 8

#: Coefficient magnitude up to which the numpy pairing routines use int64;
#: larger inputs are computed exactly on Python integers instead.  The
#: pure-Python operations in this module have no limit.
SAFE_COEFF_BOUND = 10**6

#: Integers of magnitude up to this are float64 numbers, so a float64
#: product whose partial sums all stay below it is exact in any order.
FLOAT_EXACT_BOUND = 2**53

#: Number of classes with self-intersection -1 and anticanonical degree 1,
#: per rank.  Used as a construction-time sanity check on SurfaceContext;
#: the enumeration module recomputes these from scratch.
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


@dataclass(frozen=True, init=False)
class PicardClass:
    """The class ``a*l - sum(b_i * e_i)``, as the vector ``(a; b_1..b_r)``."""

    a: int
    b: tuple[int, ...]

    def __init__(self, a: int, b: tuple[int, ...]):
        # operator.index accepts Python and numpy integers and refuses
        # floats, so 1.5 raises TypeError instead of truncating to 1.
        a, b = operator.index(a), tuple(map(operator.index, b))
        _check_rank(len(b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def _trusted(cls, a: int, b: tuple[int, ...]) -> "PicardClass":
        """Internal constructor for a Python int and a tuple of Python ints
        of valid length: skips the coercion and rank check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "a", a)
        object.__setattr__(obj, "b", b)
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
    assert s % 2 == 0, f"adjunction parity violated for {L}"
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


@dataclass(frozen=True)
class SurfaceContext:
    """Fixed rank r together with the cached exceptional classes.

    Immutable after construction; safe to share between any number of
    concurrent callers.  Build via :func:`delpezzo.enumeration.surface_context`.
    """

    r: int
    exceptional_set: tuple[PicardClass, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", _check_rank(self.r))
        exc, expected = self.exceptional_set, EXCEPTIONAL_CLASS_COUNTS[self.r]
        if len(exc) != expected:
            raise ValueError(f"rank {self.r} needs {expected} exceptional classes, got {len(exc)}")
        if any(x.r != self.r for x in exc):
            raise LatticeMismatchError("exceptional classes of foreign rank in context")
        # with the count, this pins the set to the rank's exceptional classes in (a, b) order
        K, keys = canonical_class(self.r), [x.sort_key() for x in exc]
        if keys != sorted(set(keys)) or any(degree(x) != -1 or intersect(K, x) != -1 for x in exc):
            raise ValueError(f"rank {self.r} needs classes with x.x = K.x = -1, distinct and in (a, b) order")

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

    # The pairing core.  The bulk routines pair class rows against the
    # test curves; the arrays below are built once per context, on first
    # use, and are read-only.

    @cached_property
    def test_curves(self) -> tuple[PicardClass, ...]:
        """The exceptional classes, in their (a, b) order, followed at rank 1
        by the fiber ``l - e_1``: L is nef iff it pairs >= 0 with each."""
        if self.r == 1:
            return self.exceptional_set + (fiber_class(),)
        return self.exceptional_set

    @cached_property
    def curve_matrix(self) -> np.ndarray:
        """Signed int64 matrix S with rows ``(x_a, -x_b1, ..., -x_br)``, one
        per test curve x, so that ``S @ (a, b_1..b_r)`` is the pairing vector."""
        return _read_only(np.array([[x.a, *(-y for y in x.b)] for x in self.test_curves], dtype=np.int64))

    @cached_property
    def curve_operand(self) -> np.ndarray:
        """``curve_matrix.T`` as the right operand of exact matrix products
        (see :func:`float_operand`): ``rows @ curve_operand`` pairs class
        rows against the test curves."""
        return float_operand(self.curve_matrix.T)


def exact_rows(coeffs) -> np.ndarray:
    """A 2-D block of class rows as int64 when every entry is within
    SAFE_COEFF_BOUND, otherwise as an object array of Python integers
    (exact at any size).  An ndarray needs an integer dtype; other input is
    read as objects through ``operator.index``, as in PicardClass.  Non-integers
    raise TypeError, anything but a 2-D block (say, one row) ValueError."""
    rows = coeffs if isinstance(coeffs, np.ndarray) else np.array(coeffs, dtype=object)
    if rows.ndim != 2:
        raise ValueError(f"class rows must form a 2-D block, got {rows.ndim} dimension(s)")
    if rows.dtype == object:
        try:
            rows = np.array([operator.index(x) for x in rows.flat], dtype=object).reshape(rows.shape)
        except TypeError as exc:
            raise TypeError(f"class coefficients must be integers: {exc}") from None
    elif rows.dtype.kind not in "iu":
        raise TypeError(f"class coefficients must be integers, got dtype {rows.dtype}")
    if rows.size == 0 or (rows.max() <= SAFE_COEFF_BOUND and rows.min() >= -SAFE_COEFF_BOUND):
        return rows.astype(np.int64, copy=False)
    return rows.astype(object)


def float_operand(B: np.ndarray) -> np.ndarray:
    """The int64 matrix B as the right operand of :func:`exact_product`:
    float64 when ``B.shape[0] * 2 * SAFE_COEFF_BOUND * max|B|``, which
    bounds every partial sum against an int64 row block, is below
    FLOAT_EXACT_BOUND, B itself otherwise.  The test runs once per operand."""
    largest = int(np.abs(B).max(initial=0))
    if B.shape[0] * 2 * SAFE_COEFF_BOUND * largest >= FLOAT_EXACT_BOUND:
        return B
    return _read_only(B.astype(np.float64))


#: Result entries per float64 BLAS call in exact_product.  The products
#: are thin (r + 1 <= 9 terms per entry), so a large one gains nothing
#: from BLAS threads, and on a shared 2 vCPU host a dgemm split across
#: them was measured to wait milliseconds per call; chunks this small run
#: on the calling thread and keep each float64 temporary at 128 KiB.
_PRODUCT_CHUNK = 2**14


def exact_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B``, exact, for rows A from :func:`exact_rows` (at most shifted
    by a class of small coefficients) and an operand B from
    :func:`float_operand`.  An int64 A against a float64 B runs through
    float64 BLAS in row chunks of about _PRODUCT_CHUNK result entries and
    returns int64; any other pair runs on Python integers and returns an
    object array."""
    if B.dtype.kind == "f":
        if A.dtype != object:
            out = np.empty((A.shape[0], B.shape[1]), dtype=np.int64)
            step = max(1, _PRODUCT_CHUNK // max(1, B.shape[1]))
            for i in range(0, A.shape[0], step):
                out[i:i + step] = A[i:i + step] @ B  # matmul casts A to float64
            return out
        B = B.astype(np.int64)
    return A.astype(object, copy=False) @ B


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
