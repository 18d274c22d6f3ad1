"""Array helpers: the one numpy module of the package, and the one
exactness rule of every array path.  Only ``verify``, an applicable
window search (:class:`~delpezzo.reider.SearchOutcome`) and
:func:`~delpezzo.reider.consistency_sweep`, past its refusals, load it, so
the scalar package and every other command start without numpy.

Bulk inputs refuse non-integers, as PicardClass does.  Class rows are
int64 only while every entry is within SAFE_COEFF_BOUND
(:func:`exact_rows`), object arrays of Python integers beyond it, so no
result wraps; an int64 block is at most shifted by a class of small
coefficients such as K, and may be cast to float64 once for its products.
A right operand B is float64 (:func:`float_operand`) only when every
partial sum of such a row against a column of B is an integer below
FLOAT_EXACT_BOUND = 2**53, which float64 holds exactly however BLAS
splits and orders the sums.  Every float64 operand is a read-only
C-ordered array, also where it is built from a transpose;
:func:`exact_product` runs any other pair on Python integers.  A float64
product stays float64: every entry is an exact integer, so it is
compared and reduced where it lands, and only a value that leaves this
module is cast to a Python int.

Every operand of classes is signed as the pairing is (column (x0; -x)
for class (x0; x), :func:`_signed_operand`), so class rows enter as they
are: :func:`curve_operand` holds the test curves of a rank,
:func:`family_operand` its inequality families.  This module is also the
home of the S_r orbits of a representative (a; b), b non-increasing:
:func:`expand_orbit` lists the orbit of a row, :func:`orbit_sizes` counts
the orbits of many rows without expanding them.  A row that meets the
representatives is descending where it is made (a box leaf, a draw of
:func:`_sample_blocks`, the M of :func:`window_rows`), so its smallest
pairing with each orbit is one product (:func:`_window_hits`).

The window engine of :mod:`delpezzo.reider` runs here, behind
:func:`window_rows` (one M) and :func:`sweep_blocks` (a sweep's box), and
reports nothing.  The candidate table depends only on (r, k), so it is
built once per pair, whole, after a check of the box premises, and cached
as read-only arrays: the effective classes among the orbit
representatives of :func:`~delpezzo.enumeration.window_candidates` as
int64 rows and as a product operand, and per orbit its D.D, the top
min(D.D + k + 1, 2k + 1) of its window and whether it is exceptional.
The window kernel tests them against N descending rows of M at once: the
smallest M.D over each orbit marks the rows that can meet the orbit at
most at its top, and only orbits that some row reaches are
expanded and run the exact window; an expanded orbit keeps its int64 rows
and their operand.  Past the floor, a reached orbit costs one gather of
its reaching rows, one exact product and one window mask
(:func:`_window_hits`).  The leaves of an exhaustive sweep are streamed in
blocks from one enumeration of their tails (:func:`_box_leaves`), and each
block's k-free step (:func:`_nef_block`: the nef filter read off the family
floor, M, M.M and the multiples of -K) runs once per (r, a_max): the nef
blocks of the last four boxes are kept (:func:`_box_blocks`).  A sweep
pairs only the applicable rows that fail at k with the test curves, once
per kept box and level, counts the witnesses of each row and certifies
none; :mod:`delpezzo.reider` words the rows it flags.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

from .lattice import EXCEPTIONAL_CLASS_COUNTS, PicardClass, line, point_class
from .enumeration import _surface_context, orderings, window_candidates
from .positivity import EXCEPTION_NONE, _effectivity, _exception_flag, _family_table, is_nef

#: Coefficient magnitude up to which the array routines use int64; larger
#: inputs are computed exactly on Python integers instead.  The scalar
#: modules run on Python integers and have no limit.
SAFE_COEFF_BOUND = 10**6

#: Integers of magnitude up to this are float64 numbers, so a float64
#: product whose partial sums all stay below it is exact in any order.
FLOAT_EXACT_BOUND = 2**53


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
    FLOAT_EXACT_BOUND, B itself otherwise.  The test runs once per operand.
    A float64 operand is a read-only C-ordered copy, whatever the layout of
    B (often a transposed view), so BLAS reads it row by row."""
    largest = int(np.abs(B).max(initial=0))
    if B.shape[0] * 2 * SAFE_COEFF_BOUND * largest >= FLOAT_EXACT_BOUND:
        return B
    return _read_only(np.ascontiguousarray(B, dtype=np.float64))


#: Result entries per float64 BLAS call in exact_product.  The products
#: are thin (r + 1 <= 9 terms per entry), so a large one gains nothing
#: from BLAS threads, and on a shared 2 vCPU host a dgemm split across
#: them was measured to wait milliseconds per call; chunks this small run
#: on the calling thread.
_PRODUCT_CHUNK = 2**14


def exact_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B``, exact, for rows A from :func:`exact_rows` (at most shifted
    by a class of small coefficients; int64 rows perhaps cast to float64)
    and an operand B from :func:`float_operand`.  A numeric A against a
    float64 B runs through float64 BLAS in row chunks of about
    _PRODUCT_CHUNK result entries and returns the float64 product itself:
    every entry is an exact integer, to be compared or reduced where it
    lands.  Any other pair runs on Python integers, as an object array."""
    if B.dtype.kind == "f" and A.dtype != object:
        step = max(1, _PRODUCT_CHUNK // max(1, B.shape[1]))
        if A.shape[0] <= step:
            return A @ B  # matmul casts A to float64
        out = np.empty((A.shape[0], B.shape[1]))
        for i in range(0, A.shape[0], step):
            np.matmul(A[i:i + step], B, out=out[i:i + step])
        return out
    A = A.astype(np.int64) if A.dtype.kind == "f" else A  # a float64 A holds the integers of its int64 rows
    return A.astype(object, copy=False) @ B.astype(np.int64, copy=False)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _signed_operand(classes: np.ndarray) -> np.ndarray:
    """The int64 class rows (x0; x) as a :func:`float_operand` whose column
    j is ``(x0, -x_1, ..., -x_r)`` of row j: ``rows @ operand`` pairs."""
    return float_operand(_read_only(np.concatenate([classes[:, :1], -classes[:, 1:]], axis=1).T))


@lru_cache(maxsize=None)
def curve_operand(r: int) -> np.ndarray:
    """The test curves of ``surface_context(r)`` as a signed operand, so
    ``rows @ curve_operand(r)`` pairs class rows with the test curves."""
    return _signed_operand(np.array([[x.a, *x.b] for x in _surface_context(r).test_curves], dtype=np.int64))


@lru_cache(maxsize=None)
def family_operand(r: int) -> np.ndarray:
    """The representatives (a0; c) of the rank-r inequality families as a
    signed operand: a descending row's product with it holds each family's
    value, the least of them its smallest test-curve pairing."""
    return _signed_operand(np.array(_family_table(r).reps, dtype=np.int64))


def expand_orbit(rep: np.ndarray) -> np.ndarray:
    """The S_r orbit of the row ``rep`` = (a; b), b non-increasing: one row
    (a; b') per distinct ordering b' of b (:func:`orderings`), in ascending
    (a, b) order and in the dtype of ``rep``."""
    return np.array([(rep[0], *b) for b in orderings(rep[1:].tolist())], dtype=rep.dtype)


@lru_cache(maxsize=None)
def _multinomials(r: int) -> np.ndarray:
    """``r! / prod(m!)`` for each mask of equal neighbours of a sorted row
    of length r (bit j set when entries j and j + 1 are equal): a run of
    s set bits is a multiplicity m = s + 1."""
    return _read_only(np.array([
        factorial(r) // prod(factorial(len(ones) + 1) for ones in f"{mask:b}".split("0"))
        for mask in range(1 << max(r - 1, 0))], dtype=np.int64))


def orbit_sizes(b: np.ndarray) -> np.ndarray:
    """The orbit size ``len(row)! / prod(m!)`` of each row of b, whose rows
    are sorted, over the multiplicities m, looked up by equal neighbours."""
    return _multinomials(b.shape[1])[(b[:, 1:] == b[:, :-1]) @ (1 << np.arange(b.shape[1] - 1))]


@dataclass(frozen=True)
class _CandidateTable:
    """Every effective class in the (r, k) box that could sit in a window:
    (-K).D in [1, 2k+1] and -k <= D.D <= k, held as one row per S_r orbit
    (built by :func:`_table`).  Its arrays are read-only.  Only orbits that
    reach a window are expanded, each once (``expanded``, keyed by orbit
    index, see :meth:`orbit`)."""

    reps: np.ndarray  # (n, r+1) int64 orbit representatives (alpha, beta), beta non-increasing
    operand: np.ndarray  # reps as a signed operand (see _signed_operand)
    squares: np.ndarray  # (n,) self-intersection of each orbit's classes
    top: np.ndarray  # (n,) largest M.D in the window at level k: min(D.D + k + 1, 2k + 1)
    exceptional: np.ndarray  # (n,) orbits of exceptional classes: D.D = -1 = K.D
    size: int  # classes in the table: the sum of the orbit sizes
    expanded: dict = field(default_factory=dict, compare=False, repr=False)

    def orbit(self, o: int) -> tuple[np.ndarray, np.ndarray]:
        """The classes of orbit o in (a, b) order, read-only: as int64 rows,
        and as their signed operand (:func:`_signed_operand`), whose M.D
        products take M as it is."""
        entry = self.expanded.get(o)
        if entry is None:
            rows = _read_only(expand_orbit(self.reps[o]))
            entry = self.expanded[o] = (rows, _signed_operand(rows))
        return entry


def _table(reps: np.ndarray, k: int) -> _CandidateTable:
    """The candidate table at level k of the int64 orbit representatives
    ``reps``, one (alpha; beta) row per orbit, beta non-increasing."""
    reps = _read_only(reps)
    squares = _read_only(reps[:, 0] ** 2 - (reps[:, 1:] ** 2).sum(axis=1))
    top = _read_only(np.minimum(squares + k + 1, 2 * k + 1))
    exceptional = _read_only((squares == -1) & (3 * reps[:, 0] - reps[:, 1:].sum(axis=1) == 1))
    return _CandidateTable(reps, _signed_operand(reps), squares, top, exceptional, int(orbit_sizes(reps[:, 1:]).sum()))


@lru_cache(maxsize=None)
def _candidate_table(r: int, k: int) -> _CandidateTable:
    # The box derivation needs 6*(-K) - l and every l - e_i nef.
    guard = 6 * _surface_context(r).anticanonical - line(r)
    if not is_nef(guard):
        raise RuntimeError(f"box premise broken at rank {r}: {guard} is not nef")
    for i in range(1, r + 1):
        if not is_nef(line(r) - point_class(r, i)):
            raise RuntimeError(f"box premise broken at rank {r}: l - e_{i} is not nef")
    # Riemann-Roch: D.D + (-K).D >= 0 gives h^0(D) >= chi(D) >= 1, as
    # h^2(D) = h^0(K - D) = 0: (K - D).l = -3 - alpha < 0 and l is nef.  The
    # other candidates are tested once per orbit: effectivity is invariant
    # under coordinate permutations (the exceptional set is permutation-closed).
    reps = [
        (alpha, *b) for alpha, b in window_candidates(r, k)
        if alpha * alpha - sum(x * x for x in b) + 3 * alpha - sum(b) >= 0
        or _effectivity(PicardClass(alpha, b)) is not None
    ]
    return _table(np.array(reps, dtype=np.int64).reshape(len(reps), r + 1), k)


def _window_hits(table: _CandidateTable, M: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The window at the table's level k of the N exact rows M (see
    :func:`exact_rows`, perhaps cast to float64), each b non-increasing:
    one ``(o, rows, window, md)`` per orbit o that some row reaches, o
    ascending, where ``md`` is the exact (rows x orbit classes) M.D product
    of the reaching rows ``M[rows]`` with the classes of ``table.orbit(o)``
    and ``window`` marks its entries inside the window.

    D.D = d2 is constant on an orbit, so the window md - k - 1 <= d2,
    2*d2 < md, md < 2k+2 is the integer range 2*d2 < md <= top, with
    top = min(d2 + k + 1, 2k + 1) per orbit (``table.top``).  A row
    (y0; y) reaches an orbit when its smallest M.D = y0*x0 - <y, x'> over
    the orderings x' of the representative's x is at most top: by the
    rearrangement inequality, the largest <y, x'> pairs the descending y
    with x, so this floor is one product of M with ``table.operand``.  A
    reached orbit is expanded and costs one gather of its reaching rows, one
    :func:`exact_product` with its signed operand and one window mask
    against 2*d2 and top read as Python integers."""
    reached = exact_product(M, table.operand) <= table.top
    for o in reached.any(axis=0).nonzero()[0].tolist():
        rows = reached[:, o].nonzero()[0]
        md = exact_product(M.take(rows, axis=0), table.orbit(o)[1])
        yield o, rows, (2 * table.squares.item(o) < md) & (md <= table.top.item(o)), md


def window_rows(M: PicardClass, k: int) -> tuple[list[tuple[list[int], int]], int]:
    """The window classes of M at level k in the (M.r, k) candidate table,
    as (class row, M.D) pairs in (a, b) order, M.D a Python int, and the
    table's class count.  The window runs on M with b sorted descending;
    each class found there is put back in M's order (entry ``back[j]`` of
    the sorted class is entry j of M's), which keeps M.D and stays in the
    table."""
    table = _candidate_table(M.r, k)
    order = sorted(range(M.r), key=M.b.__getitem__, reverse=True)
    back = [0, *(1 + j for j in sorted(range(M.r), key=order.__getitem__))]  # the inverse of order
    m = [M.a, *(M.b[i] for i in order)]  # PicardClass holds Python ints, so the int64 bound is read here
    m = np.array([m], dtype=np.int64 if max(map(abs, m)) <= SAFE_COEFF_BOUND else object)
    found = [
        ([row[j] for j in back], int(md))
        for o, _, window, mds in _window_hits(table, m)
        for row, md in zip(table.orbit(o)[0][window[0]].tolist(), mds[window].tolist())
    ]
    return sorted(found), table.size  # distinct rows, so this sorts by (a, b)


#: Box rows decided together.  It bounds the pairing matrices and M.D
#: products of one pass, so a sweep's peak memory does not grow with its box.
_BLOCK_ROWS = 1024


def _box_leaves(r: int, a_max: int) -> Iterator[np.ndarray]:
    """Every (a; b) with 0 <= a <= a_max, b non-increasing and non-negative
    and b_1 + b_2 <= a, in (a ascending, b descending) order, streamed as
    int64 blocks of _BLOCK_ROWS rows (the last one perhaps shorter, none
    empty), so the leaves of a box are never held at once.

    A nef class has 0 <= b_i <= a and (for r >= 2) b_i + b_j <= a, so these
    descending-coordinate rows hold every nef orbit of the box.  The tail
    (b_2, ..., b_r) of a leaf is any non-increasing tuple bounded by
    c = min(b_1, a - b_1).  In descending-lex order the tuples bounded by
    a_max // 2 end with exactly those bounded by c, comb(c + r - 1, r - 1)
    of them, so one enumeration of the tuples serves every (a, b_1), which
    takes its last rows."""
    tails = itertools.combinations_with_replacement(range(a_max // 2, -1, -1), r - 1)
    n_tails = comb(a_max // 2 + r - 1, r - 1)
    tails = np.fromiter(itertools.chain.from_iterable(tails), dtype=np.int64, count=n_tails * (r - 1))
    tails = tails.reshape(n_tails, r - 1)  # r = 1: one empty tail
    pairs = np.array([(a, b1) for a in range(a_max + 1) for b1 in range(a, -1, -1)], dtype=np.int64)
    ends = np.cumsum([comb(min(b1, a - b1) + r - 1, r - 1) for a, b1 in pairs.tolist()])
    for start in range(0, int(ends[-1]), _BLOCK_ROWS):
        leaf = np.arange(start, min(start + _BLOCK_ROWS, int(ends[-1])))
        pair = np.searchsorted(ends, leaf, side="right")
        yield np.concatenate([pairs[pair], tails[n_tails - ends[pair] + leaf]], axis=1)


def _nef_block(L: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The k-free step of a sweep on a block L of exact rows (see
    :func:`exact_rows`), each b non-increasing, as a box leaf or a draw
    comes: for its nef rows, M = L + (-K), int64 cast to float64; each
    one's smallest family value, its smallest pairing with the test curves
    (the nef filter: one product with ``family_operand(r)``); M.M; and
    which are multiples (3m; m, ..., m) of -K, read off M, a multiple too."""
    if L.dtype == np.int64:
        L = L.astype(np.float64)
    lowest = exact_product(L, family_operand(r)).min(axis=1)
    nef = (lowest >= 0).nonzero()[0]
    K = _surface_context(r).canonical
    M = L.take(nef, axis=0) - np.array([K.a, *K.b], dtype=np.int64)
    multiple = (M[:, 0] == 3 * M[:, 1]) & (M[:, 1] == M[:, -1])
    return M, lowest[nef], M[:, 0] ** 2 - (M[:, 1:] ** 2).sum(axis=1), multiple


@lru_cache(maxsize=4)
def _box_blocks(r: int, a_max: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict, int], ...]:
    """Per block of the streamed leaves of the box a <= a_max
    (:func:`_box_leaves`): the M rows of its nef rows, each one's smallest
    family value, M.M and the -K mask (:func:`_nef_block`), read-only; a
    dict that :func:`_decide_block` fills once per level k with the failing
    rows' counts of exceptional classes below k; and how many classes the
    rows cover, as a leaf decides its orbit.  The last four boxes are kept,
    so a repeated sweep runs only the window engine; the bound caps what is
    kept (the rank-8 box-20 blocks take 17 MB, as its leaves did)."""
    blocks = []
    for leaves in _box_leaves(r, a_max):
        M, lowest, m2, multiple = map(_read_only, _nef_block(leaves, r))
        blocks.append((M, lowest, m2, multiple, {}, int(orbit_sizes(M[:, 1:]).sum())))
    return tuple(blocks)


def _sample_blocks(r: int, a_max: int, seed: int) -> Iterator[np.ndarray]:
    """Seeded candidate rows with 0 <= a <= a_max and every b_i <= a, one
    block of exact rows (:func:`exact_rows`) per draw of 4096 (a; b),
    without end.  Each draw's b is sorted descending, so it is the
    representative of its S_r orbit, and b_1 <= a keeps it."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(0, a_max + 1, size=4096)
        b = np.sort(rng.integers(0, a_max + 1, size=(4096, r)), axis=1)[:, ::-1]
        yield exact_rows(np.column_stack([a, b])[b[:, 0] <= a])


def _exceptional_below(L: np.ndarray, k: int) -> np.ndarray:
    """How many exceptional classes each row of L pairs below k, from the
    rows' product with the test curves; int16 is exact, as a rank has at
    most 240 exceptional classes."""
    r = L.shape[1] - 1
    return (exact_product(L, curve_operand(r))[:, :EXCEPTIONAL_CLASS_COUNTS[r]] < k).sum(axis=1, dtype=np.int16)


def _decide_block(
    M: np.ndarray, lowest: np.ndarray, m2: np.ndarray, multiple: np.ndarray, below: dict, k: int,
    table: _CandidateTable,
) -> tuple[tuple[int, ...], list[tuple[int, bool]]]:
    """The k-dependent sweep over the block of rows M = L + (-K) of nef
    exact rows L, each b non-increasing, given each L's smallest pairing
    ``lowest`` with the test curves, ``m2`` = M.M and the mask ``multiple``
    of the multiples of -K (see :func:`_nef_block`).  Returns the counts
    (applicable, passing, failing, exceptions, witnesses) and the flagged
    rows in row order, as (index in M, pass flag).  M of a nef row is nef
    (-K pairs >= 1 with every test curve), so its premise is M.M >= 4k + 5.

    Every verdict is an array comparison.  Only the applicable rows that
    fail at k are paired with the test curves (:func:`_exceptional_below`),
    once per level: ``below[k]`` keeps their counts, so a kept box
    (:func:`_box_blocks`) pairs no row on a repeat.  Python runs once per
    orbit that some row reaches and once per row that is a multiple of -K
    or is flagged; a consistent block flags no row.
    """
    K = _surface_context(M.shape[1] - 1).canonical
    applicable = (m2 >= 4 * k + 5).nonzero()[0]
    M, passes = M.take(applicable, axis=0), lowest[applicable] >= k
    failing = (~passes).nonzero()[0]
    if k not in below:
        below[k] = _read_only(_exceptional_below(M.take(failing, axis=0) + np.array([K.a, *K.b], dtype=np.int64), k))

    n = len(applicable)
    witnesses, exceptional_hits = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for o, rows, window, _ in _window_hits(table, M):
        hits = window.sum(axis=1)
        witnesses[rows] += hits
        if table.exceptional[o]:
            # an exceptional orbit's window top is k, and L.x = M.x - 1:
            # its hits are exactly the exceptional classes x with L.x < k
            exceptional_hits[rows] += hits

    # An exception class is a multiple (3m; m, ..., m) of -K.  It satisfies
    # the inequalities without being k-very ample, and the window may or may
    # not show an obstruction for it (it does for -(k+1)K at rank 8, it
    # cannot for -kK), so neither outcome is a violation.
    exception = np.zeros(n, dtype=bool)
    for i in (passes & multiple[applicable]).nonzero()[0].tolist():
        exception[i] = _exception_flag((1 - int(M[i, 1])) * K, k) != EXCEPTION_NONE  # L = M + K
    passing = passes & ~exception
    # A k-very-ample class may have no witness at all, so none with D.D <= 0
    # either; a failing one needs a witness and each violating exceptional class.
    flagged = passing & (witnesses > 0)
    flagged[failing] = (witnesses[failing] == 0) | (exceptional_hits[failing] < below[k])
    flagged_rows = [(int(applicable[i]), bool(passing[i])) for i in flagged.nonzero()[0].tolist()]
    counts = (n, int(passing.sum()), len(failing), int(exception.sum()), int(witnesses.sum()))
    return counts, flagged_rows


def sweep_blocks(
    r: int, k: int, a_max: int, sample: int | None, seed: int,
) -> tuple[int, int, list[int], list[tuple[PicardClass, bool]]]:
    """The block loop of ``consistency_sweep`` at rank r and level k: over
    the kept nef blocks of the box a <= a_max (:func:`_box_blocks`), or
    with ``sample`` over seeded draws until that many nef rows, each drawn
    block through the same k-free step (:func:`_nef_block`) and kept by
    none, so it pairs its failing rows afresh.  Only :func:`_decide_block`
    depends on k.  Returns scanned, covered, the five totals of
    :func:`_decide_block` and the flagged rows in row order, as (class,
    pass flag): a box leaf, or the descending representative of a draw's
    S_r orbit."""
    table, K = _candidate_table(r, k), _surface_context(r).canonical
    blocks = _box_blocks(r, a_max) if sample is None else _sample_blocks(r, a_max, seed)
    scanned = covered = 0
    totals = [0] * 5
    flagged = []
    for block in blocks:
        if sample is None:
            *arrays, count = block
        else:  # a drawn row covers itself
            arrays = [*(x[:sample - scanned] for x in _nef_block(block, r)), {}]
            count = len(arrays[0])
        M = arrays[0]
        counts, found = _decide_block(*arrays, k, table)
        flagged += [(PicardClass(int(M[i, 0]), tuple(map(int, M[i, 1:].tolist()))) + K, passing)
                    for i, passing in found]
        scanned += len(M)
        covered += count
        totals = [t + c for t, c in zip(totals, counts)]
        if scanned == sample:
            break
    return scanned, covered, totals, flagged
