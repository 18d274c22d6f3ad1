"""Array helpers: the one numpy module of the package, and the one
exactness rule of every array path.  Only ``verify``,
:func:`~delpezzo.reider.search_obstructions` and
:func:`~delpezzo.reider.consistency_sweep` load it, so the scalar package
and every other command start without numpy.

Bulk inputs refuse non-integers, as PicardClass does.  Class rows are
int64 only while every entry is within SAFE_COEFF_BOUND
(:func:`exact_rows`), object arrays of Python integers beyond it, so no
result wraps; an int64 block is at most shifted by a class of small
coefficients such as K.  A right operand B is float64
(:func:`float_operand`) only when every partial sum of such a row against
a column of B is an integer below FLOAT_EXACT_BOUND = 2**53, which
float64 holds exactly however BLAS splits and orders the sums.  Every
float64 operand is a read-only C-ordered array, also where it is built
from a transpose; :func:`exact_product` runs any other pair on Python
integers.

This module is also the home of the S_r orbits of a representative
(a; b), b non-increasing: :func:`expand_orbit` lists the orbit of a row,
:func:`orbit_sizes` counts the orbits of many rows without expanding
them, and :func:`orbit_floor` takes the smallest pairing of many rows
with each of many orbits.  :func:`curve_operand` holds the test curves
of a rank as a product operand.

The window engine of :mod:`delpezzo.reider` runs here and reports nothing.
The candidate table depends only on (r, k), so it is built once per pair,
whole, and cached as read-only arrays: the effective classes among the
orbit representatives of :func:`~delpezzo.enumeration.window_candidates`
as int64 rows and as a product operand, and per orbit its D.D, the top
min(D.D + k + 1, 2k + 1) of its window and whether it is exceptional.
The window kernel tests them against N rows of M at once: the smallest
M.D over each orbit (:func:`orbit_floor`) marks the rows that can meet
the orbit at most at its top, and only orbits that some row reaches are
expanded and run the exact window; an expanded orbit keeps its int64 rows
and their transpose, the operand of its M.D products.  The leaves of an
exhaustive sweep are built by one loop over (a, b_1), once per (r, a_max),
and kept for the last four boxes (:func:`_box_leaves`).
A sweep reduces each block's pairing matrix to two per-row vectors, the
smallest pairing (nef filter and pairing verdict) and the count of
exceptional classes paired below k, counts the witnesses of each row and
certifies none; :mod:`delpezzo.reider` words the rows it flags.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

from .lattice import EXCEPTIONAL_CLASS_COUNTS, PicardClass
from .enumeration import _surface_context, orderings, window_candidates
from .positivity import EXCEPTION_NONE, _effectivity, _exception_flag

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


@lru_cache(maxsize=None)
def curve_operand(r: int) -> np.ndarray:
    """The test curves of ``surface_context(r)`` as the right operand of
    :func:`exact_product`, read-only: column j is ``(x_a, -x_b1, ..., -x_br)``
    for test curve x_j, so ``rows @ curve_operand(r)`` pairs class rows
    against the test curves."""
    curves = _surface_context(r).test_curves
    signed = np.array([[x.a, *(-y for y in x.b)] for x in curves], dtype=np.int64)
    return float_operand(_read_only(signed.T))


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


def orbit_floor(rows: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """The smallest pairing ``y0*x0 - <y, x'>`` of each class row (y0; y)
    with the orbit of each representative (x0; x), x non-increasing, over
    the orderings x' of x: by the rearrangement inequality the largest
    ``<y, x'>`` pairs y sorted descending with x, so the (rows x orbits)
    floor is one exact product of ``(y0; sort(-y))`` with ``operand``,
    the representatives as columns (see :func:`float_operand`), for rows
    from :func:`exact_rows` (at most shifted by a small class)."""
    return exact_product(np.column_stack([rows[:, 0], np.sort(-rows[:, 1:], axis=1)]), operand)


@dataclass(frozen=True)
class _CandidateTable:
    """Every effective class in the (r, k) box that could sit in a window:
    (-K).D in [1, 2k+1] and -k <= D.D <= k, held as one row per S_r orbit
    (built by :func:`_table`).  Its arrays are read-only.  Only orbits that
    reach a window are expanded, each once (``expanded``, keyed by orbit
    index, see :meth:`orbit`)."""

    reps: np.ndarray  # (n, r+1) int64 orbit representatives (alpha, beta), beta non-increasing
    operand: np.ndarray  # reps.T as the right operand of exact products (see float_operand)
    squares: np.ndarray  # (n,) self-intersection of each orbit's classes
    top: np.ndarray  # (n,) largest M.D in the window at level k: min(D.D + k + 1, 2k + 1)
    exceptional: np.ndarray  # (n,) orbits of exceptional classes: D.D = -1 = K.D
    size: int  # classes in the table: the sum of the orbit sizes
    expanded: dict = field(default_factory=dict, compare=False, repr=False)

    def orbit(self, o: int) -> tuple[np.ndarray, np.ndarray]:
        """The classes of orbit o in (a, b) order, read-only: as int64 rows,
        and as their C-ordered transpose in the dtype of ``operand``, the
        right operand of an exact product against the orbit.  The float64
        bound of ``operand`` holds for every orbit, whose classes share the
        entries of their representative."""
        entry = self.expanded.get(o)
        if entry is None:
            rows = _read_only(expand_orbit(self.reps[o]))
            entry = self.expanded[o] = (rows, _read_only(np.ascontiguousarray(rows.T, dtype=self.operand.dtype)))
        return entry


def _table(reps: np.ndarray, k: int) -> _CandidateTable:
    """The candidate table at level k of the int64 orbit representatives
    ``reps``, one (alpha; beta) row per orbit, beta non-increasing."""
    reps = _read_only(reps)
    squares = _read_only(reps[:, 0] ** 2 - (reps[:, 1:] ** 2).sum(axis=1))
    top = _read_only(np.minimum(squares + k + 1, 2 * k + 1))
    exceptional = _read_only((squares == -1) & (3 * reps[:, 0] - reps[:, 1:].sum(axis=1) == 1))
    return _CandidateTable(reps, float_operand(reps.T), squares, top, exceptional, int(orbit_sizes(reps[:, 1:]).sum()))


@lru_cache(maxsize=None)
def _candidate_table(r: int, k: int) -> _CandidateTable:
    # Riemann-Roch: D.D + (-K).D >= 0 gives h^0(D) >= chi(D) >= 1, as
    # h^2(D) = h^0(K - D) = 0: (K - D).l = -3 - alpha < 0 and l is nef.  The
    # other candidates are tested once per orbit: effectivity is invariant
    # under coordinate permutations (the exceptional set is permutation-closed).
    reps = [
        (alpha, *b) for alpha, b in window_candidates(r, k)
        if alpha * alpha - sum(x * x for x in b) + 3 * alpha - sum(b) >= 0
        or _effectivity(PicardClass(alpha, b))[0]
    ]
    return _table(np.array(reps, dtype=np.int64).reshape(len(reps), r + 1), k)


def _window_hits(table: _CandidateTable, M: np.ndarray) -> list[tuple]:
    """Every (class, row) pair inside the window at the table's level k for
    the N exact rows M (see :func:`exact_rows`): one ``(o, C, ci, ri, md)``
    per orbit o that has a hit, o ascending, where C holds the orbit's
    class rows and hit j, by class then row, is class ``C[ci[j]]`` against
    row ``M[ri[j]]``, with M.D = ``md[j]``.

    D.D = d2 is constant on an orbit, so the window md - k - 1 <= d2,
    2*d2 < md, md < 2k+2 is the integer range 2*d2 < md <= top, with
    top = min(d2 + k + 1, 2k + 1) per orbit (``table.top``).  A row
    reaches an orbit when its :func:`orbit_floor`, the smallest M.D over
    the orbit, is at most top.  Each orbit that some row reaches is
    expanded and meets the window in one (orbit size x reaching rows) M.D
    product.  C holds int64 rows; md is exact."""
    reach = orbit_floor(M, table.operand) <= table.top
    dual = np.column_stack([M[:, 0], -M[:, 1:]])  # (m0; -mu), so that dual @ C.T is M.D
    hits = []
    for o in np.flatnonzero(reach.any(axis=0)).tolist():
        rows = np.flatnonzero(reach[:, o])
        C, columns = table.orbit(o)
        md = exact_product(dual[rows], columns).T
        ci, pi = ((2 * table.squares[o] < md) & (md <= table.top[o])).nonzero()
        if len(ci):
            hits.append((o, C, ci, rows[pi], md[ci, pi]))
    return hits


def _witness_rows(table: _CandidateTable, M: np.ndarray) -> list[tuple[list[int], int, int]]:
    """The window classes of the one exact row M (shape (1, r+1)) as
    (class row, M.D, D.D) triples, in (a, b) order."""
    found = [
        (row, md, int(table.squares[o]))
        for o, C, ci, _, mds in _window_hits(table, M)
        for row, md in zip(C[ci].tolist(), mds.tolist())
    ]
    return sorted(found)  # distinct rows, so this sorts by (a, b)


#: Box rows decided together.  It bounds the pairing matrices and M.D
#: products of one pass, so a sweep's peak memory does not grow with its box.
_BLOCK_ROWS = 1024


@lru_cache(maxsize=4)
def _box_leaves(r: int, a_max: int) -> np.ndarray:
    """Every (a; b) with 0 <= a <= a_max, b non-increasing and non-negative
    and b_1 + b_2 <= a, in (a ascending, b descending) order, read-only.
    The leaves of the last four boxes are kept, so a repeated sweep builds
    none; the bound caps what is kept (the rank-8 box-20 leaves take 17 MB).

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
    pairs = [(a, b1) for a in range(a_max + 1) for b1 in range(a, -1, -1)]
    counts = [comb(min(b1, a - b1) + r - 1, r - 1) for a, b1 in pairs]
    rows = np.empty((sum(counts), r + 1), dtype=np.int64)
    end = 0
    for (a, b1), n in zip(pairs, counts):
        rows[end:end + n, :2] = a, b1
        rows[end:end + n, 2:] = tails[n_tails - n:]
        end += n
    return _read_only(rows)


def _sample_blocks(r: int, a_max: int, seed: int) -> Iterator[np.ndarray]:
    """Seeded candidate rows with 0 <= a <= a_max and every b_i <= a, one
    block per draw of 4096 (a; b), without end."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(0, a_max + 1, size=4096)
        b = rng.integers(0, a_max + 1, size=(4096, r))
        yield np.column_stack([a, b]).astype(np.int64)[(b <= a[:, None]).all(axis=1)]


def _row_counts(parts: list[np.ndarray], n: int) -> np.ndarray:
    """How often each of the row indices 0..n-1 occurs in `parts`."""
    return np.bincount(np.concatenate([np.empty(0, dtype=np.intp), *parts]), minlength=n)


def _decide_block(
    L: np.ndarray, lowest: np.ndarray, exc_below: np.ndarray, k: int, table: _CandidateTable,
) -> tuple[tuple[int, ...], list[tuple[int, bool]]]:
    """The sweep over one block of nef exact rows L (see :func:`exact_rows`)
    from two reductions of their pairing rows with the test curves: each
    row's smallest pairing ``lowest`` and its count ``exc_below`` of
    exceptional classes paired below k.  Returns the counts (applicable,
    passing, failing, exceptions, witnesses) and the flagged rows in row
    order, as (index in L, pass flag).  M = L + (-K) of a nef row is nef
    (-K pairs >= 1 with every test curve), so its premise is M.M >= 4k + 5.

    Every verdict is an array comparison.  Python runs once per orbit that
    some row reaches and once per row that is a multiple of -K or is
    flagged; a consistent block flags no row.
    """
    K = _surface_context(L.shape[1] - 1).canonical
    M = L - np.array([K.a, *K.b], dtype=np.int64)
    m2 = M[:, 0] ** 2 - (M[:, 1:] ** 2).sum(axis=1)
    applicable = np.flatnonzero(m2 >= 4 * k + 5)
    L, M = L[applicable], M[applicable]
    n = len(applicable)

    hit_rows, exceptional_hits = [], []
    for o, _, _, ri, md in _window_hits(table, M):
        hit_rows.append(ri)
        if table.exceptional[o]:
            exceptional_hits.append(ri[md - 1 < k])  # L.x = M.x - (-K).x = M.x - 1
    witnesses = _row_counts(hit_rows, n)
    # Each exceptional class x with L.x < k sits in the window (M.x <= k,
    # x.x = -1), and those hits are the exceptional ones with L.x < k; so a
    # row misses one of them exactly when it has fewer such hits than
    # violating exceptional classes.
    missing_exc = _row_counts(exceptional_hits, n) < exc_below[applicable]

    passes = lowest[applicable] >= k
    # An exception class is a multiple (3m; m, ..., m) of -K.  It satisfies
    # the inequalities without being k-very ample, and the window may or may
    # not show an obstruction for it (it does for -(k+1)K at rank 8, it
    # cannot for -kK), so neither outcome is a violation.
    exception = np.zeros(n, dtype=bool)
    multiple = passes & (L[:, 0] == 3 * L[:, 1]) & (L[:, 1:] == L[:, 1:2]).all(axis=1)
    for i in np.flatnonzero(multiple).tolist():
        exception[i] = _exception_flag(-int(L[i, 1]) * K, k) != EXCEPTION_NONE
    passing = passes & ~exception
    # A k-very-ample class may have no witness at all, so none with D.D <= 0
    # either; a failing one needs a witness and each violating exceptional class.
    flagged = (passing & (witnesses > 0)) | (~passes & ((witnesses == 0) | missing_exc))
    flagged_rows = [(int(applicable[i]), bool(passing[i])) for i in np.flatnonzero(flagged).tolist()]
    counts = (n, int(passing.sum()), int((~passes).sum()), int(exception.sum()), int(witnesses.sum()))
    return counts, flagged_rows


def sweep_blocks(
    blocks: Iterable[np.ndarray], r: int, k: int, sample: int | None,
) -> tuple[int, int, list[int], list[tuple[PicardClass, bool]]]:
    """The block loop of ``consistency_sweep`` at rank r and level k.  Each
    block of candidate rows is converted to exact rows and paired once with
    ``curve_operand(r)``.  The pairing matrix P is reduced once per
    quantity, to each row's smallest pairing (the nef filter) and its count
    of exceptional classes (the first test curves) below k.  With
    ``sample`` the loop stops after that many nef rows.  Returns scanned,
    covered, the five totals of :func:`_decide_block` and the flagged rows
    in row order, as (class, pass flag)."""
    table = _candidate_table(r, k)
    scanned = covered = 0
    totals = [0] * 5
    flagged = []
    for block in blocks:
        L = exact_rows(block)
        P = exact_product(L, curve_operand(r))
        lowest = P.min(axis=1)
        # int16 is exact: a rank has at most 240 exceptional classes
        exc_below = (P[:, :EXCEPTIONAL_CLASS_COUNTS[r]] < k).sum(axis=1, dtype=np.int16)
        nef = np.flatnonzero(lowest >= 0)
        if sample is not None:
            nef = nef[:sample - scanned]
        rows = L[nef]
        counts, found = _decide_block(rows, lowest[nef], exc_below[nef], k, table)
        flagged += [(PicardClass(rows[i, 0], tuple(rows[i, 1:].tolist())), passing) for i, passing in found]
        scanned += len(rows)
        # a box leaf decides its whole permutation orbit
        covered += len(rows) if sample is not None else int(orbit_sizes(rows[:, 1:]).sum())
        totals = [t + c for t, c in zip(totals, counts)]
        if scanned == sample:
            break
    return scanned, covered, totals, flagged
