"""Array helpers: the one numpy module of the package besides its caller
:mod:`delpezzo.reider`, and the one exactness rule of every array path.

Bulk inputs refuse non-integers, as PicardClass does.  Class rows are
int64 only while every entry is within SAFE_COEFF_BOUND
(:func:`exact_rows`), object arrays of Python integers beyond it, so no
result wraps; an int64 block is at most shifted by a class of small
coefficients such as K.  A right operand B is float64
(:func:`float_operand`) only when every partial sum of such a row against
a column of B is an integer below FLOAT_EXACT_BOUND = 2**53, which
float64 holds exactly however BLAS splits and orders the sums;
:func:`exact_product` runs any other pair on Python integers.

This module is also the home of the S_r orbits of a representative
(a; b), b non-increasing: :func:`expand_orbit` lists the orbit of a row,
:func:`orbit_sizes` counts the orbits of many rows without expanding
them, and :func:`orbit_floor` takes the smallest pairing of many rows
with each of many orbits.  :func:`curve_operand` holds the test curves
of a rank as a product operand.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import factorial

import numpy as np

from .enumeration import orderings, surface_context

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


@lru_cache(maxsize=None)
def curve_operand(r: int) -> np.ndarray:
    """The test curves of ``surface_context(r)`` as the right operand of
    :func:`exact_product`, read-only: column j is ``(x_a, -x_b1, ..., -x_br)``
    for test curve x_j, so ``rows @ curve_operand(r)`` pairs class rows
    against the test curves."""
    curves = surface_context(r).test_curves
    signed = np.array([[x.a, *(-y for y in x.b)] for x in curves], dtype=np.int64)
    return float_operand(_read_only(signed.T))


def expand_orbit(rep: np.ndarray) -> np.ndarray:
    """The S_r orbit of the row ``rep`` = (a; b), b non-increasing: one row
    (a; b') per distinct ordering b' of b (:func:`orderings`), in ascending
    (a, b) order and in the dtype of ``rep``."""
    return np.array([(rep[0], *b) for b in orderings(rep[1:].tolist())], dtype=rep.dtype)


def orbit_sizes(b: np.ndarray) -> np.ndarray:
    """The orbit size of each row of b, whose rows are sorted: the
    multinomial ``len(row)! / prod(m!)`` over the multiplicities m, where
    the running counts of equal neighbours multiply to prod(m!)."""
    run = np.ones(len(b), dtype=np.int64)
    denominator = np.ones(len(b), dtype=np.int64)
    for j in range(1, b.shape[1]):
        run = np.where(b[:, j] == b[:, j - 1], run + 1, 1)
        denominator *= run
    return factorial(b.shape[1]) // denominator


def orbit_floor(rows: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """The smallest pairing ``y0*x0 - <y, x'>`` of each class row (y0; y)
    with the orbit of each representative (x0; x), x non-increasing, over
    the orderings x' of x: by the rearrangement inequality the largest
    ``<y, x'>`` pairs y sorted descending with x, so the (rows x orbits)
    floor is one exact product of ``(y0; sort(-y))`` with ``operand``,
    the representatives as columns (see :func:`float_operand`), for rows
    from :func:`exact_rows` (at most shifted by a small class)."""
    return exact_product(np.column_stack([rows[:, 0], np.sort(-rows[:, 1:], axis=1)]), operand)
