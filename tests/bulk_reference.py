"""Bulk references: the pairing and the family minimum of a block of class
rows, as numpy products.  The package decides every class on Python
integers; the tests compare it against these array forms."""

import numpy as np

from delpezzo.bulk import curve_operand, exact_product, exact_rows, float_operand, orbit_floor
from delpezzo.lattice import LatticeMismatchError, _check_rank
from delpezzo.positivity import _family_table

# Rows are class vectors (a, b_1..b_r), int64 or Python integers as
# ``bulk.exact_rows`` decides.


def pairing_matrix(coeffs: np.ndarray, r: int) -> np.ndarray:
    """(N, m) intersection numbers of N class rows against the rank-r test
    curves; rows of another width than r + 1 raise LatticeMismatchError.
    No ``src`` path calls it; it is the bulk reference the tests compare against."""
    rows = exact_rows(coeffs)
    if rows.shape[1] != r + 1:
        raise LatticeMismatchError(f"rows of width {rows.shape[1]} paired at rank {r}")
    return exact_product(rows, curve_operand(r))


def minimum_family_value_bulk(coeffs: np.ndarray) -> np.ndarray:
    """Row-wise minimum over the inequality families, the rank read off the
    row width: the smallest orbit floor against the families' representatives.
    No ``src`` path calls it; it is the bulk reference the tests compare against."""
    rows = exact_rows(coeffs)
    reps = _family_table(_check_rank(rows.shape[1] - 1)).reps
    return orbit_floor(rows, float_operand(np.array(reps, dtype=np.int64).T)).min(axis=1)
