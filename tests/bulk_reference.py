"""Bulk references: the pairing and the family minimum of a block of class
rows, as numpy products.  The package decides every class on Python
integers; the tests compare it against these array forms."""

import numpy as np

from delpezzo.bulk import curve_operand, exact_product, exact_rows, family_operand
from delpezzo.lattice import LatticeMismatchError, _check_rank

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
    row width: rows in any order, each b sorted descending here, then one
    product with the families' representatives (``bulk.family_operand``),
    the orbit floor the sweep's nef filter reads on descending rows."""
    rows = exact_rows(coeffs)
    rows = np.concatenate([rows[:, :1], np.sort(rows[:, 1:], axis=1)[:, ::-1]], axis=1)
    return exact_product(rows, family_operand(_check_rank(rows.shape[1] - 1))).min(axis=1)
