"""Field linear algebra under the ranks of Laurent matrices.

Exact ranks over Q come from one column-sparse eliminator: a matrix is a
sequence of columns, each a dict from row index to a nonzero Fraction, so
only the nonzero entries are ever stored or visited.  Every exact rank over
a quotient Λ/(g) reaches it as blocks (``LaurentMatrix.rank_mod``).  The
numeric rank uses SVD with one fixed relative tolerance, so every floating
rank decision in the package is calibrated at one point.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import FloatRangeError

# Relative singular-value cutoff for every numeric rank decision.
NUMERIC_RANK_RTOL = 1e-9


def numeric_rank(a, z) -> int:
    """Numeric rank by SVD of a matrix of floats (nested lists or array),
    the value of some matrix at the point z.  An entry that is not finite
    raises FloatRangeError naming z."""
    import numpy as np

    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise FloatRangeError(f"the matrix evaluated at z = {z} has an entry that is not a finite float")
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > NUMERIC_RANK_RTOL * s[0]))


def eliminate(columns) -> dict:
    """Gaussian elimination over Q on sparse columns, left to right.

    Each column is reduced against the pivots of the columns before it,
    earliest pivot first; what is left, if anything, pivots at its smallest
    row.  A reduced column is zero at the pivot rows of the columns before
    it, so a subtraction only fills rows of later pivots, and each pivot
    row is cleared at most once.  Returns {pivot row: reduced column} in
    column order: as many pivots as the rank, and no column is mutated.
    """
    reduced, position, rows = {}, {}, []
    for col in columns:
        col = dict(col)
        pending = [position[r] for r in col if r in position]
        heapq.heapify(pending)
        while pending:
            r = rows[heapq.heappop(pending)]
            if not col.get(r):
                continue
            v = reduced[r]
            f = col[r] / v[r]
            for i, x in v.items():
                y = col.get(i, 0) - f * x
                if y:
                    if i not in col and i in position:
                        heapq.heappush(pending, position[i])
                    col[i] = y
                else:
                    col.pop(i, None)
        if col:
            p = min(col)
            position[p] = len(rows)
            rows.append(p)
            reduced[p] = col
    return reduced


def exact_rank(columns) -> int:
    """Rank over Q of the matrix with these sparse columns."""
    return len(eliminate(columns))


def exact_kernel(columns):
    """Basis of the right kernel, as vectors of length len(columns).  Column
    j gets a 1 on a tag row of its own below the matrix, so a column that
    pivots on a tag row has cancelled its matrix part, and its tag entries
    are a kernel vector."""
    tag = 1 + max((i for c in columns for i in c), default=-1)
    pivots = eliminate([{**c, tag + j: Fraction(1)} for j, c in enumerate(columns)])
    return [[v.get(tag + j, Fraction(0)) for j in range(len(columns))] for p, v in pivots.items() if p >= tag]
