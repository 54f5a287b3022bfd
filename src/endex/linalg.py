"""Field linear algebra under the ranks of Laurent matrices.

Exact ranks over Q come from one column-sparse eliminator: a matrix is a
sequence of columns, each a dict from row index to a nonzero Fraction, so
only the nonzero entries are ever stored or visited.  Every exact rank over
a quotient Λ/(g) reaches it as blocks (``LaurentMatrix.rank_mod``).  The
numeric rank is Gaussian elimination with complete pivoting in Python
complex floats, on the nonzero entries alone, with one fixed relative
tolerance, so every floating rank decision in the package is calibrated at
one point.  On the matrices the tests draw, its count differs from an SVD
count at the same tolerance only where a singular value lies within a
small factor (under a decade) of the cutoff.
"""

from __future__ import annotations

import cmath
import heapq
import math
from fractions import Fraction

from .errors import FloatRangeError

# Relative pivot cutoff for every numeric rank decision.
NUMERIC_RANK_RTOL = 1e-9


def numeric_rank(entries, z) -> int:
    """Numeric rank of a matrix of floats, the value of some matrix at the
    point z, given as a mapping from (row, column) to entry, every entry it
    does not name being zero: the number of pivots of Gaussian elimination
    with complete pivoting above NUMERIC_RANK_RTOL times the first pivot,
    which is the largest entry.  The entries are first scaled by the power
    of two that brings the largest real or imaginary part into [1/2, 1),
    which is exact and rules out overflow.  Each row is a dict from column
    to entry, and each column lists the rows that hold it, so that a pivot
    step visits only the rows it changes.  An entry that is not finite
    raises FloatRangeError naming z."""
    if not all(map(cmath.isfinite, entries.values())):
        raise FloatRangeError(f"the matrix evaluated at z = {z} has an entry that is not a finite float")
    top = max((max(abs(x.real), abs(x.imag)) for x in entries.values()), default=0.0)
    e = -math.frexp(top)[1]
    rows, holders = {}, {}
    for (i, j), x in sorted(entries.items()):
        if x:
            rows.setdefault(i, {})[j] = complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
            holders.setdefault(j, []).append(i)
    largest = {i: max(map(abs, row.values())) for i, row in rows.items()}
    rank, cutoff = 0, 0.0
    while largest:
        # Ties go to the first row and, in it, to the first column stored.
        i = max(largest, key=largest.get)
        p = largest.pop(i)
        if p <= cutoff:
            break
        cutoff = cutoff or NUMERIC_RANK_RTOL * p
        rank += 1
        pivot_row = rows.pop(i)
        j = next(c for c, x in pivot_row.items() if abs(x) == p)
        pivot = pivot_row.pop(j)
        for r in holders.pop(j):
            row = rows.get(r)
            if row is None:  # a row already pivoted or emptied
                continue
            x = row.pop(j)
            if x:
                f = x / pivot
                for c, w in pivot_row.items():
                    if c in row:
                        row[c] -= f * w
                    else:
                        row[c] = -f * w
                        holders[c].append(r)
            if row:
                largest[r] = max(map(abs, row.values()))
            else:
                del rows[r], largest[r]
    return rank


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
