"""Field linear algebra shared by the matrix, twisted-fiber and cup modules.

Exact routines operate on list-of-list matrices of Fractions; a rank over
Q(i) is taken on the realified rational matrix (``LaurentMatrix.rank_at``).
The numeric rank uses SVD with one fixed relative tolerance, so every
floating rank decision in the package is calibrated at one point.
"""

from __future__ import annotations

from fractions import Fraction

# Relative singular-value cutoff for every numeric rank decision.
NUMERIC_RANK_RTOL = 1e-9


def numeric_rank(a) -> int:
    """Numeric rank of a numpy array by SVD."""
    import numpy as np

    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > NUMERIC_RANK_RTOL * s[0]))


def exact_rref(rows, ncols: int):
    """Reduced row echelon form over Q.

    Returns (rref rows, pivot column list).  The input rows are not
    mutated.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        # Only the pivot row's nonzero entries change the other rows.
        support = [(j, y) for j, y in enumerate(a[r]) if y != 0]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                ai = a[i]
                for j, y in support:
                    ai[j] = ai[j] - f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def exact_rank(rows, ncols: int) -> int:
    return len(exact_rref(rows, ncols)[1])


def exact_kernel(rows, ncols: int):
    """Basis of the right kernel, as a list of length-ncols vectors."""
    rref, pivots = exact_rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][f]
        basis.append(v)
    return basis

