"""Cup product with the covering class on rational cohomology.

The edge cocycle classifying the cover is a class xi in H^1(X; Q).  If the
sequence of cup products with xi on H^*(X; Q) is exact, the end-periodic
homology is finite dimensional, so this check is a cheap a priori verdict.

Everything is read off the lifted complex at t = 1, with exact ranks over
Q.  Write B_k = d_k(1) and D_k = d_k'(1).  B is the boundary of X, so
dim H^k = c_k - rank B_k - rank B_(k+1).  Differentiating d∘d = 0 at 1
gives B D + D B = 0 (the complex constructor checked d∘d = 0 exactly), so
D induces H_k(X; Q) -> H_(k-1)(X; Q): the cap product with xi, dual to the
cup product with xi out of degree k-1.  (x, y) is in the kernel of
[[B_k, 0], [D_k, B_k]] exactly when x is a cycle with D x = -B y, and
counting dimensions gives the rank of the induced map as
rank [[B_k, 0], [D_k, B_k]] - 2 rank B_k.
"""

from __future__ import annotations

from .complexes import ChainComplexOverLambda
from .linalg import exact_rank, sparse_columns


def cup_product_check(cc: ChainComplexOverLambda):
    """Exactness verdict for the cup-multiplication sequence on cohomology,
    from the lifted complex of a simplicial input.

    Returns a report with per-degree cohomology dimensions, the rank of the
    cup map out of each degree (zero out of the top one) and the defects;
    exact means every defect vanishes.
    """
    top = cc.n
    rank_b, induced = [0] * (top + 2), [0] * (top + 1)
    for k in range(1, top + 1):
        rows, cols = cc.ranks[k - 1], cc.ranks[k]
        nonzero = [(*divmod(idx, cols), e) for idx, e in enumerate(cc.boundary(k).entries) if e.coeffs]
        # B_k, then D_k below it and B_k again in the corner: [[B_k, 0], [D_k, B_k]].
        value = [(i, j, sum(e.coeffs)) for i, j, e in nonzero]
        slope = [(i + rows, j, sum((e.low + a) * c for a, c in enumerate(e.coeffs))) for i, j, e in nonzero]
        corner = [(i + rows, j + cols, x) for i, j, x in value]
        rank_b[k] = exact_rank(sparse_columns(value, cols))
        induced[k - 1] = exact_rank(sparse_columns(value + slope + corner, 2 * cols)) - 2 * rank_b[k]
    coh_dims = [cc.ranks[k] - rank_b[k] - rank_b[k + 1] for k in range(top + 1)]
    defects = [coh_dims[k] - induced[k] - (induced[k - 1] if k else 0) for k in range(top + 1)]
    return {
        "exact": all(d == 0 for d in defects),
        "cohomology_dims": coh_dims,
        "induced_ranks": induced,
        "defects": defects,
    }
