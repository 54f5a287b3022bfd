"""Cup product with the covering class on rational cohomology.

The edge cocycle classifying the cover is a class xi in H^1(X; Q).  If the
sequence of cup products with xi on H^*(X; Q) is exact, the end-periodic
homology is finite dimensional, so this check is a cheap a priori verdict.

Everything is read off the lifted complex by exact ranks over Q of its
boundaries tensored with Λ/(g) (``LaurentMatrix.rank_mod``).  Write
B_k = d_k(1) and D_k = d_k'(1).  Over Λ/(t - 1) = Q, d_k is B_k, the
boundary of X, so dim H^k = c_k - rank B_k - rank B_(k+1).  Differentiating
d∘d = 0 at 1 gives B D + D B = 0 (the complex constructor checked d∘d = 0
exactly), so D induces H_k(X; Q) -> H_(k-1)(X; Q): the cap product with xi,
dual to the cup product with xi out of degree k-1.  (x, y) is in the kernel
of [[B_k, 0], [D_k, B_k]] exactly when x is a cycle with D x = -B y, and
counting dimensions gives the rank of the induced map as
rank [[B_k, 0], [D_k, B_k]] - 2 rank B_k.  That block matrix is d_k over
Λ/((t - 1)^2) on the basis 1, t - 1, where p = p(1) + p'(1)(t - 1).
"""

from __future__ import annotations

from .complexes import ChainComplexOverLambda
from .laurent import poly


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
        rank_b[k] = cc.boundary(k).rank_mod(poly("t - 1"))
        induced[k - 1] = cc.boundary(k).rank_mod(poly("t^2 - 2*t + 1")) - 2 * rank_b[k]
    coh_dims = [cc.ranks[k] - rank_b[k] - rank_b[k + 1] for k in range(top + 1)]
    defects = [coh_dims[k] - induced[k] - (induced[k - 1] if k else 0) for k in range(top + 1)]
    return {
        "exact": all(d == 0 for d in defects),
        "cohomology_dims": coh_dims,
        "induced_ranks": induced,
        "defects": defects,
    }
