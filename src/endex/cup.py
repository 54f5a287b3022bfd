"""Cup product with the covering class on rational cohomology.

The edge cocycle classifying the cover is a 1-cocycle; multiplying by it
maps degree-k classes to degree-(k+1) classes via the front-face/back-edge
rule on ordered simplices.  Exactness of the resulting sequence on
cohomology is a sufficient condition for the end-periodic homology to be
finite dimensional, so this check is a cheap a priori verdict.

All linear algebra here is exact over the rationals, and each coboundary
cob_k is eliminated once.  Its kernel is the space Z_k of cocycles, and
rank-nullity gives rank(cob_k) = dim C^k - dim Z_k, which serves both
H^k = Z_k / im(cob_(k-1)) and the induced map: cupping sends Z_k to
H^(k+1) with rank rank([cup_k Z_k | cob_k]) - rank(cob_k), the one other
elimination per degree.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import SimplicialInput
from .errors import CertificationError, UnsupportedInputError
from .linalg import exact_kernel, exact_rank, mat_mul


def _matrices(x: SimplicialInput, k: int):
    """The degree-k coboundary, and the matrix of cupping a k-cochain with
    the edge cocycle; both have a row per (k+1)-simplex."""
    lower = x.simplex_list(k)
    index = {s: i for i, s in enumerate(lower)}
    cob, cup = [], []
    for s in x.simplex_list(k + 1):
        row = [Fraction(0)] * len(lower)
        for i in range(k + 2):
            row[index[s[:i] + s[i + 1 :]]] += Fraction(-1 if i % 2 else 1)
        cob.append(row)
        row = [Fraction(0)] * len(lower)
        row[index[s[:-1]]] = Fraction(x.edge_value(s[-2], s[-1]))
        cup.append(row)
    return cob, cup


def cup_product_check(x: SimplicialInput):
    """Exactness verdict for the cup-multiplication sequence on cohomology.

    Returns a report with per-degree cohomology dimensions and defects;
    exact means every defect vanishes.  Raises UnsupportedInputError for
    anything that is not a simplicial datum (the front-face rule needs
    ordered simplices).
    """
    if not isinstance(x, SimplicialInput):
        raise UnsupportedInputError("cup product check needs a simplicial input")
    top = x.dimension
    counts = [len(x.simplex_list(d)) for d in range(top + 1)]
    cob, cup = zip(*(_matrices(x, k) for k in range(top + 1)))

    # The cup map must commute with the coboundary before it can descend.
    zero = Fraction(0)
    for k in range(top):
        if mat_mul(cob[k + 1], cup[k], counts[k], zero) != mat_mul(cup[k + 1], cob[k], counts[k], zero):
            raise CertificationError("cup", f"cup map does not commute with the coboundary at degree {k}")

    # One elimination per coboundary: its kernel is the cocycles Z_k, and
    # rank-nullity gives its rank.
    kernels = [exact_kernel(cob[k], counts[k]) for k in range(top + 1)]
    ranks = [counts[k] - len(z) for k, z in enumerate(kernels)]
    coh_dims = [len(z) - (ranks[k - 1] if k else 0) for k, z in enumerate(kernels)]

    # The induced map on degree-k cohomology sends Z_k to cup_k Z_k modulo
    # the image of cob_k; its rank is rank([cup_k Z_k | cob_k]) - rank(cob_k).
    induced = []
    for k in range(top):
        images = mat_mul(cup[k], list(zip(*kernels[k])), len(kernels[k]), zero)
        block = [img + row for img, row in zip(images, cob[k])]
        induced.append(exact_rank(block, len(kernels[k]) + counts[k]) - ranks[k])
    induced.append(0)

    defects = [coh_dims[k] - induced[k] - (induced[k - 1] if k else 0) for k in range(top + 1)]
    return {
        "exact": all(d == 0 for d in defects),
        "cohomology_dims": coh_dims,
        "induced_ranks": induced,
        "defects": defects,
    }
