"""Cup product with the covering class on rational cohomology.

The edge cocycle classifying the cover is a 1-cocycle; multiplying by it
maps degree-k classes to degree-(k+1) classes via the front-face/back-edge
rule on ordered simplices.  Exactness of the resulting sequence on
cohomology is a sufficient condition for the end-periodic homology to be
finite dimensional, so this check is a cheap a priori verdict.

All linear algebra here is exact over the rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import SimplicialInput
from .errors import CertificationError, UnsupportedInputError
from .linalg import exact_kernel, exact_rank


def _coboundary(x: SimplicialInput, k: int):
    """Matrix of the degree-k coboundary (rows: (k+1)-simplices)."""
    lower = x.simplex_list(k)
    upper = x.simplex_list(k + 1)
    index = {s: i for i, s in enumerate(lower)}
    rows = []
    for s in upper:
        row = [Fraction(0)] * len(lower)
        for i in range(k + 2):
            face = s[:i] + s[i + 1 :]
            row[index[face]] += Fraction(-1 if i % 2 else 1)
        rows.append(row)
    return rows


def _cup_with_cocycle(x: SimplicialInput, k: int):
    """Matrix of cupping a k-cochain with the edge cocycle."""
    lower = x.simplex_list(k)
    upper = x.simplex_list(k + 1)
    index = {s: i for i, s in enumerate(lower)}
    rows = []
    for s in upper:
        row = [Fraction(0)] * len(lower)
        front = s[:-1]
        row[index[front]] = Fraction(x.edge_value(s[-2], s[-1]))
        rows.append(row)
    return rows


def _mat_mul(a, b, cols: int):
    """Exact product a*b; zero entries of a and b are skipped."""
    b_support = [[(j, y) for j, y in enumerate(rb) if y] for rb in b]
    out = []
    for ra in a:
        row = [Fraction(0)] * cols
        for x, support in zip(ra, b_support):
            if x:
                for j, y in support:
                    row[j] += x * y
        out.append(row)
    return out


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
    counts = [len(x.simplex_list(d)) for d in range(top + 2)]
    cob = {k: _coboundary(x, k) for k in range(top + 1)}
    cup = {k: _cup_with_cocycle(x, k) for k in range(top + 1)}

    # The cup map must commute with the coboundary before it can descend.
    for k in range(top):
        left = _mat_mul(cob[k + 1], cup[k], counts[k])
        right = _mat_mul(cup[k + 1], cob[k], counts[k])
        if left != right:
            raise CertificationError("cup", f"cup map does not commute with the coboundary at degree {k}")

    kernels = {}
    coh_dims = {}
    im_ranks = {}
    for k in range(top + 1):
        kernels[k] = exact_kernel(cob[k], counts[k])
        im_ranks[k] = exact_rank(cob[k - 1], counts[k - 1]) if k >= 1 else 0
        coh_dims[k] = len(kernels[k]) - im_ranks[k]

    # Rank of the induced map on degree-k cohomology: columns are cup
    # images of kernel representatives together with coboundaries, modulo
    # the coboundaries.
    induced_rank = {}
    for k in range(top + 1):
        if k == top:
            induced_rank[k] = 0
            continue
        cup_support = [[(i, c) for i, c in enumerate(row) if c] for row in cup[k]]
        cols = []
        for v in kernels[k]:
            cols.append([sum((c * v[i] for i, c in support), Fraction(0)) for support in cup_support])
        boundary_cols = [
            [cob[k][r][j] for r in range(counts[k + 1])] for j in range(counts[k])
        ]
        combined = [list(c) for c in cols] + boundary_cols
        total = exact_rank(combined, counts[k + 1])
        induced_rank[k] = total - exact_rank(boundary_cols, counts[k + 1])

    defects = []
    for k in range(top + 1):
        incoming = induced_rank[k - 1] if k >= 1 else 0
        defects.append(coh_dims[k] - induced_rank[k] - incoming)
    exact = all(d == 0 for d in defects)
    return {
        "exact": exact,
        "cohomology_dims": [coh_dims[k] for k in range(top + 1)],
        "induced_ranks": [induced_rank[k] for k in range(top + 1)],
        "defects": defects,
    }
