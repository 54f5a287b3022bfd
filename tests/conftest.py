"""Shared builders for the test suite: small matrices, random polynomials,
random chain complexes with known (planted) homology, a fraction-field
rank and an exact determinant that cross-check the Smith normal form, a
Euclid chain over Q that cross-checks the integer gcd and square-free
decomposition, a dense reduced-row-echelon eliminator that cross-checks
the sparse one in ``endex.linalg``, Horner's rule at a Gaussian point
that cross-checks the ranks over Λ/(g) at one, grid tori and random torus
subcomplexes with a front-face cup check that takes every rank from its
own dense elimination, the wall-jump and annulus counts that cross-check
the index, and Milnor's torsion at rational points that cross-checks the
characteristic polynomials."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd

import pytest

from endex import AlexanderData, ChainComplexOverLambda, GaussianRational, LaurentMatrix, LaurentPoly, SimplicialInput
from endex.inputs import ParsedInput
from endex.laurent import canonicalize, poly
from endex.linalg import eliminate
from endex.pipeline import Analysis
from endex.polymatrix import _pivot_key


def mat(rows):
    return LaurentMatrix.from_rows([[poly(e) for e in r] for r in rows])


def analysis_of(cc: ChainComplexOverLambda, chi: int | None = None) -> Analysis:
    """The Analysis of a complex on its own, in its own dimension."""
    return Analysis(ParsedInput("complex", cc, None, None, cc.n, chi))


def scale(p: LaurentPoly, c) -> LaurentPoly:
    """p times the rational c."""
    return p * LaurentPoly.constant(c)


def shift(p: LaurentPoly, k: int) -> LaurentPoly:
    """p times t^k."""
    return p if p.is_zero() else LaurentPoly(p.low + k, p.coeffs)


def content(p: LaurentPoly) -> Fraction:
    """Positive rational c with p = c * (a primitive integer polynomial)."""
    num, den = 0, 1
    for c in p.coeffs:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den)


def primitive_part(p: LaurentPoly) -> LaurentPoly:
    """p over its content, with lowest exponent zero; zero stays zero."""
    if p.is_zero():
        return p
    c = content(p)
    return LaurentPoly(0, [a / c for a in p.coeffs])


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b in the Laurent ring, for b dividing a."""
    q, r = divmod(a, b)
    assert r.is_zero(), f"{a!r} is not divisible by {b!r}"
    return q


def free_rank(h, k: int) -> int:
    """Free rank of the degree-k homology module, zero off 0..n."""
    return h.free_ranks[k] if 0 <= k <= h.n else 0


def alex_dim(alex, k: int) -> int:
    """Degree span of the degree-k characteristic polynomial."""
    return alex.poly(k).span


def simplicial_json(si) -> dict:
    """A SimplicialInput in the input document schema."""
    return {
        "vertices": si.n_vertices,
        "simplices": {str(d): [list(s) for s in lst] for d, lst in si.simplices.items()},
        "cocycle": {f"{u},{v}": w for (u, v), w in sorted(si.cocycle.items())},
    }


def from_roots(roots) -> LaurentPoly:
    """Monic product of (t - r) over the given exact roots."""
    out = LaurentPoly.one()
    for r in roots:
        out = out * LaurentPoly(0, (-Fraction(r), Fraction(1)))
    return out


def total_multiplicity(walls) -> int:
    """Sum of root multiplicities over every wall in a tuple of walls."""
    return sum(r.multiplicity for w in walls for r in w.contributions)


def jump_at(f, wall_index: int):
    """Signed jump across one wall of an IndexFunction, with its per-degree
    breakdown: (jump, [(degree, multiplicity, signed term), ...]).  Checks
    the jump against the wall and against the value difference across it.
    """
    w = f.walls[wall_index]
    breakdown = [(r.degree_k, r.multiplicity, (-1) ** (r.degree_k + 1) * r.multiplicity)
                 for r in w.contributions]
    jump = sum(term for _, _, term in breakdown)
    assert jump == w.jump == f.values[wall_index + 1] - f.values[wall_index]
    return jump, breakdown


def accumulated_values(n: int, chi: int, walls) -> list:
    """Index on each interval by wall-jump accumulation leftward from the
    large-weight value (-1)^n chi; the reference for the closed count."""
    vals = [(-1) ** n * chi]
    for w in reversed(walls):
        vals.append(vals[-1] - w.jump)
    return list(reversed(vals))


def annulus_count(f, delta1: float, delta2: float) -> int:
    """Root multiplicities on the walls strictly between the two weights,
    signed by degree and by direction; the reference for excision_index."""
    lo, hi = min(delta1, delta2), max(delta1, delta2)
    count = sum((-1) ** r.degree_k * r.multiplicity
                for w in f.walls if lo < w.delta < hi for r in w.contributions)
    return count if delta2 < delta1 else -count


@pytest.fixture
def fox_alexander():
    return AlexanderData(4, [poly("t - 1"), poly("t - 2"), poly("t - 1/2"), poly("t - 1")])


@pytest.fixture
def s1s2_complex():
    return ChainComplexOverLambda(
        [1, 1, 1, 1], [mat([["t - 1"]]), mat([["0"]]), mat([["t - 1"]])]
    )


@pytest.fixture
def circle_complex():
    return ChainComplexOverLambda([1, 1], [mat([["t - 1"]])])


def random_laurent(rng: random.Random, max_span: int = 3, max_coeff: int = 3,
                   low_range: tuple = (-2, 1), zero_chance: float = 0.25) -> LaurentPoly:
    if rng.random() < zero_chance:
        return LaurentPoly.zero()
    span = rng.randint(0, max_span)
    coeffs = [Fraction(rng.randint(-max_coeff, max_coeff)) for _ in range(span + 1)]
    coeffs[0] = coeffs[0] or Fraction(rng.choice([1, -1]))
    coeffs[-1] = coeffs[-1] or Fraction(rng.choice([1, -1]))
    return LaurentPoly(rng.randint(*low_range), coeffs)


def flat(r: int, c: int, entries) -> LaurentMatrix:
    """The r x c matrix with these entries in row-major order."""
    entries = list(entries)
    assert len(entries) == r * c
    return LaurentMatrix(r, c, {divmod(k, c): e for k, e in enumerate(entries)})


def random_matrix(rng: random.Random, max_size: int = 5, max_span: int = 3) -> LaurentMatrix:
    r, c = rng.randint(0, max_size), rng.randint(0, max_size)
    return flat(r, c, [random_laurent(rng, max_span) for _ in range(r * c)])


# Nonzero rational roots whose moduli are pairwise distinct or exactly equal,
# so wall merging stays certifiable on random data.
ROOT_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
    Fraction(-1, 2), Fraction(3), Fraction(2, 3), Fraction(-3, 2),
]

# Irreducible quadratics with conjugate root pairs (exact modulus squares).
QUADRATIC_POOL = ["t^2 + 1", "t^2 - t + 1", "t^2 + 2"]


def random_alexander(rng: random.Random, max_n: int = 5, max_deg: int = 4,
                     quadratics: bool = True):
    """Random characteristic data with certifiable walls, plus a random chi."""
    n = rng.randint(1, max_n)
    polys = []
    for _ in range(n):
        p = LaurentPoly.one()
        deg = 0
        target = rng.randint(0, max_deg)
        # At most one distinct quadratic per polynomial: rational roots are
        # deflated exactly, so the leftover conjugate pair keeps an exact
        # modulus square and every wall stays certifiable.
        quad = rng.choice(QUADRATIC_POOL) if quadratics and rng.random() < 0.3 else None
        while deg < target:
            if quad is not None and deg + 2 <= target:
                p = p * poly(quad)
                deg += 2
                if rng.random() < 0.7:
                    quad = None
            else:
                p = p * from_roots([rng.choice(ROOT_POOL)])
                deg += 1
        polys.append(p)
    chi = rng.randint(-3, 3)
    return AlexanderData(n, polys), chi


def off_wall_delta(rng: random.Random, walls, lo: float = -2.5, hi: float = 2.5,
                   margin: float = 0.02) -> float:
    while True:
        d = rng.uniform(lo, hi)
        if all(abs(d - w.delta) > margin for w in walls):
            return d


def _random_unimodular(rng: random.Random, n: int, ops: int = 8):
    """A unimodular matrix and its exact inverse, as elementary products."""
    m = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
    minv = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        kind = rng.choice(["add", "swap", "unit"])
        if kind == "add":
            i, j = rng.sample(range(n), 2)
            q = LaurentPoly(rng.randint(-1, 1), [Fraction(rng.randint(-2, 2))])
            if q.is_zero():
                continue
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
            for row in minv:
                row[j] = row[j] - q * row[i]
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
            for row in minv:
                row[i], row[j] = row[j], row[i]
        else:
            i = rng.randrange(n)
            u = LaurentPoly(rng.randint(-1, 1), [Fraction(rng.choice([1, -1, 2, -2]))])
            uinv = LaurentPoly(-u.low, [1 / u.coeffs[0]])
            m[i] = [u * x for x in m[i]]
            for row in minv:
                row[i] = row[i] * uinv
    eye = LaurentMatrix.identity(n)
    mm = LaurentMatrix.from_rows(m) if n else LaurentMatrix.zero(0, 0)
    mi = LaurentMatrix.from_rows(minv) if n else LaurentMatrix.zero(0, 0)
    assert mm * mi == eye
    return mm, mi


def planted_complex(rng: random.Random, n: int | None = None, allow_free: bool = False):
    """A disguised direct sum of elementary complexes with known homology.

    Returns (complex, expected) where expected maps degree -> (free_rank,
    [invariant factors]).  Invariant factors are planted as divisibility
    chains so the computed ones match them literally.
    """
    if n is None:
        n = rng.choice([2, 3])
    torsion: dict[int, list[LaurentPoly]] = {}
    frees: dict[int, int] = {}
    for k in range(n + 1):
        frees[k] = rng.choice([0, 0, 1]) if allow_free else 0
        if k == n:
            torsion[k] = []
            continue
        count = rng.choice([0, 1, 1, 2])
        chain = []
        q = LaurentPoly.one()
        for _ in range(count):
            q = q * from_roots([rng.choice(ROOT_POOL)])
            chain.append(q)
        torsion[k] = chain
    ranks = []
    for k in range(n + 1):
        sources = len(torsion[k - 1]) if k >= 1 else 0
        ranks.append(len(torsion[k]) + sources + frees[k])
    boundaries = []
    for k in range(1, n + 1):
        rows, cols = ranks[k - 1], ranks[k]
        grid = [[LaurentPoly.zero() for _ in range(cols)] for _ in range(rows)]
        for i, q in enumerate(torsion[k - 1]):
            grid[i][len(torsion[k]) + i] = q
        boundaries.append(
            LaurentMatrix.from_rows(grid) if rows else LaurentMatrix.zero(0, cols)
        )
    transforms = [_random_unimodular(rng, r) for r in ranks]
    disguised = []
    for k in range(1, n + 1):
        u_prev, _ = transforms[k - 1]
        _, u_inv = transforms[k]
        disguised.append(u_prev * boundaries[k - 1] * u_inv)
    cc = ChainComplexOverLambda(ranks, disguised)
    expected = {k: (frees[k], list(torsion[k])) for k in range(n + 1)}
    return cc, expected


def planted_roots(expected) -> set:
    out = set()
    for _, chain in expected.values():
        for q in chain:
            for r in ROOT_POOL:
                if q.evaluate(r) == 0:
                    out.add(r)
    return out


def gaussian_evaluate(p: LaurentPoly, z: GaussianRational) -> GaussianRational:
    """p at the Gaussian point z, exactly: Horner's rule on (re, im) pairs
    of Fractions.  The reference for exact work at a + bi, which endex does
    modulo the minimal polynomial of z instead.  z must be nonzero when p
    has negative exponents."""
    zr, zi = z.re, z.im
    ar = ai = Fraction(0)
    for c in reversed(p.coeffs):
        ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr
    # t^low is |low| factors of z, or of 1/z when low is negative.
    if p.low < 0:
        n = zr * zr + zi * zi
        zr, zi = zr / n, -zi / n
    for _ in range(abs(p.low)):
        ar, ai = ar * zr - ai * zi, ar * zi + ai * zr
    return GaussianRational(ar, ai)


def rank_ff(m: LaurentMatrix) -> int:
    """Rank over the fraction field, by cross-multiplication elimination.

    Independent of the Smith normal form path; the tests' cross-check of
    its rank.
    """
    a = [m.row(i) for i in range(m.rows)]
    nr, nc = m.rows, m.cols
    rank = 0
    for col in range(nc):
        pivot = None
        for i in range(rank, nr):
            if not a[i][col].is_zero():
                if pivot is None or _pivot_key(a[i][col]) < _pivot_key(a[pivot][col]):
                    pivot = i
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, nr):
            if a[i][col].is_zero():
                continue
            f = a[i][col]
            row = [p * a[i][j] - f * a[rank][j] for j in range(nc)]
            a[i] = _strip_row_units(row)
        rank += 1
        if rank == nr:
            break
    return rank


def _strip_row_units(row):
    """Scale a row by a unit so entries stay small during elimination."""
    nz = [e for e in row if not e.is_zero()]
    if not nz:
        return row
    lead = -min(e.low for e in nz)
    if lead:
        row = [shift(e, lead) for e in row]
        nz = [e for e in row if not e.is_zero()]
    c = content(LaurentPoly(0, [x for e in nz for x in e.coeffs]))
    if c != 1:
        row = [scale(e, 1 / c) for e in row]
    return row


def to_lists(m: LaurentMatrix):
    return [m.row(i) for i in range(m.rows)]


def determinant(m: LaurentMatrix) -> LaurentPoly:
    """Exact determinant: Laplace expansion to 5x5, Bareiss above.  The
    tests' check that Smith transforms are unimodular."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return LaurentPoly.one()
    rows = to_lists(m)
    if n <= 5:
        return _det_laplace(rows, list(range(n)))
    return _det_bareiss(rows)


def _det_laplace(rows, cols):
    if len(cols) == 1:
        return rows[len(rows) - 1][cols[0]]
    out = LaurentPoly.zero()
    r = len(rows) - len(cols)
    for idx, c in enumerate(cols):
        e = rows[r][c]
        if e.is_zero():
            continue
        sub = _det_laplace(rows, cols[:idx] + cols[idx + 1 :])
        term = e * sub
        out = out + (term if idx % 2 == 0 else -term)
    return out


def _det_bareiss(rows):
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return LaurentPoly.zero()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = exact_div(num, prev)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def reference_laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Canonical gcd by a Euclid remainder chain over Q, stripping each
    remainder's unit content.  Independent of the integer kernel; the
    tests' cross-check of ``laurent_gcd``.
    """
    a, b = poly(p), poly(q)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = primitive_part(a), primitive_part(b)
    while not b.is_zero():
        a, b = b, primitive_part(a % b)
    return canonicalize(a)


def _derivative(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero():
        return p
    return LaurentPoly(p.low - 1, [c * (p.low + i) for i, c in enumerate(p.coeffs)])


def reference_squarefree_decomposition(p: LaurentPoly):
    """Yun's algorithm over Q with ``reference_laurent_gcd``; the tests'
    cross-check of ``squarefree_decomposition``."""
    p = poly(p)
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    f = canonicalize(p)
    if f.span == 0:
        return []
    fp = _derivative(f)
    g = reference_laurent_gcd(f, fp)
    c = exact_div(f, g)
    d = exact_div(fp, g) - _derivative(c)
    out = []
    mult = 1
    while c.span > 0:
        a = reference_laurent_gcd(c, d)
        if a.span > 0:
            out.append((a, mult))
        c = exact_div(c, a)
        d = exact_div(d, a) - _derivative(c)
        mult += 1
    return out


def triangulated_torus(k: int, m: int, level, keep=lambda: True) -> SimplicialInput:
    """The k x m grid torus, each square cut along its diagonal.  level
    maps a point of the integer lattice to its level in the cover, and the
    cocycle is level(q) - level(p) on the edge from p to q; keep() decides
    for each triangle in turn whether it stays (every edge stays)."""

    def vertex(p):
        return (p[0] % k) * m + p[1] % m

    cocycle, triangles = {}, []
    for x in range(k):
        for y in range(m):
            for middle in ((x + 1, y), (x, y + 1)):
                corners = [(x, y), middle, (x + 1, y + 1)]
                for p in corners:
                    for q in corners:
                        if vertex(p) < vertex(q):
                            cocycle[(vertex(p), vertex(q))] = level(q) - level(p)
                if keep():
                    triangles.append(tuple(sorted(vertex(p) for p in corners)))
    simplices = {1: sorted(cocycle), 2: triangles}
    return SimplicialInput(k * m, simplices, cocycle)


def grid_torus(k: int) -> SimplicialInput:
    """The k x k grid torus covered along its first axis: the cover is a
    cylinder, with H0 = H1 = Λ/(t - 1) and H2 = 0."""
    return triangulated_torus(k, k, lambda p: p[0] // k)


def random_torus_subcomplex(rng: random.Random) -> SimplicialInput:
    """A triangulated k x m torus (k, m in 3..4) with none, some or all of
    its triangles dropped (every edge kept).  The cocycle counts a times each
    crossing of the first seam and b times each crossing of the second,
    plus the coboundary of a random potential."""
    k, m = rng.randint(3, 4), rng.randint(3, 4)
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    potential = [rng.randint(-2, 2) for _ in range(k * m)]
    keep = rng.choice((1.0, 1.0, 0.8, 0.3, 0.0))
    return triangulated_torus(
        k, m, lambda p: a * (p[0] // k) + b * (p[1] // m) + potential[(p[0] % k) * m + p[1] % m],
        lambda: rng.random() < keep)


def exact_rref(rows, ncols: int):
    """Reduced row echelon form over Q of dense rows, by pivoting on the
    first nonzero entry of each column in turn.  Returns (rref rows, pivot
    column list); the input rows are not mutated.  The tests' reference
    for the sparse eliminator in ``endex.linalg``."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        support = [(j, y) for j, y in enumerate(a[r]) if y != 0]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                for j, y in support:
                    a[i][j] -= f * y
        pivots.append(c)
    return a, pivots


def dense_rank(rows, ncols: int) -> int:
    return len(exact_rref(rows, ncols)[1])


def dense_kernel(rows, ncols: int):
    """Basis of the right kernel of dense rows, one vector per free column."""
    rref, pivots = exact_rref(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][f]
        basis.append(v)
    return basis


def dense_band(band, m):
    """The matrix whose m + 1 diagonals `twisted._shift_band` packs: entry
    r * (m + 1) + c of the row-major list goes to (r, r + c) of a
    (rows, rows + m) array of zeros."""
    import numpy as np

    packed = np.reshape(band, (-1, m + 1))
    rows = len(packed)
    a = np.zeros((rows, rows + m))
    r = np.arange(rows)[:, None]
    a[r, r + np.arange(m + 1)] = packed
    return a


def front_face_matrices(x: SimplicialInput, k: int):
    """The degree-k coboundary of X, and the matrix of cupping a k-cochain
    with the edge cocycle by the front-face/back-edge rule on ordered
    simplices; both have a row per (k+1)-simplex."""
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


def reference_cup_product_check(x: SimplicialInput):
    """cup_product_check's numbers from the simplicial datum itself, by the
    front-face rule and the dense eliminator, with every rank from its own
    elimination: per degree, the kernel of the coboundary, the rank of the
    previous coboundary, and the ranks of the coboundary's columns with and
    without the cup images of the cocycles."""
    top = x.dimension
    counts = [len(x.simplex_list(d)) for d in range(top + 2)]
    cob, cup = zip(*(front_face_matrices(x, k) for k in range(top + 1)))
    coh, induced = [], []
    for k in range(top + 1):
        kernel = dense_kernel(cob[k], counts[k])
        coh.append(len(kernel) - (dense_rank(cob[k - 1], counts[k - 1]) if k else 0))
        if k == top:
            induced.append(0)
            continue
        images = [[sum((c * v[i] for i, c in enumerate(row)), Fraction(0)) for row in cup[k]] for v in kernel]
        cob_cols = [[cob[k][r][j] for r in range(counts[k + 1])] for j in range(counts[k])]
        induced.append(dense_rank(images + cob_cols, counts[k + 1]) - dense_rank(cob_cols, counts[k + 1]))
    defects = [coh[k] - induced[k] - (induced[k - 1] if k else 0) for k in range(top + 1)]
    return {"exact": all(d == 0 for d in defects), "cohomology_dims": coh,
            "induced_ranks": induced, "defects": defects}


# Milnor's torsion identity (Infinite cyclic coverings, 1968): for finite
# homology, the torsion of C over Q(t) is c t^m prod_k Δ_k^((-1)^(k+1)).
# At a rational z that is no root of any Δ_k the evaluated complex is
# acyclic, and its torsion is the identity's value at z.  Fitting c and m
# uses two of the three points, and the third must agree.  A wrong factor
# t - 11 in one Δ_k multiplies the ratio of the values at 2 and 3 by
# (9/8)^(+-1), which no power of 2/3 absorbs, so it is always caught.
TORSION_POINTS = (Fraction(2), Fraction(3), Fraction(5, 7))


def _nonzero_entries(m: LaurentMatrix) -> list:
    """(row, column, entry) for every nonzero entry of m."""
    return [(i, j, e) for (i, j), e in sorted(m.nonzeros.items())]


def _permutation_sign(perm) -> int:
    """Sign of a permutation of 0..len(perm)-1, from its cycles."""
    seen = [False] * len(perm)
    flips = 0
    for i in range(len(perm)):
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            flips += j != i
    return -1 if flips % 2 else 1


def _pivot_rows(cols):
    """Eliminate the columns left to right over Q (``linalg.eliminate``);
    returns each column's pivot row and the product of the pivots, or None
    when the columns are dependent."""
    reduced = eliminate(cols)
    if len(reduced) < len(cols):
        return None
    product = Fraction(1)
    for p, col in reduced.items():
        product *= col[p]
    return list(reduced), product


def milnor_torsion(cc: ChainComplexOverLambda, points=TORSION_POINTS) -> list:
    """Torsion of the complex evaluated at each point, None at a point
    where the evaluated complex is not acyclic.

    Turaev's convention, tau = prod_k [d(b_(k+1)) b_k / c_k]^((-1)^(k+1)),
    with each b_k a set S_k of basis vectors of C_k, chosen from the top
    degree down: S_n is all of C_n, and S_(k-1) is the complement of the
    pivot rows of an elimination of the columns S_k of d_k.  Then
    [d(b_k) b_(k-1) / c_(k-1)] is the product of those pivots, signed by
    the permutation listing the pivot rows and then S_(k-1).  On the
    circle, tau(z) = 1 / (z - 1) = Δ0(z)^-1.
    """
    entries = {k: _nonzero_entries(cc.boundary(k)) for k in range(1, cc.n + 1)}
    return [_torsion_at(cc, entries, z) for z in points]


def _torsion_at(cc: ChainComplexOverLambda, entries, z: Fraction) -> Fraction | None:
    """milnor_torsion at one point, from the nonzero entries of each boundary."""
    tau = Fraction(1)
    basis = list(range(cc.ranks[cc.n]))
    for k in range(cc.n, 0, -1):
        columns = [{} for _ in range(cc.ranks[k])]
        for i, j, e in entries[k]:
            v = e.evaluate(z)
            if v:
                columns[j][i] = v
        eliminated = _pivot_rows([columns[j] for j in basis])
        if eliminated is None:
            return None
        rows, product = eliminated
        taken = set(rows)
        basis = [r for r in range(cc.ranks[k - 1]) if r not in taken]
        d = _permutation_sign(rows + basis) * product
        tau = tau / d if k % 2 else tau * d
    return None if basis else tau


def torsion_matches(torsions, polys) -> bool:
    """Milnor's identity for the torsions at TORSION_POINTS and the
    characteristic polynomials polys[k] of degree k: the torsion over
    prod_k polys[k]^((-1)^(k+1)) is one c z^m at all three points."""
    ratios = []
    for z, tau in zip(TORSION_POINTS, torsions):
        assert tau is not None, f"the complex is not acyclic at {z}"
        expected = Fraction(1)
        for k, p in enumerate(polys):
            expected *= p.evaluate(z) ** (-1) ** (k + 1)
        ratios.append(tau / expected)
    q = abs(ratios[0] / ratios[1])  # (2/3)^m when the identity holds
    m = round((math.log(q.numerator) - math.log(q.denominator)) / math.log(2 / 3))
    c = ratios[0] / TORSION_POINTS[0] ** m
    return all(v == c * z ** m for v, z in zip(ratios, TORSION_POINTS))
