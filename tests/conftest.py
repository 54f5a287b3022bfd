"""Shared builders for the test suite: small matrices, random polynomials,
random chain complexes with known (planted) homology, a fraction-field
rank and an exact determinant that cross-check the Smith normal form, and
a Euclid chain over Q that cross-checks the integer gcd and square-free
decomposition."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from endex import AlexanderData, ChainComplexOverLambda, LaurentMatrix, LaurentPoly
from endex.laurent import canonicalize, poly
from endex.polymatrix import _pivot_key


def mat(rows):
    return LaurentMatrix.from_rows([[poly(e) for e in r] for r in rows])


def scale(p: LaurentPoly, c) -> LaurentPoly:
    """p times the rational c."""
    return p * LaurentPoly.constant(c)


def shift(p: LaurentPoly, k: int) -> LaurentPoly:
    """p times t^k."""
    return p if p.is_zero() else LaurentPoly(p.low + k, p.coeffs)


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


def random_matrix(rng: random.Random, max_size: int = 5, max_span: int = 3) -> LaurentMatrix:
    r, c = rng.randint(0, max_size), rng.randint(0, max_size)
    return LaurentMatrix(r, c, [random_laurent(rng, max_span) for _ in range(r * c)])


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
    mm = LaurentMatrix.from_rows(m) if n else LaurentMatrix(0, 0, [])
    mi = LaurentMatrix.from_rows(minv) if n else LaurentMatrix(0, 0, [])
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
    num, den = 0, 1
    for e in nz:
        c = e.content()
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    content = Fraction(num, den)
    if content != 1:
        row = [scale(e, 1 / content) for e in row]
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
                a[i][j] = num.exact_div(prev)
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
    a = a.primitive_part() if not a.is_zero() else a
    b = b.primitive_part() if not b.is_zero() else b
    while not b.is_zero():
        r = a % b
        a, b = b, (r.primitive_part() if not r.is_zero() else r)
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
    c = f.exact_div(g)
    d = fp.exact_div(g) - _derivative(c)
    out = []
    mult = 1
    while c.span > 0:
        a = reference_laurent_gcd(c, d)
        if a.span > 0:
            out.append((a, mult))
        c = c.exact_div(a)
        d = d.exact_div(a) - _derivative(c)
        mult += 1
    return out
