"""Seeded input documents for the endex benchmark, each with the answer it
must produce.

Nothing here imports endex.  Every expected answer follows from how the
document was built: planted roots, planted invariant factors, or the
closed-form homology of a product with a circle.  The arithmetic is the
benchmark's own (tuples of Fractions), so a bug in endex's arithmetic
cannot hide itself by also producing the expected answer.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

# -- Laurent polynomials as (low, coeffs), first and last coeff nonzero ------

ZERO = (0, ())
ONE = (0, (Fraction(1),))


def lp(low, coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    start, end = 0, len(coeffs)
    while start < end and coeffs[start] == 0:
        start += 1
    while end > start and coeffs[end - 1] == 0:
        end -= 1
    if start == end:
        return ZERO
    return (low + start, tuple(coeffs[start:end]))


def ladd(a, b):
    if not a[1]:
        return b
    if not b[1]:
        return a
    low = min(a[0], b[0])
    out = [Fraction(0)] * (max(a[0] + len(a[1]), b[0] + len(b[1])) - low)
    for p in (a, b):
        for i, c in enumerate(p[1]):
            out[p[0] - low + i] += c
    return lp(low, out)


def lmul(a, b):
    if not a[1] or not b[1]:
        return ZERO
    out = [Fraction(0)] * (len(a[1]) + len(b[1]) - 1)
    for i, x in enumerate(a[1]):
        for j, y in enumerate(b[1]):
            out[i + j] += x * y
    return lp(a[0] + b[0], out)


def lscale(a, c, shift=0):
    return lp(a[0] + shift, [x * c for x in a[1]])


def lprod(polys):
    out = ONE
    for p in polys:
        out = lmul(out, p)
    return out


def linear(r):
    """t - r."""
    return lp(0, (-Fraction(r), 1))


def canon(a):
    """Associate with lowest exponent 0 and leading coefficient 1."""
    lead = a[1][-1]
    return (0, tuple(c / lead for c in a[1]))


def reverse(a):
    """a(1/t), canonicalized."""
    return canon(lp(0, a[1][::-1]))


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def ljson(a):
    return {"lowest": a[0], "coeffs": [fmt(c) for c in a[1]]}


def primitive_ends(a):
    """End coefficients of the primitive integer associate of a."""
    den = math.lcm(*(c.denominator for c in a[1]))
    ints = [int(c * den) for c in a[1]]
    g = math.gcd(*ints)
    return abs(ints[0]) // g, abs(ints[-1]) // g


# -- expected answers ---------------------------------------------------------


@dataclass(frozen=True)
class Root:
    """One distinct root of the degree-k characteristic polynomial."""

    k: int
    mult: int
    value: object  # Fraction when rational, else a complex approximation
    modsq: Fraction | None  # exact modulus square, None when only numeric


@dataclass(frozen=True)
class Wall:
    delta: float
    delta_exact: str | None
    jump: int
    contributions: tuple  # sorted (k, mult, value)


@dataclass
class Answer:
    """What endex must report for one document."""

    n: int
    chi: int | None
    polys: list  # canonical A_0..A_n
    roots: list  # Root for every distinct root of A_0..A_(n-1)
    factors: list | None = None  # invariant factors per degree (complex inputs)
    ranks: list | None = None  # chain ranks (complex inputs)
    cup: dict | None = None  # cup-check report (simplicial inputs)

    def walls(self):
        return group_walls(self.roots)

    def values(self):
        """Index on each interval, by the closed root count."""
        if self.chi is None:
            return None
        end = (-1) ** self.n * self.chi
        ws = self.walls()
        out = []
        for i in range(len(ws) + 1):
            acc = end
            for w in ws[i:]:
                acc += sum((-1) ** k * m for k, m, _ in w.contributions)
            out.append(acc)
        return out

    def index_at(self, delta: float) -> int:
        ws = self.walls()
        return self.values()[sum(1 for w in ws if w.delta < delta)]


def _exact_sqrt(x: Fraction):
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None


def group_walls(roots):
    """Walls from roots: exact modulus squares group by equality, numeric
    moduli within a relative 1e-12 (in the numeric documents only conjugate
    roots share a modulus)."""
    exact = {}
    numeric = []
    for r in roots:
        if r.modsq is not None:
            exact.setdefault(r.modsq, []).append(r)
        else:
            numeric.append(r)
    groups = [(0.5 * math.log(ms), ms, members) for ms, members in exact.items()]
    run = []
    for r in sorted(numeric, key=lambda r: abs(r.value)) + [None]:
        if run and (r is None or abs(r.value) > abs(run[0].value) * (1 + 1e-12)):
            groups.append((sum(math.log(abs(x.value)) for x in run) / len(run), None, run))
            run = []
        if r is not None:
            run.append(r)
    walls = []
    for delta, ms, members in sorted(groups, key=lambda g: g[0]):
        root = _exact_sqrt(ms) if ms is not None else None
        contribs = tuple(sorted(
            ((r.k, r.mult, r.value) for r in members),
            key=lambda c: (c[0], complex(c[2]).real, complex(c[2]).imag),
        ))
        walls.append(Wall(
            delta=math.log(float(root)) if root is not None else delta,
            delta_exact=f"ln({fmt(root)})" if root is not None else None,
            jump=sum((-1) ** (k + 1) * m for k, m, _ in contribs),
            contributions=contribs,
        ))
    return walls


def quadratic_roots(b: Fraction, c: Fraction):
    """Conjugate roots of t^2 + b t + c (negative discriminant)."""
    im = math.sqrt(float(4 * c - b * b)) / 2
    re = -float(b) / 2
    return complex(re, im), complex(re, -im)


def numeric_roots(a, iters: int = 2000):
    """All complex roots of a square-free polynomial, by Durand-Kerner.

    A different iteration from endex's Aberth method, with its own start,
    so that agreement means something."""
    coeffs = [complex(c) for c in canon(a)[1]]
    d = len(coeffs) - 1
    zs = [(0.4 + 0.9j) ** i for i in range(d)]
    for _ in range(iters):
        worst = 0.0
        for i in range(d):
            num = 0j
            for c in reversed(coeffs):
                num = num * zs[i] + c
            den = 1
            for j in range(d):
                if j != i:
                    den *= zs[i] - zs[j]
            step = num / den
            zs[i] -= step
            worst = max(worst, abs(step) / max(abs(zs[i]), 1e-300))
        if worst < 1e-15:
            break
    return zs


# -- simplicial documents -----------------------------------------------------


def _closure(maximal):
    out = set()
    for s in maximal:
        for r in range(2, len(s) + 1):
            out.update(itertools.combinations(s, r))
    return out


def simplicial_doc(n_vertices, maximal, cocycle, dim):
    """A simplicial input document; cocycle maps an ordered vertex pair
    (u < v) to its integer value."""
    faces = _closure(tuple(sorted(s)) for s in maximal)
    by_dim = {}
    for s in faces:
        by_dim.setdefault(len(s) - 1, []).append(list(s))
    edges = sorted(tuple(e) for e in by_dim.get(1, ()))
    return {
        "vertices": n_vertices,
        "simplices": {str(d): sorted(v) for d, v in sorted(by_dim.items())},
        "cocycle": {f"{u},{v}": cocycle(u, v) for u, v in edges},
        "manifold": {"dim": dim, "chi": 0},
    }


def circle_product_answer(betti_k):
    """Expected report for S^1 x K, the cover unwinding the circle.

    The cover is R x K, so H_k = (Lambda/(t-1))^b_k(K) and every root is 1;
    the cup sequence is exact with ranks b_k(K) (Kunneth)."""
    n = len(betti_k)
    bk = list(betti_k) + [0]
    t_minus_1 = linear(1)
    polys = [canon(lprod([t_minus_1] * b)) for b in bk]
    roots = [Root(k, b, Fraction(1), Fraction(1)) for k, b in enumerate(bk[:n]) if b]
    cup = {
        "exact": True,
        "cohomology_dims": [bk[k] + (bk[k - 1] if k else 0) for k in range(n + 1)],
        "induced_ranks": bk[: n + 1],
        "defects": [0] * (n + 1),
    }
    factors = [[t_minus_1] * b for b in bk]
    return Answer(n=n, chi=0, polys=polys, roots=roots, factors=factors, cup=cup)


def grid_torus(k1: int, k2: int, axis: int, sign: int):
    """k1 x k2 grid torus, each square cut along its diagonal, with the
    cocycle +-1 on the edges crossing the seam of one axis."""
    def vid(i, j):
        return (i % k1) * k2 + (j % k2)

    tris = []
    for i in range(k1):
        for j in range(k2):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, d, c)]
    size = (k1, k2)[axis]

    def coord(v):
        return (v // k2, v % k2)[axis]

    def cocycle(u, v):
        cu, cv = coord(u), coord(v)
        step = next(s for s in (-1, 0, 1) if (cu + s - cv) % size == 0)
        return sign * (cu + step - cv) // size

    doc = simplicial_doc(k1 * k2, tris, cocycle, 2)
    ans = circle_product_answer([1, 1])
    ans.ranks = [k1 * k2, 3 * k1 * k2, 2 * k1 * k2]
    return doc, ans


CIRCLE = ((0, 1), (1, 2), (0, 2))


def circle_product(k_maximal, k_vertices: int, betti_k, edge: int, sign: int):
    """Staircase triangulation of S^1 x K (S^1 a 3-cycle), with the cocycle
    +-1 on one circle edge pulled back to the product."""
    cut = CIRCLE[edge]
    prisms = []
    for a in CIRCLE:
        for b in k_maximal:
            p, q = len(a) - 1, len(b) - 1
            for ups in itertools.combinations(range(p + q), p):
                i = j = 0
                path = [a[0] * k_vertices + b[0]]
                for s in range(p + q):
                    if s in ups:
                        i += 1
                    else:
                        j += 1
                    path.append(a[i] * k_vertices + b[j])
                prisms.append(tuple(path))

    def cocycle(u, v):
        return sign if (u // k_vertices, v // k_vertices) == cut else 0

    doc = simplicial_doc(3 * k_vertices, prisms, cocycle, len(betti_k))
    ans = circle_product_answer(betti_k)
    ans.ranks = [len(doc["simplices"].get(str(d), ())) if d else 3 * k_vertices
                 for d in range(len(betti_k) + 1)]
    return doc, ans


# -- planted characteristic polynomials --------------------------------------

MODULUS_POOL = sorted({Fraction(p, q) for p in range(1, 8) for q in range(1, 8)})
QUADRATIC_POOL = [  # (b, c) of t^2 + b t + c, all with b^2 < 4c
    (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)),
    (Fraction(0), Fraction(2)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(2)),
    (Fraction(0), Fraction(3)), (Fraction(1), Fraction(3)), (Fraction(-2), Fraction(5)),
]
END_CAP = 10**12  # endex's limit on end coefficients for exact root extraction


def _quad(b, c):
    return lp(0, (c, b, 1))


def planted_poly(shape: random.Random, signs: random.Random, degree: int, quadratic: bool):
    """A canonical polynomial of the given degree from planted rational roots
    (multiplicities up to 3, some as +-r pairs) and at most one irreducible
    quadratic, with every square-free factor inside the end-coefficient cap.

    `shape` picks the root moduli and multiplicities, `signs` only their
    signs, so every `signs` gives root finding the same amount of work.
    Returns (poly, roots) with roots a list of (value, mult, modsq)."""
    while True:
        parts = []  # (r, mult) for a root, ((b, c), mult) for a quadratic
        left = degree
        if quadratic and degree >= 2:
            parts.append((shape.choice(QUADRATIC_POOL), shape.choice((1, 1, 2)) if degree >= 6 else 1))
            left -= 2 * parts[-1][1]
        used = set()
        while left > 0:
            r = shape.choice(MODULUS_POOL)
            if r in used:
                continue
            used.add(r)
            m = min(left, shape.choice((1, 1, 1, 2, 3)))
            pair = 2 * m <= left and shape.random() < 0.25
            parts += [(r, m), (-r, m)] if pair else [(r, m)]
            left -= 2 * m if pair else m
        by_mult = {}
        for what, m in parts:
            f = _quad(*what) if isinstance(what, tuple) else linear(what)
            by_mult[m] = lmul(by_mult.get(m, ONE), f)
        if all(max(primitive_ends(f)) <= END_CAP for f in by_mult.values()):
            break
    flip = {abs(what): signs.choice((1, -1)) for what, _ in parts if not isinstance(what, tuple)}
    signed = []
    for what, m in parts:
        if isinstance(what, tuple):
            signed.append(((what[0] * signs.choice((1, -1)), what[1]), m))
        else:
            signed.append((what * flip[abs(what)], m))
    poly = canon(lprod(lprod([_quad(*w) if isinstance(w, tuple) else linear(w)] * m) for w, m in signed))
    roots = []
    for what, m in signed:
        if isinstance(what, tuple):
            b, c = what
            roots += [(z, m, c) for z in quadratic_roots(b, c)]
        else:
            roots.append((what, m, what * what))
    return poly, roots


def alexander_doc(shape: random.Random, signs: random.Random, n: int, degrees, quadratic,
                  symmetric: bool, chi: int):
    """Planted characteristic data for degrees 0..n-1.

    With symmetric set, A_(n-1-k) is the reversal of A_k (the root-reversal
    duality of a closed manifold), so duality reports ok pairs."""
    polys = [None] * n
    rootsets = [None] * n
    for k in range(n):
        if symmetric and polys[n - 1 - k] is not None:
            polys[k] = reverse(polys[n - 1 - k])
            rootsets[k] = [(1 / v, m, 1 / ms) for v, m, ms in rootsets[n - 1 - k]]
        else:
            polys[k], rootsets[k] = planted_poly(shape, signs, degrees[k], quadratic[k])
    roots = [Root(k, m, v, ms) for k in range(n) for v, m, ms in rootsets[k]]
    doc = {"alexander": [ljson(p) for p in polys], "manifold": {"dim": n, "chi": chi}}
    return doc, Answer(n=n, chi=chi, polys=polys + [ONE], roots=roots)


def numeric_alexander_doc(coeffs, chi: int):
    """One characteristic polynomial with no rational roots; the expected
    walls come from numerically located roots."""
    p = canon(lp(0, coeffs))
    roots = [Root(0, 1, z, None) for z in numeric_roots(p)]
    doc = {"alexander": [ljson(lp(0, coeffs))], "manifold": {"dim": 1, "chi": chi}}
    return doc, Answer(n=1, chi=chi, polys=[p, ONE], roots=roots)


# -- planted direct-matrix complexes ------------------------------------------


def _unimodular(rng: random.Random, size: int, ops: int):
    """A random unimodular Laurent matrix and its inverse, as a product of
    elementary operations."""
    eye = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    m = [row[:] for row in eye]
    inv = [row[:] for row in eye]
    for _ in range(ops if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        kind = rng.choice(("add", "add", "swap", "unit"))
        if kind == "add":
            q = lp(rng.randint(-1, 1), (rng.choice((1, -1, 2, -2)),))
            m[i] = [ladd(x, lmul(q, y)) for x, y in zip(m[i], m[j])]
            for row in inv:
                row[j] = ladd(row[j], lscale(lmul(q, row[i]), -1))
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            c, s = Fraction(rng.choice((1, -1, 2, -2))), rng.randint(-1, 1)
            m[i] = [lscale(x, c, s) for x in m[i]]
            for row in inv:
                row[i] = lscale(row[i], 1 / c, -s)
    return m, inv


def _matmul(a, b):
    if not a or not b:
        return [[ZERO] * (len(b[0]) if b else 0) for _ in a]
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ZERO
            for x, brow in zip(row, b):
                if x[1] and brow[j][1]:
                    acc = ladd(acc, lmul(x, brow[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


PLANTED_MODULI = [Fraction(r) for r in (1, 2, "1/2", 3, "2/3", "3/2")]


def planted_complex(shape: random.Random, signs: random.Random, n: int, chains, ops: int, chi: int):
    """A disguised direct sum of elementary complexes Lambda -q-> Lambda.

    chains[k] lists how many roots each invariant factor of H_k adds to the
    previous one (a divisibility chain); the complex is conjugated by random
    unimodular transforms so its boundaries are dense.  `shape` picks the
    root moduli and the transforms, `signs` only the roots' signs."""
    torsion, roots = [], []
    for k in range(n + 1):
        chain, planted, mults = [], [], Counter()
        for extra in (chains[k] if k < n else ()):
            planted += [shape.choice(PLANTED_MODULI) * signs.choice((1, -1)) for _ in range(extra)]
            chain.append(canon(lprod(linear(r) for r in planted)))
            mults.update(planted)
        torsion.append(chain)
        roots += [Root(k, m, r, r * r) for r, m in mults.items()]
    ranks = [len(torsion[k]) + (len(torsion[k - 1]) if k else 0) for k in range(n + 1)]
    transforms = [_unimodular(shape, r, ops) for r in ranks]
    boundaries = []
    for k in range(1, n + 1):
        rows, cols = ranks[k - 1], ranks[k]
        grid = [[ZERO] * cols for _ in range(rows)]
        for i, q in enumerate(torsion[k - 1]):
            grid[i][len(torsion[k]) + i] = q
        disguised = _matmul(_matmul(transforms[k - 1][0], grid), transforms[k][1])
        boundaries.append({
            "rows": rows, "cols": cols,
            "entries": [[ljson(e) for e in row] for row in disguised],
        })
    polys = [canon(lprod(chain)) for chain in torsion]
    doc = {"n": n, "ranks": ranks, "boundaries": boundaries, "manifold": {"dim": n, "chi": chi}}
    return doc, Answer(n=n, chi=chi, polys=polys, roots=roots, factors=torsion, ranks=ranks)


def fox_answer():
    """tests/data/fox.json: A = (t-1, t-2, t-1/2, t-1), n = 4, chi = 2."""
    rs = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1)]
    roots = [Root(k, 1, r, r * r) for k, r in enumerate(rs)]
    return Answer(n=4, chi=2, polys=[linear(r) for r in rs] + [ONE], roots=roots)


def s1s2_answer():
    """tests/data/s1s2.json: the cellular S^1 x S^2 complex, ranks 1,1,1,1,
    whose manifold block states chi = 1."""
    ans = circle_product_answer([1, 0, 1])
    ans.chi, ans.ranks, ans.cup = 1, [1, 1, 1, 1], None
    return ans
