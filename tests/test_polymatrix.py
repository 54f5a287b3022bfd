import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from endex import (FloatRangeError, GaussianRational, LaurentMatrix, LaurentPoly, SnfResult, lift_simplicial,
                   smith_normal_form)
from endex.laurent import QuotientRing, minimal_polynomial, poly
from endex.linalg import NUMERIC_RANK_RTOL, numeric_rank
from endex.polymatrix import _certify

from conftest import (_det_bareiss, _det_laplace, _random_unimodular, determinant, flat, gaussian_evaluate,
                      grid_torus, mat, planted_complex, planted_roots, random_laurent, random_matrix, rank_ff, shift,
                      to_lists)


def test_snf_unit_entry_absorbed():
    s = smith_normal_form(mat([["t", "0"], ["0", "t - 1"]]))
    assert s.diag == (poly("1"), poly("t - 1"))
    assert s.rank == 2


def test_snf_one_by_one():
    s = smith_normal_form(mat([["t - 1"]]))
    assert s.diag == (poly("t - 1"),) and s.rank == 1


def test_snf_zero_matrix():
    s = smith_normal_form(LaurentMatrix.zero(2, 3))
    assert s.diag == () and s.rank == 0


def test_snf_empty_shapes():
    for r, c in ((0, 0), (0, 3), (3, 0)):
        s = smith_normal_form(LaurentMatrix.zero(r, c))
        assert s.rank == 0 and s.diag == ()
        assert s.left == s.left_inv == LaurentMatrix.identity(r)
        assert s.right == s.right_inv == LaurentMatrix.identity(c)


# Each matrix drives one branch of the pivot loop; the certificate is
# checked on every call.
@pytest.mark.parametrize("rows, diag", [
    # Clearing column 0 leaves the remainder 2 below the pivot t - 1.
    ([["t - 1", "0"], ["t^2 + 1", "t^2 + 1"]], ["1", "t^3 - t^2 + t - 1"]),
    # Clearing row 0 leaves the remainder 2 right of the pivot t - 1.
    ([["t - 1", "t^2 + 1"], ["0", "t^2 + 1"]], ["1", "t^3 - t^2 + t - 1"]),
    # t - 1 does not divide t + 1: row 1 is added to row 0.
    ([["t - 1", "0"], ["0", "t + 1"]], ["1", "t^2 - 1"]),
    # Row 1 is t times row 0.
    ([["t - 1", "t^2 - 1", "0"], ["t^2 - t", "t^3 - t", "0"], ["0", "0", "2*t + 2"]], ["1", "t^2 - 1"]),
    ([["t^-1", "t^2 - 1"]], ["1"]),
    ([["t - 1"], ["t^2 - 1"]], ["t - 1"]),
], ids=["column-remainder", "row-remainder", "divisibility", "rank-deficient", "1x2", "2x1"])
def test_snf_pivot_loop_branches(rows, diag):
    s = smith_normal_form(mat(rows))
    assert s.diag == tuple(poly(d) for d in diag) and s.rank == len(diag)


def test_rank_ff_examples():
    assert rank_ff(mat([["t - 1", "t - 1"], ["0", "0"]])) == 1
    assert rank_ff(LaurentMatrix.identity(5)) == 5
    assert rank_ff(mat([["t", "1"], ["t^2", "t"]])) == 1


def _t_power_scaled(rng, m: LaurentMatrix) -> LaurentMatrix:
    """m with row i times t^a_i and column j times t^b_j, for random a, b."""
    a = [rng.randint(-3, 3) for _ in range(m.rows)]
    b = [rng.randint(-3, 3) for _ in range(m.cols)]
    return LaurentMatrix(m.rows, m.cols, {(i, j): shift(e, a[i] + b[j]) for (i, j), e in m.nonzeros.items()})


def test_snf_property_suite_with_reconstruction():
    rng, powers = random.Random(1234), random.Random(4321)
    for _ in range(50):
        base = random_matrix(rng, max_size=5, max_span=3)
        # Unit t-powers on rows and columns change no invariant factor.
        diags = []
        for m in (base, _t_power_scaled(powers, base)):
            s = smith_normal_form(m)
            d = s.diagonal_matrix(m.rows, m.cols)
            # Reconstruction is recomputed here rather than trusting the
            # library certificate.
            assert s.left * m * s.right == d
            for i in range(len(s.diag) - 1):
                assert s.diag[i].divides(s.diag[i + 1])
            if m.rows:
                assert determinant(s.left).is_unit()
            if m.cols:
                assert determinant(s.right).is_unit()
            assert rank_ff(m) == s.rank
            diags.append(s.diag)
        assert diags[0] == diags[1]


def _nonvanishing(diag, z) -> int:
    """How many diagonal entries are nonzero at the exact point z."""
    if isinstance(z, GaussianRational):
        return sum(1 for d in diag if gaussian_evaluate(d, z) != GaussianRational(0, 0))
    return sum(1 for d in diag if d.evaluate(z) != 0)


# Factors with roots in Q(i): 2, -1, i and -i, 1 + i and 1 - i, 2i and -2i.
_PLANTED_FACTORS = ["t - 2", "t + 1", "t^2 + 1", "t^2 - 2*t + 2", "t^2 + 4"]
_PLANTED_POINTS = [Fraction(2), Fraction(-1), GaussianRational(0, 1), GaussianRational(0, -1),
                   GaussianRational(1, 1), GaussianRational(0, 2), GaussianRational(2, 1)]


def _planted_snf_matrix(rng):
    """U * D * V for a divisibility chain D of planted factors, padded with
    zero rows and columns, and random unimodular U, V."""
    rank = rng.randint(1, 3)
    rows, cols = rank + rng.randint(0, 1), rank + rng.randint(0, 1)
    chain, q = [], LaurentPoly.one()
    for _ in range(rank):
        q = q * poly(rng.choice(_PLANTED_FACTORS)) if rng.random() < 0.7 else q
        chain.append(q)
    d = [[chain[i] if i == j and i < rank else LaurentPoly.zero() for j in range(cols)] for i in range(rows)]
    u, _ = _random_unimodular(rng, rows)
    v, _ = _random_unimodular(rng, cols)
    return u * LaurentMatrix.from_rows(d) * v, chain


def test_snf_rank_matches_evaluation_rank():
    """At an exact z, M(z) has rank equal to the number of SNF diagonal
    entries that do not vanish at z, over Q and over Q(i), rank drops
    included."""
    rng = random.Random(77)
    for _ in range(25):
        m = random_matrix(rng, max_size=4, max_span=2)
        s = smith_normal_form(m)
        z = Fraction(rng.randint(2, 9), rng.randint(1, 7) * 2 + 1)
        zg = GaussianRational(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(1, 4), 5))
        for point in (z, zg):
            assert m.rank_at(point) == _nonvanishing(s.diag, point)
        zf = complex(float(z), 0.137)
        if all(abs(d.evaluate(zf)) > 1e-6 for d in s.diag):
            assert m.rank_at(zf) == s.rank
    # Far exponents and wide gaps: dense runs with lows up to 40 away, and
    # binomials t^a - c t^b with |a - b| up to 60, some vanishing at the
    # roots of unity and at 1 + i ((1 + i)^4 = -4).
    drops = 0
    for _ in range(12):
        r, c = rng.randint(1, 2), rng.randint(1, 3)
        entries = []
        for _ in range(r * c):
            if rng.random() < 0.5:
                entries.append(random_laurent(rng, max_span=6, low_range=(-40, 40)))
            else:
                a, gap = rng.randint(-30, 30), rng.choice([1, 2, 4]) * rng.randint(1, 15)
                entries.append(LaurentPoly(a, (-rng.choice([1, -1, 2, -4]),) + (0,) * (gap - 1) + (1,)))
        m = flat(r, c, entries)
        s = smith_normal_form(m)
        z = Fraction(rng.randint(2, 9), rng.randint(1, 7) * 2 + 1)
        zg = GaussianRational(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(1, 4), 5))
        for point in (z, zg, Fraction(1), Fraction(-1), GaussianRational(0, 1), GaussianRational(1, 1)):
            rank = m.rank_at(point)
            assert rank == _nonvanishing(s.diag, point)
            drops += rank < s.rank
    assert drops > 0
    drops = 0
    for _ in range(30):
        m, chain = _planted_snf_matrix(rng)
        s = smith_normal_form(m)
        for z in _PLANTED_POINTS:
            rank = m.rank_at(z)
            assert rank == _nonvanishing(s.diag, z) == _nonvanishing(chain, z)
            drops += rank < s.rank
    assert drops > 0


def test_a_gaussian_point_on_the_real_axis_ranks_like_the_rational():
    # a + 0i has minimal polynomial t - a.  Over Λ/((t - 2)^2) each entry
    # below, divisible by t - 2 once, would keep rank 1 of its 2 x 2 block,
    # and the rank at 2 + 0i would read 2 // 2 = 1, not 0.
    assert minimal_polynomial(GaussianRational(2, 0)) == poly("t - 2")
    m = mat([["t - 2", "0"], ["0", "t^2 - 4"]])
    assert m.rank_at(GaussianRational(2, 0)) == m.rank_at(Fraction(2)) == 0
    rng = random.Random(2)
    for _ in range(20):
        m, _ = _planted_snf_matrix(rng)
        for a in (Fraction(2), Fraction(-1), Fraction(1, 2)):
            assert m.rank_at(GaussianRational(a, 0)) == m.rank_at(a)


def test_determinant_laplace_vs_bareiss():
    rng = random.Random(3)
    for n in (2, 3, 4, 6, 7):
        m = flat(n, n, [LaurentPoly(0, [Fraction(rng.randint(-2, 2)) for _ in range(2)]) for _ in range(n * n)])
        rows = to_lists(m)
        assert _det_bareiss(rows) == (
            _det_laplace(rows, list(range(n))) if n <= 5 else _det_bareiss(rows)
        )
        if n <= 5:
            # Cross-check the two determinant routes against each other.
            assert _det_laplace(rows, list(range(n))) == _det_bareiss(rows)


def test_unimodular_transform_inverses():
    rng = random.Random(9)
    for _ in range(10):
        m = random_matrix(rng, max_size=4, max_span=2)
        s = smith_normal_form(m)
        if m.rows:
            assert s.left * s.left_inv == LaurentMatrix.identity(m.rows)
        if m.cols:
            assert s.right * s.right_inv == LaurentMatrix.identity(m.cols)


def test_certify_rejects_non_unimodular_transform():
    # left*M*right = D holds, but left = [[t - 1]] has no inverse over the
    # Laurent ring; only the T*T^-1 = I check can catch it.
    m = mat([["1"]])
    res = SnfResult(left=mat([["t - 1"]]), diag=[poly("t - 1")], right=mat([["1"]]), rank=1,
                    left_inv=mat([["1"]]), right_inv=mat([["1"]]))
    assert res.left * m * res.right == res.diagonal_matrix(1, 1)
    with pytest.raises(RuntimeError, match="inverse"):
        _certify(m, res)


def _naive_product(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = LaurentPoly.zero()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            out.append(acc)
    return flat(a.rows, b.cols, out)


def test_matrix_product_matches_naive_triple_loop():
    rng = random.Random(4242)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (0, 0, 0)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    for r, n, c in shapes:
        a = flat(r, n, [random_laurent(rng, 2) for _ in range(r * n)])
        b = flat(n, c, [random_laurent(rng, 2) for _ in range(n * c)])
        assert a * b == _naive_product(a, b)
        if r and n and c:
            # Zero out a row of a and a column of b.
            zi, zj = rng.randrange(r), rng.randrange(c)
            a = LaurentMatrix(r, n, {(i, k): e for (i, k), e in a.nonzeros.items() if i != zi})
            b = LaurentMatrix(n, c, {(k, j): e for (k, j), e in b.nonzeros.items() if j != zj})
            p = a * b
            assert p == _naive_product(a, b)
            assert all(p[zi, j].is_zero() for j in range(c))
            assert all(p[i, zj].is_zero() for i in range(r))


def _rank(grid, z=0.5):
    """numeric_rank of a matrix given as a sequence of rows."""
    return numeric_rank({(i, j): x for i, row in enumerate(grid) for j, x in enumerate(row)}, z)


def test_numeric_rank_tolerance():
    assert _rank(np.diag([1.0, 1e-5, 1e-12])) == 2
    assert _rank(np.zeros((3, 3))) == 0
    assert _rank([[0j] * 3] * 2) == 0
    assert _rank(np.zeros((0, 4))) == 0
    assert _rank([[]] * 4) == 0
    assert numeric_rank({}, 0.5) == 0


def test_numeric_rank_refuses_non_finite_entries():
    for bad in (math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(FloatRangeError, match=r"evaluated at z = \(2\+1j\)"):
            _rank(np.array([[1.0, bad], [0.0, 1.0]]), 2 + 1j)
        with pytest.raises(FloatRangeError):
            _rank([[0j, 1e300], [bad, 0j]], 2 + 1j)


def test_numeric_rank_is_scale_free_near_the_float_range_ends():
    # Scaling by a power of two is exact, so a matrix near 1e300 or 1e-300
    # has the rank of its unscaled form, even where |entry| itself or a
    # product of two entries would overflow or underflow.
    rng = random.Random(27)
    for rank in range(4):
        u = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rank)] for _ in range(4)]
        v = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)] for _ in range(rank)]
        a = [[sum(u[i][k] * v[k][j] for k in range(rank)) for j in range(5)] for i in range(4)]
        assert _rank(a) == rank
        for c in (1e307, 1e300, 1e-300, 1e-307):
            scaled = [[x * c for x in row] for row in a]
            assert _rank(scaled) == rank
            assert _rank(list(zip(*scaled))) == rank
    assert _rank([[complex(1.5e308, 1.5e308), 0j], [0j, 1e300]]) == 2
    assert _rank([[1e-300, 2e-300], [2e-300, 4e-300]]) == 1
    assert _rank([[1e300, 0.0], [0.0, 1e292]]) == 2
    assert _rank([[1e300, 0.0], [0.0, 1e-300]]) == 1


def _svd_count(a):
    """numpy's SVD count at the same cutoff, and how many decades the
    nonzero singular value nearest the cutoff lies from it."""
    s = np.linalg.svd(np.array(a, dtype=complex), compute_uv=False) if a and a[0] else np.zeros(0)
    if not s.size or s[0] == 0.0:
        return 0, math.inf
    cutoff = NUMERIC_RANK_RTOL * s[0]
    return int(np.sum(s > cutoff)), min(abs(math.log10(x / cutoff)) for x in s if x > 0.0)


def test_numeric_rank_matches_the_svd_count_away_from_the_cutoff():
    # Complete pivoting compares pivots with the largest entry, the SVD
    # compares singular values with the largest one: both counts must agree
    # unless a singular value lies within a decade of the cutoff.  The
    # corpus: disguised planted complexes at seeded float points, off their
    # roots and at 1e-3 to 1e-12 from them, and the 3x3 grid torus at the
    # 16 Fredholm samples of delta = 0.5.  rank_at hands numeric_rank the
    # values of the nonzero entries; the SVD gets the whole evaluated grid.
    rng = random.Random(2027)
    cases = []
    for _ in range(40):
        cc, expected = planted_complex(rng)
        points = [cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(0.0, 2 * math.pi)) for _ in range(2)]
        points += [float(r) + 10.0 ** -e * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                   for r in sorted(planted_roots(expected)) for e in range(3, 13)]
        cases += [(cc.boundary(k), z) for z in points for k in range(1, cc.n + 1)]
    torus = lift_simplicial(grid_torus(3))
    for j in range(16):
        z = math.exp(0.5) * cmath.exp(2j * math.pi * j / 16)
        cases += [(torus.boundary(k), z) for k in range(1, torus.n + 1)]
    checked = near = 0
    for m, z in cases:
        count, decades = _svd_count([[e.evaluate(z) for e in m.row(i)] for i in range(m.rows)])
        if decades > 1.0:
            checked += 1
            assert m.rank_at(z) == count, (m, z, decades)
        else:
            near += 1
    assert checked > 1000 and near > 10
    assert sum((m.rows, m.cols) == (9, 27) for m, _ in cases) == 16


def test_residue_agrees_with_division():
    # p mod g from p's terms alone, the test uct_dims applies, at the
    # minimal polynomials of rational and Gaussian points and at their
    # squares, with exponents far from 0: it has degree below g's, p minus
    # it is a multiple of g, and it is zero exactly when g divides p.  Half
    # of the draws are planted multiples.
    rng = random.Random(23)
    vanishing = 0
    for _ in range(300):
        p = random_laurent(rng, max_span=6, low_range=(-40, 40))
        re = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5))
        g = minimal_polynomial(re if rng.random() < 0.5 else GaussianRational(re, Fraction(rng.randint(1, 6), 3)))
        if rng.random() < 0.25:
            g = g * g
        if rng.random() < 0.5:
            p = p * g
        r = QuotientRing(g).residue(p)
        assert len(r) == g.span and g.divides(p - LaurentPoly(0, r)), (p, g)
        assert (not any(r)) == g.divides(p), (p, g)
        vanishing += not any(r)
    assert vanishing > 100
    with pytest.raises(ValueError, match="canonical of positive degree"):
        QuotientRing(poly("t"))


def test_matrix_serialization_roundtrip():
    m = mat([["t^-1 - 1", "1/2"], ["0", "t^3"]])
    assert LaurentMatrix.from_json(m.to_json()) == m
    j = m.to_json()
    assert j["rows"] == 2 and j["cols"] == 2
    assert j["entries"][0][1] == {"lowest": 0, "coeffs": ["1/2"]}


def test_matrix_shape_validation():
    for key in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside a 2x2 matrix"):
            LaurentMatrix(2, 2, {key: poly("1")})
    with pytest.raises(ValueError):
        mat([["1", "0"], ["1"]])
    with pytest.raises(ValueError, match=r"^shape mismatch: 2x2 times 3x1$"):
        LaurentMatrix.identity(2) * LaurentMatrix.zero(3, 1)


def test_matrix_holds_only_its_nonzero_entries():
    # Values are read through poly and zeros are dropped; the map is
    # read-only, and every entry is still there to read.
    m = LaurentMatrix(2, 3, {(0, 1): "t - 1", (1, 2): poly("0"), (1, 0): 2})
    dense = mat([["0", "t - 1", "0"], ["2", "0", "0"]])
    assert dict(m.nonzeros) == {(0, 1): poly("t - 1"), (1, 0): poly("2")}
    assert m == dense and hash(m) == hash(dense)
    assert m.entries == tuple(m[i, j] for i in range(2) for j in range(3))
    assert m.row(1) == [poly("2"), poly("0"), poly("0")]
    with pytest.raises(TypeError):
        m.nonzeros[0, 0] = poly("1")


def test_unit_pivots_skip_the_divisibility_scan(monkeypatch):
    # Every pivot of a lifted simplicial boundary is a unit, which divides
    # every entry, so the only remainders taken are the certificate's
    # divisibility chain: rank - 1 of them.
    calls = [0]
    mod = LaurentPoly.__mod__

    def counting(self, other):
        calls[0] += 1
        return mod(self, other)

    monkeypatch.setattr(LaurentPoly, "__mod__", counting)
    cc = lift_simplicial(grid_torus(3))
    for k in (1, 2):
        calls[0] = 0
        s = smith_normal_form(cc.boundary(k))
        assert s.rank > 1
        assert calls[0] <= s.rank - 1
