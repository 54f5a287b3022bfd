import random
from fractions import Fraction

import numpy as np
import pytest

from endex import GaussianRational, LaurentMatrix, LaurentPoly, SnfResult, smith_normal_form
from endex.laurent import poly
from endex.linalg import mat_mul, numeric_rank
from endex.polymatrix import _certify

from conftest import _det_bareiss, _det_laplace, _random_unimodular, determinant, mat, random_laurent, random_matrix, rank_ff, shift, to_lists


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


def test_evaluate_examples():
    assert mat([["t - 1"]]).evaluate(Fraction(1))[0][0] == 0
    assert mat([["t - 2"]]).evaluate(Fraction(2))[0][0] == 0
    assert mat([["t^-1"]]).evaluate(Fraction(2))[0][0] == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        mat([["t"]]).evaluate(Fraction(0))


def _t_power_scaled(rng, m: LaurentMatrix) -> LaurentMatrix:
    """m with row i times t^a_i and column j times t^b_j, for random a, b."""
    a = [rng.randint(-3, 3) for _ in range(m.rows)]
    b = [rng.randint(-3, 3) for _ in range(m.cols)]
    return LaurentMatrix(m.rows, m.cols, [shift(m[i, j], a[i] + b[j]) for i in range(m.rows) for j in range(m.cols)])


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
    zero = GaussianRational(0, 0) if isinstance(z, GaussianRational) else 0
    return sum(1 for d in diag if d.evaluate(z) != zero)


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
    drops = 0
    for _ in range(30):
        m, chain = _planted_snf_matrix(rng)
        s = smith_normal_form(m)
        for z in _PLANTED_POINTS:
            rank = m.rank_at(z)
            assert rank == _nonvanishing(s.diag, z) == _nonvanishing(chain, z)
            drops += rank < s.rank
    assert drops > 0


def test_determinant_laplace_vs_bareiss():
    rng = random.Random(3)
    for n in (2, 3, 4, 6, 7):
        m = LaurentMatrix(
            n, n, [LaurentPoly(0, [Fraction(rng.randint(-2, 2)) for _ in range(2)]) for _ in range(n * n)]
        )
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
    return LaurentMatrix(a.rows, b.cols, out)


def _naive_fraction_product(a, b, cols):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(cols)] for row in a]


def test_matrix_product_matches_naive_triple_loop():
    rng = random.Random(4242)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (0, 0, 0)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)]
    for r, n, c in shapes:
        a = LaurentMatrix(r, n, [random_laurent(rng, 2) for _ in range(r * n)])
        b = LaurentMatrix(n, c, [random_laurent(rng, 2) for _ in range(n * c)])
        assert a * b == _naive_product(a, b)
        if r and n and c:
            # Zero out a row of a and a column of b.
            zi, zj = rng.randrange(r), rng.randrange(c)
            a = LaurentMatrix(r, n, [LaurentPoly.zero() if k // n == zi else e for k, e in enumerate(a.entries)])
            b = LaurentMatrix(n, c, [LaurentPoly.zero() if k % c == zj else e for k, e in enumerate(b.entries)])
            p = a * b
            assert p == _naive_product(a, b)
            assert all(p[zi, j].is_zero() for j in range(c))
            assert all(p[i, zj].is_zero() for i in range(r))
    # The same product over Q, as the cup check uses it.
    for r, n, c in shapes:
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * (rng.random() < 0.6) for _ in range(n)]
             for _ in range(r)]
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * (rng.random() < 0.6) for _ in range(c)]
             for _ in range(n)]
        p = mat_mul(a, b, c, Fraction(0))
        assert p == _naive_fraction_product(a, b, c)
        assert all(isinstance(x, Fraction) for row in p for x in row)


def test_numeric_rank_tolerance():
    a = np.diag([1.0, 1e-5, 1e-12])
    assert numeric_rank(a) == 2
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.zeros((0, 4))) == 0


def test_matrix_serialization_roundtrip():
    m = mat([["t^-1 - 1", "1/2"], ["0", "t^3"]])
    assert LaurentMatrix.from_json(m.to_json()) == m
    j = m.to_json()
    assert j["rows"] == 2 and j["cols"] == 2
    assert j["entries"][0][1] == {"lowest": 0, "coeffs": ["1/2"]}


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        LaurentMatrix(2, 2, [poly("1")] * 3)
    with pytest.raises(ValueError):
        mat([["1", "0"], ["1"]])
