"""The sparse exact eliminator against the dense reference in conftest."""

import random
from fractions import Fraction

from endex import GaussianRational
from endex.linalg import eliminate, exact_kernel, exact_rank

from conftest import dense_rank, gaussian_evaluate, random_matrix


def _random_rows(rng: random.Random):
    """A dense rational matrix with zero rows and columns, some drawn as a
    product of two thin factors so that the rank falls short."""
    nr, nc = rng.randint(0, 7), rng.randint(0, 7)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)

    if rng.random() < 0.4 and nr and nc:
        inner = rng.randint(0, min(nr, nc) - 1)
        left = [[entry() for _ in range(inner)] for _ in range(nr)]
        right = [[entry() for _ in range(nc)] for _ in range(inner)]
        rows = [[sum((a * right[k][j] for k, a in enumerate(r)), Fraction(0)) for j in range(nc)] for r in left]
    else:
        rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    for i in range(nr):
        if rng.random() < 0.15:
            rows[i] = [Fraction(0)] * nc
    for j in range(nc):
        if rng.random() < 0.15:
            for r in rows:
                r[j] = Fraction(0)
    return rows, nc


def _columns(rows, ncols):
    """The sparse columns of dense rows: only nonzero entries are kept."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]


def test_sparse_rank_and_kernel_match_the_dense_reference():
    rng = random.Random(1401)
    deficient = 0
    for _ in range(300):
        rows, nc = _random_rows(rng)
        columns = _columns(rows, nc)
        before = [dict(c) for c in columns]
        rank = exact_rank(columns)
        assert rank == dense_rank(rows, nc)
        kernel = exact_kernel(columns)
        assert columns == before  # the eliminator copies what it reduces
        assert len(kernel) == nc - rank
        for v in kernel:
            assert len(v) == nc
            assert all(sum((x * y for x, y in zip(r, v)), Fraction(0)) == 0 for r in rows)
        assert dense_rank(kernel, nc) == len(kernel)
        deficient += rank < min(len(rows), nc)
    assert deficient > 50


def test_pivots_come_in_column_order_at_the_smallest_row():
    # Column 1 reduces to zero against column 0; column 2 keeps row 2 only.
    columns = [{1: Fraction(1), 3: Fraction(2)}, {1: Fraction(3), 3: Fraction(6)},
               {1: Fraction(1), 2: Fraction(5), 3: Fraction(2)}]
    assert list(eliminate(columns)) == [1, 2]
    assert eliminate(columns)[2] == {2: Fraction(5)}


def test_gaussian_rank_matches_the_dense_realified_rank():
    # A + iB has rank r over Q(i) exactly when [[A, -B], [B, A]] has rank
    # 2r over Q: an independent route to the rank over Λ/(g) at a + bi.
    rng = random.Random(1402)
    for _ in range(40):
        m = random_matrix(rng, max_size=4, max_span=2)
        z = GaussianRational(Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 3), rng.randint(1, 2)))
        value = [[gaussian_evaluate(e, z) for e in m.row(i)] for i in range(m.rows)]
        realified = ([[v.re for v in r] + [-v.im for v in r] for r in value]
                     + [[v.im for v in r] + [v.re for v in r] for r in value])
        rank = dense_rank(realified, 2 * m.cols)
        assert rank % 2 == 0
        assert m.rank_at(z) == rank // 2
        assert exact_rank(_columns(realified, 2 * m.cols)) == rank
