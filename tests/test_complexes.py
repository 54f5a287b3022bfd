import random
import time
import tracemalloc

import pytest

from endex import (
    ChainComplexOverLambda,
    ComplexValidationError,
    LaurentMatrix,
    LaurentPoly,
    SimplicialInput,
    from_boundary_matrices,
    homology,
    lift_simplicial,
)
from endex.laurent import poly

from conftest import flat, grid_torus, mat, random_laurent, simplicial_json


def winding_triangle():
    return SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 1})


def test_direct_ingestion_s1s2():
    data = {
        "n": 3,
        "ranks": [1, 1, 1, 1],
        "boundaries": [
            mat([["t - 1"]]).to_json(),
            mat([["0"]]).to_json(),
            mat([["t - 1"]]).to_json(),
        ],
    }
    cc = from_boundary_matrices(data)
    assert cc.n == 3 and cc.ranks == (1, 1, 1, 1)


def test_direct_ingestion_circle():
    cc = from_boundary_matrices({"ranks": [1, 1], "boundaries": [mat([["t - 1"]]).to_json()]})
    assert cc.ranks == (1, 1)


def test_composite_rejection_reports_degree_and_entry():
    with pytest.raises(ComplexValidationError, match=r"degree 2.*\(0, 0\)"):
        ChainComplexOverLambda([1, 1, 1], [mat([["t - 1"]]), mat([["1"]])])


def test_composite_rejection_names_the_first_nonzero_entry():
    # The composite is checked on its nonzero entries; the refusal names the
    # first in row-major order, as a scan of every entry would.
    rng = random.Random(2513)
    refused = later = 0
    for _ in range(60):
        r, n, c = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 5)
        a = flat(r, n, [random_laurent(rng, 2, zero_chance=0.7) for _ in range(r * n)])
        b = flat(n, c, [random_laurent(rng, 2, zero_chance=0.7) for _ in range(n * c)])
        first = next(((i, j) for i in range(r) for j in range(c)
                      if sum((a[i, k] * b[k, j] for k in range(n)), LaurentPoly.zero()).coeffs), None)
        if first is None:
            continue
        refused += 1
        later += first != (0, 0)
        # Half the time a zero map in front moves the composite up a degree.
        lead = [LaurentMatrix.zero(2, r)] if rng.random() < 0.5 else []
        with pytest.raises(ComplexValidationError) as err:
            ChainComplexOverLambda([2] * len(lead) + [r, n, c], lead + [a, b])
        assert str(err.value) == f"boundary composite at degree {len(lead) + 2} is nonzero at entry {first}"
    assert refused >= 20 and later >= 10


def test_shape_rejection():
    with pytest.raises(ComplexValidationError, match="shape"):
        ChainComplexOverLambda([2, 1], [mat([["t"]])])


def test_lift_triangle_boundary_columns():
    cc = lift_simplicial(winding_triangle())
    d1 = cc.boundary(1)
    # Simplices sort as (0,1), (0,2), (1,2); vertices index rows.
    assert [d1[i, 0] for i in range(3)] == [poly("-1"), poly("1"), poly("0")]
    assert [d1[i, 2] for i in range(3)] == [poly("0"), poly("-1"), poly("1")]
    assert [d1[i, 1] for i in range(3)] == [poly("-1"), poly("0"), poly("t")]


def test_lift_trivial_cocycle_has_integer_entries():
    tri = SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 0})
    cc = lift_simplicial(tri)
    for e in cc.boundary(1).entries:
        assert e.is_zero() or (e.low == 0 and e.span == 0)
    h = homology(cc)
    assert h.free_ranks == (1, 1)


def test_cocycle_violation_rejected():
    with pytest.raises(ComplexValidationError, match="cocycle identity"):
        SimplicialInput(
            3,
            {1: [(0, 1), (1, 2), (0, 2)], 2: [(0, 1, 2)]},
            {(0, 1): 0, (1, 2): 0, (0, 2): 1},
        )


def test_face_closure_rejected():
    with pytest.raises(ComplexValidationError, match="face"):
        SimplicialInput(
            3,
            {1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]},
            {(0, 1): 0, (1, 2): 0, (0, 2): 0},
        )


def test_missing_cocycle_value_rejected():
    with pytest.raises(ComplexValidationError, match="no cocycle value"):
        SimplicialInput(3, {1: [(0, 1), (1, 2)]}, {(0, 1): 0})


def test_euler_characteristic():
    assert lift_simplicial(winding_triangle()).euler_characteristic() == 0
    cc = ChainComplexOverLambda([2, 1], [mat([["t - 1"], ["0"]])])
    assert cc.euler_characteristic() == 1


def _random_simplicial(rng: random.Random):
    """A circle of length L with a tree of whiskers and a few isolated
    triangles; cocycle = coboundary of a potential plus one winding edge."""
    length = rng.randint(3, 6)
    extra_tris = rng.randint(0, 2)
    v = length
    edges = [(i, i + 1) for i in range(length - 1)] + [(0, length - 1)]
    tris = []
    for _ in range(extra_tris):
        a = v
        tris.append((a, a + 1, a + 2))
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        v += 3
    whiskers = rng.randint(0, 2)
    for _ in range(whiskers):
        attach = rng.randrange(length)
        edges.append(tuple(sorted((attach, v))))
        v += 1
    potential = [rng.randint(-3, 3) for _ in range(v)]
    winding = rng.randint(1, 3)
    cocycle = {}
    for (a, b) in edges:
        cocycle[(a, b)] = potential[b] - potential[a]
    cocycle[(0, length - 1)] += winding
    simplices = {1: sorted(set(edges))}
    if tris:
        simplices[2] = tris
    return SimplicialInput(v, simplices, cocycle)


def test_random_lifts_are_complexes():
    rng = random.Random(42)
    for _ in range(15):
        si = _random_simplicial(rng)
        cc = lift_simplicial(si)  # construction re-verifies boundary squared
        assert cc.n == si.dimension


def test_coboundary_shift_preserves_invariant_factors():
    rng = random.Random(43)
    for _ in range(10):
        si = _random_simplicial(rng)
        base = homology(lift_simplicial(si))
        g = [rng.randint(-4, 4) for _ in range(si.n_vertices)]
        shifted = {
            (u, w): val + g[w] - g[u] for (u, w), val in si.cocycle.items()
        }
        si2 = SimplicialInput(si.n_vertices, simplicial_json(si)["simplices"], shifted)
        other = homology(lift_simplicial(si2))
        assert base.factors == other.factors
        assert base.free_ranks == other.free_ranks


def test_grid_torus_lift_holds_only_its_nonzeros():
    # The 20 x 20 torus's two boundaries have 4800 nonzero entries in 1.44M
    # slots; a dense grid of them reached a 34.8 MB traced peak.
    x = grid_torus(20)
    tracemalloc.start()
    try:
        cc = lift_simplicial(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(b.nonzeros) for b in cc.boundaries] == [2 * 1200, 3 * 800]
    assert peak < 5_000_000


def test_forty_by_forty_torus_lifts():
    # 1600 vertices, 4800 edges, 3200 triangles, and the d∘d check; about
    # 0.4 s and 8 MB traced (2-vCPU VM, Python 3.11).
    x = grid_torus(40)
    start = time.process_time()
    cc = lift_simplicial(x)
    assert time.process_time() - start < 1.0
    assert cc.ranks == (1600, 4800, 3200)
    tracemalloc.start()
    try:
        lift_simplicial(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_empty_complex_accepted():
    cc = ChainComplexOverLambda([0], [])
    h = homology(cc)
    assert h.free_ranks == (0,) and h.factors == ((),)
