import random
from fractions import Fraction

import pytest

from endex import (
    ChainComplexOverLambda,
    HomologyModule,
    NotFiniteError,
    alexander_polynomials,
    homology,
    twisted_dims,
)
from endex.laurent import poly

from conftest import ROOT_POOL, alex_dim, free_rank, mat, planted_complex


def test_circle_homology(circle_complex):
    h = homology(circle_complex)
    assert h.free_ranks == (0, 0)
    assert h.invariant_factors(0) == [poly("t - 1")]
    assert h.invariant_factors(1) == []


def test_s1s2_homology(s1s2_complex):
    h = homology(s1s2_complex)
    assert h.free_ranks == (0, 0, 0, 0)
    assert h.invariant_factors(0) == [poly("t - 1")]
    assert h.invariant_factors(1) == []
    assert h.invariant_factors(2) == [poly("t - 1")]
    assert h.invariant_factors(3) == []


def test_trivial_cocycle_circle_is_free():
    h = homology(ChainComplexOverLambda([1, 1], [mat([["0"]])]))
    assert h.free_ranks == (1, 1)
    assert h.infinite_degrees == (0, 1)


def test_alexander_from_homology(s1s2_complex):
    a = alexander_polynomials(homology(s1s2_complex))
    assert [a.poly(k) for k in range(4)] == [poly("t - 1"), poly("1"), poly("t - 1"), poly("1")]
    assert a.poly(0) * a.poly(1) * a.poly(2) == poly("t - 1") * poly("t - 1")
    assert alex_dim(a, 0) == 1 and alex_dim(a, 1) == 0


def test_alexander_requires_finite():
    h = HomologyModule(1, [1, 0], [[], []])
    with pytest.raises(NotFiniteError) as exc:
        alexander_polynomials(h)
    assert exc.value.degrees == [0]


def test_homology_module_refuses_a_bad_factor_chain():
    with pytest.raises(ValueError, match="do not form a divisibility chain"):
        HomologyModule(0, [0], [[poly("t - 2"), poly("t - 1")]])
    for q in (poly("1"), poly("2t - 2")):
        with pytest.raises(ValueError, match="is not canonical nonconstant"):
            HomologyModule(0, [0], [[q]])


def test_fox_injected_module():
    h = HomologyModule(
        3, [0, 0, 0, 0],
        [[poly("t - 1")], [poly("t - 2")], [poly("t - 1/2")], [poly("t - 1")]],
    )
    a = alexander_polynomials(h, n=4)
    assert [a.poly(k) for k in range(4)] == [
        poly("t - 1"), poly("t - 2"), poly("t - 1/2"), poly("t - 1")
    ]
    assert a.poly(4) == poly("1")


def test_alexander_degree_equals_torsion_dim():
    rng = random.Random(6)
    for _ in range(8):
        cc, expected = planted_complex(rng)
        h = homology(cc)
        a = alexander_polynomials(h)
        for k in range(h.n + 1):
            assert alex_dim(a, k) == h.torsion_dim(k)
            assert a.poly(k).is_canonical


def test_planted_invariant_factors_survive_disguise():
    rng = random.Random(8)
    for _ in range(10):
        cc, expected = planted_complex(rng)
        h = homology(cc)
        for k, (free, chain) in expected.items():
            assert free_rank(h, k) == free
            assert h.invariant_factors(k) == chain, (k, expected)


def test_planted_free_parts_detected():
    rng = random.Random(12)
    saw_infinite = False
    for _ in range(10):
        cc, expected = planted_complex(rng, allow_free=True)
        h = homology(cc)
        want_infinite = tuple(k for k, (free, _) in sorted(expected.items()) if free > 0)
        assert h.infinite_degrees == want_infinite
        saw_infinite = saw_infinite or bool(want_infinite)
    assert saw_infinite


def test_free_ranks_reproduce_euler_characteristic():
    rng = random.Random(21)
    for _ in range(10):
        cc, _ = planted_complex(rng, allow_free=True)
        h = homology(cc)
        chi = sum((-1) ** k * r for k, r in enumerate(cc.ranks))
        assert sum((-1) ** k * free_rank(h, k) for k in range(h.n + 1)) == chi


def test_exactness_off_the_root_set():
    """Evaluated fibers vanish at points avoiding every invariant factor root."""
    rng = random.Random(31)
    for _ in range(5):
        cc, expected = planted_complex(rng)
        h = homology(cc)
        factors = [q for k in range(h.n + 1) for q in h.invariant_factors(k)]
        for _ in range(10):
            z = Fraction(rng.randint(2, 30) * 2 + 1, rng.randint(1, 9) * 2)
            if any(q.evaluate(z) == 0 for q in factors):
                continue
            fiber = twisted_dims(cc, z)
            assert all(d == 0 for d in fiber.dims)


def test_homology_json_shape(s1s2_complex):
    j = homology(s1s2_complex).to_json()
    assert [d["degree"] for d in j["degrees"]] == [0, 1, 2, 3]
    assert j["degrees"][0]["invariant_factors"] == [{"lowest": 0, "coeffs": ["-1", "1"]}]
    assert j["degrees"][0]["dim"] == 1
