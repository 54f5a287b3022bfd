import math
import os
import random

import pytest

from endex import (
    AlexanderData,
    OnWallError,
    duality_check,
    exceptional_weights,
    excision_index,
    find_roots,
    index_at,
    index_function,
)
from endex.indexfn import _closed_values, mirrored_sample_points
from endex.inputs import load_input
from endex.laurent import poly

from conftest import (accumulated_values, analysis_of, annulus_count, jump_at, off_wall_delta,
                      planted_complex, random_alexander)

DATA = os.path.join(os.path.dirname(__file__), "data")


def walls_for(alex, n=None):
    n = n if n is not None else alex.n
    roots = [r for k in range(n) for r in find_roots(alex.poly(k), k)]
    return exceptional_weights(roots, n)


@pytest.fixture
def fox_index(fox_alexander):
    ws = walls_for(fox_alexander, 4)
    return index_function(4, 2, ws), ws


def test_fox_values(fox_index):
    f, _ = fox_index
    assert list(f.values) == [2, 1, 1, 2]


def test_fox_index_at(fox_index):
    f, _ = fox_index
    assert index_at(f, 0.5) == 1
    assert index_at(f, -0.5) == 1
    assert index_at(f, 1.0) == 2
    assert index_at(f, -1.0) == 2
    with pytest.raises(OnWallError):
        index_at(f, math.log(2))
    with pytest.raises(OnWallError):
        index_at(f, 0.0)


def test_fox_jumps(fox_index):
    f, _ = fox_index
    jump, breakdown = jump_at(f, 2)
    assert jump == 1 and breakdown == [(1, 1, 1)]
    jump, breakdown = jump_at(f, 1)
    assert jump == 0 and sorted(breakdown) == [(0, 1, -1), (3, 1, 1)]
    jump, _ = jump_at(f, 0)
    assert jump == -1


def test_product_end_values(s1s2_complex):
    from endex import alexander_polynomials, homology

    alex = alexander_polynomials(homology(s1s2_complex))
    ws = walls_for(alex, 3)
    f = index_function(3, 1, ws)
    assert list(f.values) == [1, -1]
    for d in (0.25, 0.5, 2.0):
        assert index_at(f, d) == -1 and index_at(f, -d) == 1


def test_constant_data_constant_value():
    alex = AlexanderData(4, [poly("1")] * 4)
    ws = walls_for(alex)
    f = index_function(4, 7, ws)
    assert list(f.values) == [7]
    assert index_at(f, -3.0) == 7 and index_at(f, 3.0) == 7


def test_rightmost_value_is_signed_chi():
    rng = random.Random(1)
    for _ in range(40):
        alex, chi = random_alexander(rng)
        ws = walls_for(alex)
        f = index_function(alex.n, chi, ws)
        assert f.values[-1] == (-1) ** alex.n * chi


def test_closed_and_accumulated_routes_agree():
    rng = random.Random(2)
    for _ in range(100):
        alex, chi = random_alexander(rng, max_n=5, max_deg=4)
        ws = walls_for(alex)
        closed = _closed_values(alex.n, chi, ws)
        accumulated = accumulated_values(alex.n, chi, ws)
        assert closed == accumulated
        assert closed[-1] == (-1) ** alex.n * chi


def test_excision_fox_annulus(fox_index):
    f, _ = fox_index
    assert excision_index(1.0, 0.5, f) == -1
    assert excision_index(0.5, 1.0, f) == 1
    assert excision_index(0.9, 0.9, f) == 0
    assert excision_index(-2.0, 2.0, f) == 0
    assert excision_index(-0.5, 0.5, f) == 0


def test_excision_on_wall_rejected(fox_index):
    f, _ = fox_index
    with pytest.raises(OnWallError):
        excision_index(0.0, 0.5, f)


def test_excision_random_pairs_agree():
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        alex, chi = random_alexander(rng)
        ws = walls_for(alex)
        f = index_function(alex.n, chi, ws)
        for _ in range(5):
            d1 = off_wall_delta(rng, ws)
            d2 = off_wall_delta(rng, ws)
            value = excision_index(d1, d2, f)
            assert value == index_at(f, d2) - index_at(f, d1) == annulus_count(f, d1, d2)
            assert excision_index(d1, d1, f) == 0
            checked += 1


def _weight_pairs(f):
    """Every ordered pair of interval samples and mirrored weights."""
    mirrored = mirrored_sample_points(f)
    pts = f.sample_points() + mirrored + [-d for d in mirrored]
    return [(d1, d2) for d1 in pts for d2 in pts]


@pytest.mark.parametrize("name, chi", [("fox.json", None), ("s1s2.json", None), ("circle.json", 0)])
def test_excision_is_the_annulus_count_on_shipped_examples(name, chi):
    f = load_input(os.path.join(DATA, name), chi_override=chi).index
    assert f.walls
    for d1, d2 in _weight_pairs(f):
        assert excision_index(d1, d2, f) == annulus_count(f, d1, d2)


def test_excision_is_the_annulus_count_on_planted_complexes():
    rng = random.Random(17)
    walls = 0
    for _ in range(10):
        cc, _ = planted_complex(rng)
        f = analysis_of(cc, cc.euler_characteristic()).index
        walls += len(f.walls)
        for d1, d2 in _weight_pairs(f):
            assert excision_index(d1, d2, f) == annulus_count(f, d1, d2)
    assert walls >= 10


def test_duality_fox(fox_alexander, fox_index):
    f, _ = fox_index
    rep = duality_check(fox_alexander, f)
    assert rep["ok"]
    assert [(p["k"], p["partner"]) for p in rep["pairs"]] == [(0, 3), (1, 2)]
    assert rep["parity"]["n_parity"] == "even"
    assert len(rep["parity"]["samples"]) == 10


def test_duality_product_end(s1s2_complex):
    from endex import alexander_polynomials, homology

    alex = alexander_polynomials(homology(s1s2_complex))
    ws = walls_for(alex, 3)
    f = index_function(3, 1, ws)
    rep = duality_check(alex, f)
    assert rep["ok"] and rep["parity"]["n_parity"] == "odd"
    for s in rep["parity"]["samples"]:
        assert s["ind_neg"] == -s["ind_pos"]


def test_duality_failure_reported_not_raised():
    alex = AlexanderData(2, [poly("t - 2"), poly("t - 3")])
    rep = duality_check(alex)
    assert not rep["ok"]
    assert any(not p["ok"] for p in rep["pairs"])


def test_wall_set_symmetry_for_duality_passing_input(fox_alexander):
    ws = walls_for(fox_alexander, 4)
    deltas = [w.delta for w in ws]
    assert deltas == sorted(deltas)
    mirrored = sorted(-d for d in deltas)
    assert all(abs(a - b) < 1e-12 for a, b in zip(deltas, mirrored))
    n = 4
    for w, wm in zip(ws, reversed(ws)):
        assert w.jump == -((-1) ** n) * wm.jump


def test_mirrored_sample_points_avoid_walls(fox_index):
    f, ws = fox_index
    pts = mirrored_sample_points(f)
    assert len(pts) == 10
    for d in pts:
        index_at(f, d)
        index_at(f, -d)


def test_index_requires_chi(fox_alexander):
    ws = walls_for(fox_alexander, 4)
    with pytest.raises(ValueError):
        index_function(4, None, ws)
