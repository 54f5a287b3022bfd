"""Milnor's torsion at rational points against the characteristic
polynomials that `homology` reads off its Smith normal forms.

The torsion is taken by sparse elimination over Q of the complex
evaluated at each point: another ring and another algorithm than the
Smith normal form over the Laurent ring, and cheap enough for the grid
tori whose homology the Smith normal form cannot reach.
"""

import os
import random
from fractions import Fraction

import pytest

from endex import LaurentPoly, alexander_polynomials, homology, lift_simplicial
from endex.inputs import load_input
from endex.laurent import poly

from conftest import TORSION_POINTS, grid_torus, milnor_torsion, planted_complex, torsion_matches

WRONG = poly("t - 11")


def test_circle_fixes_the_convention(circle_complex):
    assert milnor_torsion(circle_complex) == [1 / (z - 1) for z in TORSION_POINTS]


def test_no_torsion_where_the_complex_is_not_acyclic(circle_complex, s1s2_complex):
    assert milnor_torsion(circle_complex, [1]) == [None]
    assert milnor_torsion(s1s2_complex, [1, 2]) == [None, Fraction(1)]


@pytest.mark.parametrize("name", ["circle.json", "s1s2.json"])
def test_torsion_agrees_with_homology_on_shipped_examples(name):
    # On S^1 x S^2, Δ0 = Δ2 = t - 1 enter with the same sign and do not cancel.
    cc = load_input(os.path.join(os.path.dirname(__file__), "data", name)).complex
    polys = alexander_polynomials(homology(cc)).polys
    assert torsion_matches(milnor_torsion(cc), polys)
    assert not torsion_matches(milnor_torsion(cc), polys[:-1] + (polys[-1] * WRONG,))


@pytest.fixture(scope="module")
def planted_draws():
    """Planted complexes (finite homology) whose polynomials have no root at
    any torsion point, with the polynomials `homology` computes."""
    rng = random.Random(8)
    draws = []
    for _ in range(50):
        cc, _ = planted_complex(rng)
        polys = alexander_polynomials(homology(cc)).polys
        if all(p.evaluate(z) for p in polys for z in TORSION_POINTS):
            draws.append((milnor_torsion(cc), polys))
    assert len(draws) >= 20
    return draws


def test_torsion_agrees_with_homology_on_planted_complexes(planted_draws):
    for torsions, polys in planted_draws:
        assert torsion_matches(torsions, polys)


def test_a_wrong_factor_is_caught_on_planted_complexes(planted_draws):
    for torsions, polys in planted_draws:
        for k in range(len(polys)):
            wrong = polys[:k] + (polys[k] * WRONG,) + polys[k + 1:]
            assert not torsion_matches(torsions, wrong)


@pytest.mark.parametrize("k", [3, 4, 6, 10, 20])
def test_torsion_on_grid_tori(k):
    cc = lift_simplicial(grid_torus(k))
    delta = poly("t - 1")
    known = (delta, delta, LaurentPoly.one())
    if k <= 4:
        assert alexander_polynomials(homology(cc)).polys == known
    torsions = milnor_torsion(cc)
    assert torsion_matches(torsions, known)
    assert not torsion_matches(torsions, (delta, delta * WRONG, LaurentPoly.one()))
