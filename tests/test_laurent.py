import random
from fractions import Fraction

import pytest

from endex import GaussianRational, LaurentPoly, canonicalize, laurent_gcd, squarefree_decomposition
from endex.laurent import poly

from conftest import random_laurent


def test_ring_identities():
    assert poly("t - 1") * poly("t + 1") == poly("t^2 - 1")
    assert (poly("t^2 + 3") * LaurentPoly.zero()).is_zero()
    assert poly("t^-1 - 1") * poly("-t") == poly("t - 1")
    assert poly("t") + poly("-t") == LaurentPoly.zero()
    assert poly("1/2") + poly("1/2") == poly("1")


def test_divmod_examples():
    assert divmod(poly("t^2 - 1"), poly("t - 1")) == (poly("t + 1"), LaurentPoly.zero())
    assert divmod(poly("t - 2"), poly("t - 1")) == (poly("1"), poly("-1"))
    assert divmod(poly("5"), poly("t - 1")) == (LaurentPoly.zero(), poly("5"))


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divmod(poly("t"), LaurentPoly.zero())


def test_divmod_reconstructs_random():
    rng = random.Random(101)
    for _ in range(200):
        a = random_laurent(rng, max_span=6)
        b = random_laurent(rng, max_span=6)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert b * q + r == a
        assert r.is_zero() or r.span < b.span


def test_gcd_examples():
    assert laurent_gcd(poly("t - 1"), poly("t^2 - 1")) == poly("t - 1")
    assert laurent_gcd(poly("t - 1"), poly("t - 2")) == poly("1")
    assert laurent_gcd(poly("2*t^2 - 2*t"), LaurentPoly.zero()) == poly("t - 1")
    with pytest.raises(ValueError):
        laurent_gcd(LaurentPoly.zero(), LaurentPoly.zero())


def test_gcd_divides_both_random():
    rng = random.Random(55)
    for _ in range(150):
        a, b = random_laurent(rng), random_laurent(rng)
        if a.is_zero() and b.is_zero():
            continue
        g = laurent_gcd(a, b)
        assert g.divides(a) and g.divides(b)


def test_canonicalize_examples():
    assert canonicalize(poly("2*t^2 - 2*t")) == poly("t - 1")
    assert canonicalize(poly("t^-1") * poly("t - 2")) == poly("t - 2")
    assert canonicalize(poly("3")) == poly("1")
    with pytest.raises(ValueError):
        canonicalize(LaurentPoly.zero())


def test_canonicalize_idempotent_and_unit_invariant():
    rng = random.Random(7)
    for _ in range(120):
        p = random_laurent(rng, zero_chance=0.0)
        c = rng.choice([1, -1, 2, -3, Fraction(5, 7)])
        k = rng.randint(-5, 5)
        assert canonicalize(p.scale(c).shift(k)) == canonicalize(p)
        assert canonicalize(canonicalize(p)) == canonicalize(p)


def test_squarefree_examples():
    got = squarefree_decomposition(poly("t - 1") ** 2 * poly("t - 2"))
    assert {(f, m) for f, m in got} == {(poly("t - 2"), 1), (poly("t - 1"), 2)}
    assert squarefree_decomposition(poly("t - 1/2")) == [(poly("t - 1/2"), 1)]
    assert squarefree_decomposition(poly("1")) == []


def test_squarefree_multiplicities_increase_and_reconstruct():
    rng = random.Random(17)
    for _ in range(80):
        p = random_laurent(rng, max_span=4, zero_chance=0.0)
        if p.span == 0:
            continue
        parts = squarefree_decomposition(p)
        mults = [m for _, m in parts]
        assert mults == sorted(mults) and len(set(mults)) == len(mults)
        prod = LaurentPoly.one()
        for f, m in parts:
            prod = prod * f ** m
        assert prod == canonicalize(p)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert laurent_gcd(parts[i][0], parts[j][0]) == poly("1")


def test_evaluation():
    assert poly("t^-1").evaluate(Fraction(2)) == Fraction(1, 2)
    assert poly("t^2 - 4").evaluate(Fraction(2)) == 0
    i = GaussianRational(0, 1)
    assert poly("t^2 + 1").evaluate(i) == 0
    assert abs(poly("t^2 + 1").evaluate(1j)) < 1e-15
    with pytest.raises(ZeroDivisionError):
        poly("t^-1").evaluate(Fraction(0))


def test_reversal():
    assert canonicalize(poly("t - 1/2").reversed_variable()) == poly("t - 2")
    assert canonicalize(poly("t - 1").reversed_variable()) == poly("t - 1")


def test_unit_negative_powers():
    u = poly("2*t")
    assert u ** -2 == LaurentPoly(-2, [Fraction(1, 4)])
    assert u ** -1 * u == poly("1")
    with pytest.raises(ValueError):
        poly("t + 1") ** -1


def test_evaluate_gaussian_negative_exponent():
    z = GaussianRational(Fraction(1), Fraction(1))
    assert poly("t^-1").evaluate(z) == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert poly("t^-2 + 1").evaluate(z) == GaussianRational(1, Fraction(-1, 2))


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        poly("t^^2")
    with pytest.raises(ValueError):
        poly("")


def test_gaussian_rational_field():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    b = GaussianRational(Fraction(2), Fraction(1, 5))
    assert (a * b) / b == a
    assert a + (-a) == 0
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert a * a.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0, 0).inverse()


def test_serialization_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        p = random_laurent(rng)
        assert LaurentPoly.from_json(p.to_json()) == p
    assert poly("t - 1/2").to_json() == {"lowest": 0, "coeffs": ["-1/2", "1"]}
    assert LaurentPoly.zero().to_json() == {"lowest": 0, "coeffs": []}


def test_parser_and_pretty_roundtrip():
    rng = random.Random(29)
    for _ in range(50):
        p = random_laurent(rng)
        assert poly(p.pretty()) == p


def test_module_doctests():
    import doctest

    import endex.laurent

    result = doctest.testmod(endex.laurent)
    assert result.attempted > 0 and result.failed == 0
