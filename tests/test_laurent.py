import random
from fractions import Fraction

import pytest

from endex import CertificationError, GaussianRational, LaurentPoly, canonicalize, laurent_gcd, squarefree_decomposition
from endex.laurent import _exact_quo, minimal_polynomial, poly

from conftest import (
    gaussian_evaluate,
    random_laurent,
    reference_laurent_gcd,
    reference_squarefree_decomposition,
    scale,
    shift,
)


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


def test_gcd_with_zero_is_canonical_associate():
    rng = random.Random(61)
    for _ in range(60):
        p = random_laurent(rng, max_span=6, zero_chance=0.0)
        assert laurent_gcd(p, LaurentPoly.zero()) == canonicalize(p)
        assert laurent_gcd(LaurentPoly.zero(), p) == canonicalize(p)


class _Half(Fraction):
    """A Fraction subclass, which the constructor must not store as given."""


def test_constructor_stores_exact_fractions():
    half = _Half(1, 2)
    built = [
        LaurentPoly(0, [1, True, Fraction(2, 4), half, False]),
        LaurentPoly.constant(half),
        LaurentPoly.t_power(-3, 7),
        poly("3/6*t^2 - t + 4"),
        poly("t - 1/2") * poly("t + 1/3") + poly("1/2"),
        divmod(poly("t^3 + 1/3"), poly("2*t - 1"))[0],
        divmod(poly("t^3 + 1/3"), poly("2*t - 1"))[1],
    ]
    for p in built:
        assert p.coeffs and all(type(c) is Fraction for c in p.coeffs), p.coeffs
    assert built[0].coeffs == (1, 1, Fraction(1, 2), Fraction(1, 2))
    assert built[1] == poly("1/2")
    # A stored Fraction is the very object passed in; a subclass instance is not.
    third = Fraction(1, 3)
    assert LaurentPoly(0, [third]).coeffs[0] is third
    assert LaurentPoly(0, [half]).coeffs[0] is not half


def test_gaussian_input_rejected():
    # Refused wherever it stands, also after a Fraction that is kept as given.
    for bad in (GaussianRational(0, 1), GaussianRational(1, 0), 0.5, 1.0, 1 + 0j, "1", None):
        for coeffs in ([bad, 1], [Fraction(1), bad], [bad]):
            with pytest.raises(TypeError):
                LaurentPoly(0, coeffs)


def test_poly_rejects_what_is_not_text_or_rational():
    for bad in (0.5, None, [1, 2], GaussianRational(0, 1)):
        with pytest.raises(TypeError):
            poly(bad)
    assert poly(Fraction(1, 2)) == LaurentPoly.constant(Fraction(1, 2))


def test_arithmetic_takes_laurent_operands_only():
    t = poly("t")
    for op in (lambda: t + 1, lambda: 1 + t, lambda: t - Fraction(1, 2), lambda: 1 - t,
               lambda: 2 * t, lambda: t * 2, lambda: divmod(t, 2), lambda: t % 2):
        with pytest.raises(TypeError):
            op()
    assert not poly("0") == 0
    assert not poly("1") == 1
    assert t + poly("1") == poly("t + 1")
    assert poly("2") * t == LaurentPoly.constant(2) * t == poly("2*t")


def test_inexact_integer_division_is_certification_error():
    # t^2 + 1 leaves remainder 2 on division by t + 1; 3t + 1 stops at the
    # leading coefficient, 3 not being a multiple of 2.
    for n, a in (([1, 0, 1], [1, 1]), ([1, 3], [1, 2])):
        with pytest.raises(CertificationError) as info:
            _exact_quo(n, a)
        assert info.value.stage == "squarefree" and info.value.check == "inexact integer division"
    assert _exact_quo([-1, 0, 1], [1, 1]) == [-1, 1]


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
        assert canonicalize(shift(scale(p, c), k)) == canonicalize(p)
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


_FACTOR_POOL = ["t - 1", "t + 1", "2*t - 3", "t^2 + 1", "3*t^2 - t + 2"]


def _random_factor(rng: random.Random) -> LaurentPoly:
    """A pool factor (so products share factors) or a random one with
    rational coefficients of span 1 to 4."""
    if rng.random() < 0.3:
        return poly(rng.choice(_FACTOR_POOL))
    span = rng.randint(1, 4)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(span + 1)]
    coeffs[0] = coeffs[0] or Fraction(1, 2)
    coeffs[-1] = coeffs[-1] or Fraction(-3, 4)
    return LaurentPoly(0, coeffs)


def _random_product(rng: random.Random, max_degree: int = 24) -> LaurentPoly:
    """A product of factors with multiplicities 1 to 3, of degree at most
    max_degree, times a unit c*t^k."""
    target = rng.randint(1, max_degree)
    p = LaurentPoly.one()
    while True:
        f = _random_factor(rng)
        m = rng.randint(1, 3)
        if p.span + f.span * m > target:
            break
        p = p * f ** m
    unit = LaurentPoly(rng.randint(-3, 3), [Fraction(rng.choice([1, -1, 2, -5]), rng.randint(1, 7))])
    return p * unit


def test_integer_kernel_matches_rational_reference():
    rng = random.Random(404)
    seen_mult3 = seen_common = max_degree = 0
    for _ in range(500):
        p = _random_product(rng)
        got = squarefree_decomposition(p)
        want = reference_squarefree_decomposition(p)
        assert [(f.low, f.coeffs, m) for f, m in got] == [(f.low, f.coeffs, m) for f, m in want]
        common = _random_product(rng, max_degree=8)
        a, b = common * _random_product(rng, max_degree=12), common * _random_product(rng, max_degree=12)
        g, h = laurent_gcd(a, b), reference_laurent_gcd(a, b)
        assert (g.low, g.coeffs) == (h.low, h.coeffs)
        seen_mult3 += any(m >= 3 for _, m in got)
        seen_common += g.span > 0
        max_degree = max(max_degree, p.span)
    assert seen_mult3 > 50 and seen_common > 250 and max_degree >= 22


def test_squarefree_makes_no_laurent_division(monkeypatch):
    rng = random.Random(24)
    p = LaurentPoly.one()
    while p.span < 24:
        p = p * _random_factor(rng) ** rng.randint(1, 3)
    p = shift(p, -2)
    want = reference_squarefree_decomposition(p)
    calls = []
    divmod_ = LaurentPoly.__divmod__

    def counting(self, other):
        calls.append(1)
        return divmod_(self, other)

    monkeypatch.setattr(LaurentPoly, "__divmod__", counting)
    assert p.span >= 24
    assert squarefree_decomposition(p) == want
    assert calls == []


def test_evaluation():
    assert poly("t^-1").evaluate(Fraction(2)) == Fraction(1, 2)
    assert poly("t^2 - 4").evaluate(Fraction(2)) == 0
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


def test_evaluate_refuses_a_gaussian_point():
    # GaussianRational has __complex__, so without the check it would be
    # rounded: t^2 + 1 would give 0j at i instead of an error.
    for z in (GaussianRational(0, 1), GaussianRational(2, 0), GaussianRational(0, 0)):
        with pytest.raises(TypeError):
            poly("t^2 + 1").evaluate(z)


def test_evaluate_gaussian_negative_exponent():
    z = GaussianRational(Fraction(1), Fraction(1))
    assert gaussian_evaluate(poly("t^-1"), z) == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert gaussian_evaluate(poly("t^-2 + 1"), z) == GaussianRational(1, Fraction(-1, 2))


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        poly("t^^2")
    with pytest.raises(ValueError):
        poly("")


def test_evaluate_gaussian_matches_complex():
    # p vanishes at z exactly when the minimal polynomial of z divides p,
    # the test uct_dims applies; half of the draws are planted multiples.
    rng = random.Random(41)
    vanishing = 0
    for _ in range(200):
        p = random_laurent(rng, max_span=5, low_range=(-4, 3))
        z = GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                             Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        if z == GaussianRational(0, 0):
            continue
        g = minimal_polynomial(z)
        if rng.random() < 0.5:
            p = p * g
        exact = gaussian_evaluate(p, z)
        approx = p.evaluate(complex(z))
        assert isinstance(exact, GaussianRational)
        assert abs(complex(exact) - approx) <= 1e-9 * (1 + abs(approx))
        assert (exact == GaussianRational(0, 0)) == g.divides(p)
        vanishing += exact == GaussianRational(0, 0)
    assert vanishing > 50
    with pytest.raises(ZeroDivisionError):
        gaussian_evaluate(poly("t^-2 + 1"), GaussianRational(0, 0))
    assert gaussian_evaluate(poly("t^2 + 3"), GaussianRational(0, 0)) == GaussianRational(3, 0)


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
