import json
import math
import random
from fractions import Fraction

import pytest

from endex import AmbiguousWallError, exceptional_weights, find_roots
from endex.laurent import LaurentPoly, poly
from endex import spectral
from endex.cli import main
from endex.spectral import RESIDUAL_RTOL, RootDatum

from conftest import alex_dim, random_alexander, total_multiplicity


def all_roots(alex, n=None):
    n = n if n is not None else alex.n
    return [r for k in range(n) for r in find_roots(alex.poly(k), k)]


def test_single_rational_root():
    (r,) = find_roots(poly("t - 2"), 1)
    assert r.exact == 2 and r.multiplicity == 1 and r.radius == 0.0
    assert r.modulus == 2.0


def test_double_root_multiplicity_exact():
    (r,) = find_roots(poly("t - 1") ** 2, 0)
    assert r.exact == 1 and r.multiplicity == 2


def test_unitary_conjugate_pair():
    roots = find_roots(poly("t^2 + 1"), 0)
    assert len(roots) == 2
    assert all(r.exact_modulus_sq == 1 for r in roots)
    assert sorted(round(r.approx.imag, 9) for r in roots) == [-1.0, 1.0]


def test_constant_has_no_roots():
    assert find_roots(poly("5"), 0) == []
    assert find_roots(poly("1"), 3) == []


def test_multiplicity_sums_to_degree():
    rng = random.Random(91)
    for _ in range(30):
        alex, _ = random_alexander(rng)
        for k in range(alex.n):
            roots = find_roots(alex.poly(k), k)
            assert sum(r.multiplicity for r in roots) == alex_dim(alex, k)


def test_residuals_below_bound():
    for p in (poly("t^2 + 1"), poly("t^3 - t + 3"), poly("t^4 + t + 2")):
        height = float(max(abs(c) for c in p.coeffs))
        for r in find_roots(p, 0):
            assert abs(p.evaluate(r.approx)) <= RESIDUAL_RTOL * height * (1 + r.multiplicity)


def test_fox_walls(fox_alexander):
    ws = exceptional_weights(all_roots(fox_alexander, 4), 4)
    assert [w.exact_modulus for w in ws] == [Fraction(1, 2), Fraction(1), Fraction(2)]
    assert [w.delta_exact for w in ws] == ["ln(1/2)", "ln(1)", "ln(2)"]
    assert [w.jump for w in ws] == [-1, 0, 1]
    assert ws[1].delta == 0.0
    assert abs(ws[2].delta - math.log(2)) < 1e-15
    contribs = {(c.degree_k, c.multiplicity) for c in ws[1].contributions}
    assert contribs == {(0, 1), (3, 1)}


def test_product_end_single_wall():
    alex_polys = [poly("t - 1") ** b for b in (2, 1, 3)]
    from endex import AlexanderData

    alex = AlexanderData(3, alex_polys)
    ws = exceptional_weights(all_roots(alex), 3)
    assert len(ws) == 1
    w = ws[0]
    assert w.delta == 0.0 and w.exact_modulus == 1
    assert w.jump == (-1) ** 1 * 2 + (-1) ** 2 * 1 + (-1) ** 3 * 3


def test_no_walls_for_constant_data():
    from endex import AlexanderData

    alex = AlexanderData(3, [poly("1"), poly("1"), poly("1")])
    ws = exceptional_weights(all_roots(alex), 3)
    assert ws == ()


def test_total_multiplicity_conservation():
    rng = random.Random(17)
    for _ in range(20):
        alex, _ = random_alexander(rng)
        ws = exceptional_weights(all_roots(alex), alex.n)
        assert total_multiplicity(ws) == sum(alex_dim(alex, k) for k in range(alex.n))


def test_degree_filter_excludes_top():
    from endex import AlexanderData

    alex = AlexanderData(2, [poly("t - 2"), poly("1"), poly("t - 3")])
    roots = [r for k in range(3) for r in find_roots(alex.poly(k), k)]
    ws = exceptional_weights(roots, 2)
    assert len(ws) == 1 and ws[0].exact_modulus == 2


def test_conjugation_insensitivity():
    """Walls from real-coefficient data are stable under conjugating the
    numeric roots, since only moduli enter."""
    p = poly("t^2 + 1") * poly("t - 2") * poly("t^2 - t + 1")
    roots = find_roots(p, 0)
    conjugated = [
        r.__class__(
            approx=r.approx.conjugate(),
            multiplicity=r.multiplicity,
            degree_k=r.degree_k,
            squarefree_factor=r.squarefree_factor,
            radius=r.radius,
            exact=r.exact,
            exact_modulus_sq=r.exact_modulus_sq,
        )
        for r in roots
    ]
    a = exceptional_weights(roots, 1)
    b = exceptional_weights(conjugated, 1)
    assert [w.delta for w in a] == [w.delta for w in b]
    assert [w.jump for w in a] == [w.jump for w in b]
    # Non-real roots appear in conjugate pairs on the same wall.
    for w in a:
        imags = sorted(round(c.approx.imag, 6) for c in w.contributions)
        assert imags == sorted(-v for v in imags)


def test_conjugate_pair_merges_with_rational_wall():
    from endex import AlexanderData

    alex = AlexanderData(2, [poly("t - 1"), poly("t^2 + 1")])
    ws = exceptional_weights(all_roots(alex), 2)
    assert len(ws) == 1
    assert ws[0].exact_modulus == 1
    assert len(ws[0].contributions) == 3


def test_ambiguous_wall_raises():
    quartic = find_roots(poly("t^4 - 2*t^2 + 4"), 0)  # all moduli sqrt(2), no exact form
    sq2 = find_roots(poly("t^2 - 2"), 1)  # real roots +-sqrt(2), no exact form
    with pytest.raises(AmbiguousWallError):
        exceptional_weights(quartic + sq2, 2)


def test_same_factor_cluster_merges_without_error():
    roots = find_roots(poly("t^2 - 2"), 0)
    ws = exceptional_weights(roots, 1)
    assert len(ws) == 1
    assert ws[0].jump == -2


def test_root_merged_with_an_exact_modulus_keeps_its_radius():
    factor = poly("t^5 - 32")
    exact = RootDatum(approx=2 + 0j, multiplicity=1, degree_k=0, squarefree_factor=factor,
                      exact=Fraction(2), exact_modulus_sq=Fraction(4))
    loose = RootDatum(approx=2j * (1 + 1e-7), multiplicity=1, degree_k=0,
                      squarefree_factor=factor, radius=1e-6)
    (w,) = exceptional_weights([exact, loose], 1)
    assert w.exact_modulus == 2
    assert w.delta == math.log(2)
    assert 1e-7 < w.delta_radius < 1e-6
    assert spectral.wall_at([w], math.log(2) + 4e-7) is w
    assert spectral.wall_at([w], math.log(2) + 1e-5) is None


def test_wall_json_shape(fox_alexander):
    ws = exceptional_weights(all_roots(fox_alexander, 4), 4)
    j = [w.to_json() for w in ws]
    assert j[2]["delta_exact"] == "ln(2)"
    assert j[2]["contributions"] == [{"k": 1, "lambda": "2", "mult": 1}]


def test_rational_roots_lists_divisors_once_per_round(monkeypatch):
    # 720720 t^5 + t^3 + 720720 has no rational root, so the search tries
    # every divisor pair of 720720 (240 divisors) before giving up.
    calls = []
    divisors = spectral._divisors

    def counting(n):
        calls.append(n)
        return divisors(n)

    monkeypatch.setattr(spectral, "_divisors", counting)
    cliff = LaurentPoly(0, [720720, 0, 0, 1, 0, 720720])
    assert spectral._rational_roots(cliff) == ([], cliff)
    assert len(calls) == 2
    # Two rational roots: two rounds that find one, a third that finds none.
    calls.clear()
    roots, rest = spectral._rational_roots(poly("2t - 1") * poly("t + 3") * cliff)
    assert roots == [Fraction(1, 2), Fraction(-3)] and rest == cliff
    assert len(calls) == 6


def test_rational_roots_skip_positive_candidates_of_a_positive_polynomial(monkeypatch):
    # Every coefficient of 720720 t^5 + t^3 + 720720 is positive, so by
    # Descartes' rule it has no positive root and no positive candidate is
    # evaluated; its negative candidates still are.
    points = []
    evaluate = LaurentPoly.evaluate

    def recording(self, z):
        points.append(z)
        return evaluate(self, z)

    monkeypatch.setattr(LaurentPoly, "evaluate", recording)
    cliff = LaurentPoly(0, [720720, 0, 0, 1, 0, 720720])
    assert spectral._rational_roots(cliff) == ([], cliff)
    assert points and all(z < 0 for z in points)


def _unpruned_rational_roots(f: LaurentPoly):
    """Every candidate p/q, then -p/q, in the order _rational_roots uses,
    evaluated over Q on the rational coefficients, with no sign pruning."""
    roots = []
    while f.span > 0:
        den = math.lcm(*(c.denominator for c in f.coeffs))
        a = [int(c * den) for c in f.coeffs]
        a = [x // math.gcd(*a) for x in a]
        qs = spectral._divisors(a[-1])
        found = next((r for p in spectral._divisors(a[0]) for q in qs if math.gcd(p, q) == 1
                      for r in (Fraction(p, q), Fraction(-p, q)) if f.evaluate(r) == 0), None)
        if found is None:
            break
        roots.append(found)
        f, rest = divmod(f, LaurentPoly(0, [-found, 1]))
        assert rest.is_zero()
    return roots


def test_rational_roots_match_an_unpruned_scan():
    # Products of linear factors q t - p and irreducible quadratics; the
    # pruned and the unpruned scan find the same roots in the same order.
    rng = random.Random(19)
    for _ in range(60):
        f = LaurentPoly.one()
        roots = set()
        for _ in range(rng.randint(1, 5)):
            p, q = rng.randint(-7, 7) or 1, rng.randint(1, 7)
            if Fraction(p, q) not in roots:
                roots.add(Fraction(p, q))
                f = f * LaurentPoly(0, [-p, q])
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(-5, 5), rng.randint(1, 9)
            if a * a < 4 * b:
                f = f * LaurentPoly(0, [b, a, 1])
        got, rest = spectral._rational_roots(f)
        assert got == _unpruned_rational_roots(f)
        assert sorted(got) == sorted(roots)
        assert all(rest.evaluate(r) != 0 for r in roots)


def test_aberth_stops_on_high_degree_circle(tmp_path, monkeypatch, capsys):
    # The circle with cocycle 200 on one edge has Delta_0 = t^200 - 1; after
    # the rational roots +-1, Aberth gets the 198 others on |z| = 1, where
    # the residual target RESIDUAL_RTOL * 0.1 * max|c| is out of reach of
    # floating point.  The Horner rounding bound stops it after about 60
    # sweeps; the residual target alone ran all 500.
    doc = tmp_path / "circle200.json"
    doc.write_text('{"vertices": 3, "simplices": {"1": [[0, 1], [1, 2], [0, 2]]},'
                   ' "cocycle": {"0,1": 0, "1,2": 0, "0,2": 200}}')
    calls = [0]
    horner = spectral._horner

    def counting(coeffs, z):
        # Each sweep evaluates p and p' once at every complex root estimate.
        calls[0] += isinstance(z, complex)
        return horner(coeffs, z)

    monkeypatch.setattr(spectral, "_horner", counting)
    assert main(["analyze", "--input", str(doc)]) == 0
    walls = json.loads(capsys.readouterr().out)["walls"]
    assert [(w["delta"], w["jump"], len(w["contributions"])) for w in walls] == [(0.0, -200, 200)]
    sweeps = calls[0] // (2 * 198)
    assert sweeps < 100


def test_a_linear_factor_past_the_rational_search_cap(tmp_path, capsys):
    # t - 10^13 has an end coefficient above 10^12, where the rational
    # search stops, so the float root finder solves the linear factor.  The
    # wall is checked within its radius, not by its float bytes.
    doc = tmp_path / "linear.json"
    doc.write_text('{"alexander": [{"lowest": 0, "coeffs": ["-10000000000000", "1"]}],'
                   ' "manifold": {"dim": 1, "chi": 0}}')
    assert main(["index", "--input", str(doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    (wall,) = report["walls"]
    assert (wall["jump"], report["values"]) == (-1, [1, 0])
    (r,) = find_roots(poly("t - 10000000000000"), 0)
    (w,) = exceptional_weights([r], 1)
    assert abs(r.approx - 10**13) <= r.radius
    assert abs(wall["delta"] - 13 * math.log(10)) <= w.delta_radius + 1e-12


def test_degree_above_the_cap_is_refused(tmp_path, monkeypatch, capsys):
    # The circle with cocycle MAX_DEGREE + 1 on one edge: its homology and
    # polynomials are cheap, its roots are refused before any work.
    def unreachable(p):
        raise AssertionError("square-free decomposition ran past the degree cap")

    monkeypatch.setattr(spectral, "squarefree_decomposition", unreachable)
    w = spectral.MAX_DEGREE + 1
    with pytest.raises(ValueError, match=f"has degree {w}, above the cap of {spectral.MAX_DEGREE}"):
        find_roots(LaurentPoly.t_power(w) - LaurentPoly.one(), 0)
    doc = tmp_path / "circle.json"
    doc.write_text('{"vertices": 3, "simplices": {"1": [[0, 1], [1, 2], [0, 2]]},'
                   f' "cocycle": {{"0,1": 0, "1,2": 0, "0,2": {w}}}}}')
    assert main(["alexander", "--input", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["alexander"]["polys"][0]["lowest"] == 0
    assert main(["analyze", "--input", str(doc)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"endex: error: the degree-0 characteristic polynomial has degree {w}, "
                              f"above the cap of {spectral.MAX_DEGREE}\n")
