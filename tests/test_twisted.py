import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from endex import (
    ChainComplexOverLambda,
    GaussianRational,
    HomologyModule,
    NotFiniteError,
    OnWallError,
    SimplicialInput,
    WindowTooSmallError,
    cup_product_check,
    fredholm_check,
    homology,
    l2_hom_dim_analytic,
    l2_kernel_truncated,
    lift_simplicial,
    twisted_dims,
    uct_dims,
)
from endex import UnsupportedInputError
from endex.inputs import load_input
from endex.laurent import poly
from endex.twisted import KERNEL_RTOL, MAX_WINDOW, MIN_WINDOW

from conftest import (mat, off_wall_delta, planted_complex, planted_roots, random_torus_subcomplex,
                      reference_cup_product_check)


def test_twisted_dims_circle(circle_complex):
    assert twisted_dims(circle_complex, Fraction(1)).dims == (1, 1)
    assert twisted_dims(circle_complex, Fraction(2)).dims == (0, 0)


def test_twisted_dims_s1s2(s1s2_complex):
    assert twisted_dims(s1s2_complex, Fraction(1)).dims == (1, 1, 1, 1)
    assert twisted_dims(s1s2_complex, Fraction(3)).dims == (0, 0, 0, 0)


def test_twisted_rejects_zero():
    cc = ChainComplexOverLambda([1, 1], [mat([["t - 1"]])])
    with pytest.raises(ZeroDivisionError):
        twisted_dims(cc, Fraction(0))


def test_twisted_numeric_matches_exact(circle_complex):
    for z in (Fraction(1), Fraction(2), Fraction(1, 3)):
        exact = twisted_dims(circle_complex, z).dims
        approx = twisted_dims(circle_complex, complex(float(z), 0.0)).dims
        assert exact == approx


def test_uct_circle(circle_complex):
    h = homology(circle_complex)
    assert uct_dims(h, Fraction(1)) == [1, 1, 0]
    assert uct_dims(h, Fraction(5)) == [0, 0, 0]


def test_uct_fox_at_two():
    h = HomologyModule(
        3, [0, 0, 0, 0],
        [[poly("t - 1")], [poly("t - 2")], [poly("t - 1/2")], [poly("t - 1")]],
    )
    assert uct_dims(h, Fraction(2)) == [0, 1, 1, 0, 0]
    assert uct_dims(h, GaussianRational(1, 1)) == [0, 0, 0, 0, 0]


def test_uct_requires_finite():
    h = HomologyModule(1, [0, 1], [[], []])
    with pytest.raises(NotFiniteError):
        uct_dims(h, Fraction(2))


def test_uct_matches_twisted_on_planted_complexes():
    rng = random.Random(19)
    for _ in range(6):
        cc, expected = planted_complex(rng)
        h = homology(cc)
        zs = [Fraction(r) for r in sorted(planted_roots(expected))]
        while len(zs) < 12:
            kind = rng.random()
            if kind < 0.5:
                zs.append(Fraction(rng.randint(1, 40) * 2 + 1, rng.randint(1, 12) * 2))
            else:
                zs.append(
                    GaussianRational(
                        Fraction(rng.randint(-6, 6)),
                        Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                    )
                )
        for z in zs:
            fiber = twisted_dims(cc, z)
            predicted = uct_dims(h, z)
            assert list(fiber.dims) == predicted[: cc.n + 1]
            assert all(d == 0 for d in predicted[cc.n + 1:])


def test_alternating_sum_is_the_euler_characteristic():
    # Points on and off the roots of the planted and shipped polynomials,
    # exact and floating.
    data = os.path.join(os.path.dirname(__file__), "data")
    complexes = [load_input(os.path.join(data, name)).complex
                 for name in ("circle.json", "circle_trivial.json", "s1s2.json")]
    rng = random.Random(23)
    complexes += [planted_complex(rng, allow_free=True)[0] for _ in range(8)]
    points = [Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(5, 7), GaussianRational(0, 1),
              GaussianRational(1, 2), complex(0.5, 0.25)]
    nonzero = 0
    for cc in complexes:
        chi = cc.euler_characteristic()
        for z in points:
            dims = twisted_dims(cc, z).dims
            assert sum((-1) ** k * d for k, d in enumerate(dims)) == chi
            nonzero += any(dims)
    assert nonzero >= len(complexes)


def test_alternating_sum_constant_in_z(s1s2_complex):
    rng = random.Random(4)
    chi = s1s2_complex.euler_characteristic()
    for _ in range(10):
        z = GaussianRational(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(0, 5)))
        if z.re == 0 and z.im == 0:
            continue
        fiber = twisted_dims(s1s2_complex, z)
        assert sum((-1) ** k * d for k, d in enumerate(fiber.dims)) == chi


def test_fredholm_circle_on_and_off_wall(circle_complex):
    on = fredholm_check(circle_complex, 0.0)
    assert on["fredholm"] is False and on["agree"]
    off = fredholm_check(circle_complex, 0.5)
    assert off["fredholm"] is True and off["agree"]


def test_fredholm_s1s2_at_log2(s1s2_complex):
    rep = fredholm_check(s1s2_complex, math.log(2))
    assert rep["fredholm"] is True and rep["agree"]


def test_fredholm_never_for_free_homology():
    cc = ChainComplexOverLambda([1, 1], [mat([["0"]])])
    rep = fredholm_check(cc, 1.2345)
    assert rep["fredholm"] is False and rep["numeric_fredholm"] is False and rep["agree"]


def test_fredholm_random_weights_agree():
    rng = random.Random(5)
    for _ in range(3):
        cc, _ = planted_complex(rng)
        from endex import alexander_polynomials, exceptional_weights, find_roots

        h = homology(cc)
        alex = alexander_polynomials(h)
        roots = [r for k in range(h.n + 1) for r in find_roots(alex.poly(k), k)]
        ws = exceptional_weights(roots, h.n + 1)
        for _ in range(4):
            d = off_wall_delta(rng, ws, lo=-1.5, hi=1.5, margin=0.05)
            rep = fredholm_check(cc, d)
            assert rep["agree"], rep
            assert rep["fredholm"] is True


def test_l2_analytic_lemma_values():
    assert l2_hom_dim_analytic(2, 1, 1.0, 0.5) == 1
    assert l2_hom_dim_analytic(2, 1, 0.5, 0.1) == 0
    assert l2_hom_dim_analytic(1 + 1j, 2, 1.0, 0.0) == 2
    assert l2_hom_dim_analytic(2, 1, 0.5, 1.0) == 0
    with pytest.raises(OnWallError):
        l2_hom_dim_analytic(1.0, 1, 0.0, -1.0)
    with pytest.raises(ValueError):
        l2_hom_dim_analytic(0.0, 1, 1.0, 0.0)


def test_l2_truncated_examples():
    assert l2_kernel_truncated(2, 1, 1.0, 0.5) == 1
    assert l2_kernel_truncated(2, 1, 0.5, 1.0) == 0
    assert l2_kernel_truncated(1, 1, 0.5, -0.5) == 1


def test_l2_truncated_jordan_block():
    assert l2_kernel_truncated(2, 2, 1.0, 0.5) == 2
    assert l2_kernel_truncated(1 + 1j, 2, 1.0, 0.0) == 2


def _l2_kernel_complex_reference(lam, m, d1, d2, n):
    """The shift-kernel count on the complex operator (shift - lambda)^m at
    half-width n: an independent reference for the phase argument in the
    docstring of `l2_kernel_truncated`, which runs on the real operator for
    |lambda|."""
    size = 2 * n + 1
    stencil = [math.comb(m, i) * (-lam) ** (m - i) for i in range(m + 1)]
    a = np.zeros((size - m, size), dtype=complex)
    for r in range(size - m):
        k = -n + m + r
        for i in range(m + 1):
            a[r, (k - i) + n] = stencil[i]
    idx = np.arange(-n, n + 1, dtype=float)
    delta_of = np.where(idx < 0, d1, np.where(idx > 0, d2, 0.0))
    a *= np.exp(-delta_of * idx)[None, :]
    a /= np.max(np.abs(a), axis=1)[:, None]
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    kernel_rows = [vh[i] for i in range(len(s), size)]
    kernel_rows += [vh[i] for i in range(len(s)) if s[i] < KERNEL_RTOL * s[0]]
    boundary = np.abs(idx) > int(math.floor(0.9 * n))
    count = 0
    for v in kernel_rows:
        mass = np.abs(v) ** 2
        if mass[boundary].sum() / mass.sum() < 1e-3:
            count += 1
    return count


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shape and dtype of every matrix the shift-kernel oracle decomposes."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append((a.shape, a.dtype))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def _needed(lam, d1, d2):
    ln_mod = math.log(abs(complex(lam)))
    return math.ceil(math.log(1 / KERNEL_RTOL) / min(abs(ln_mod - d1), abs(ln_mod - d2))) + 1


def test_l2_truncated_phase_invariant():
    phases = (math.pi / 7, math.pi / 2, 2.0, math.pi, 4.0, 5.5)
    for mod, m, d1, d2 in ((2.0, 2, 1.0, 0.5), (0.5, 1, 1.0, -1.0),
                           (1.5, 3, -0.5, -1.0), (2.0, 1, 0.5, 1.0)):
        at_mod = l2_kernel_truncated(mod, m, d1, d2)
        assert at_mod == l2_hom_dim_analytic(mod, m, d1, d2)
        for theta in phases:
            lam = mod * complex(math.cos(theta), math.sin(theta))
            assert l2_kernel_truncated(lam, m, d1, d2) == at_mod


def test_l2_truncated_matches_complex_operator(svd_shapes):
    # Each draw is compared with the complex reference at the half-width the
    # oracle picked, read off the matrix it decomposed.
    rng = random.Random(4)
    outcomes, windows = set(), []
    for _ in range(20):
        mod = math.exp(rng.uniform(math.log(1 / 3), math.log(3)))
        theta = rng.uniform(0, 2 * math.pi)
        d1, d2 = sorted((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                        reverse=rng.random() < 0.75)
        lam, m = mod * complex(math.cos(theta), math.sin(theta)), rng.randint(1, 3)
        rng.choice((60, 90, 120))  # unused; keeps the twenty seeded cases
        got = l2_kernel_truncated(lam, m, d1, d2)
        (rows, cols), _ = svd_shapes[-1]
        n = (cols - 1) // 2
        assert rows == cols - m and n == max(MIN_WINDOW, _needed(lam, d1, d2))
        assert got == _l2_kernel_complex_reference(lam, m, d1, d2, n), (lam, m, d1, d2)
        outcomes.add(got)
        windows.append(n)
    assert outcomes == {0, 1, 2, 3} and max(windows) > MIN_WINDOW


def test_l2_truncated_runs_real_svd(svd_shapes):
    assert l2_kernel_truncated(1 + 1j, 1, 1.0, 0.0) == 1
    assert svd_shapes == [((2 * MIN_WINDOW, 2 * MIN_WINDOW + 1), np.float64)]


def test_l2_window_is_derived_from_the_gap(svd_shapes):
    # Every point of the standard grid needs at most 92, so it runs at
    # MIN_WINDOW.  With weights (-1, -2), lambda = 0.1313 needs 458 and
    # e^(-1.97) needs 462, where a plain e^(-delta k) column weight
    # (|delta| N > 900) overflows a float.
    inside = math.exp(-1.97)
    assert l2_kernel_truncated(2, 1, 1.0, 0.5) == l2_hom_dim_analytic(2, 1, 1.0, 0.5) == 1
    assert l2_kernel_truncated(0.1313, 2, -1.0, -2.0) == l2_hom_dim_analytic(0.1313, 2, -1.0, -2.0) == 0
    assert l2_kernel_truncated(inside, 2, -1.0, -2.0) == l2_hom_dim_analytic(inside, 2, -1.0, -2.0) == 2
    assert [cols for (_, cols), _ in svd_shapes] == [2 * MIN_WINDOW + 1, 2 * 458 + 1, 2 * 462 + 1]


def test_l2_window_too_small(svd_shapes):
    # ln 2 is within 1e-3 of the first weight: the window would need ~13800.
    with pytest.raises(WindowTooSmallError) as exc:
        l2_kernel_truncated(2, 1, math.log(2) + 1e-3, 0.0)
    assert exc.value.required_n == _needed(2, math.log(2) + 1e-3, 0.0) > MAX_WINDOW
    # The widest window still answers.
    lam = math.exp(-1 - math.log(1 / KERNEL_RTOL) / (MAX_WINDOW - 1.5))
    assert _needed(lam, -1.0, -2.0) == MAX_WINDOW
    assert l2_kernel_truncated(lam, 1, -1.0, -2.0) == l2_hom_dim_analytic(lam, 1, -1.0, -2.0) == 1
    assert [cols for (_, cols), _ in svd_shapes] == [2 * MAX_WINDOW + 1]


def test_l2_weight_circle_rejected():
    with pytest.raises(OnWallError):
        l2_kernel_truncated(1.0, 1, 0.0, -1.0)


def test_window_validation(svd_shapes):
    # Both l2 functions refuse the same points, the oracle before any SVD.
    for fn in (l2_hom_dim_analytic, l2_kernel_truncated):
        with pytest.raises(ValueError, match="multiplicity"):
            fn(2, 0, 1.0, 0.5)
        with pytest.raises(ValueError, match="lambda must be nonzero"):
            fn(0, 1, 1.0, 0.5)
        with pytest.raises(OnWallError):
            fn(math.e, 1, 1.0, 0.5)
    assert svd_shapes == []


def winding_triangle():
    return SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 1})


def test_cup_exact_on_winding_circle():
    rep = cup_product_check(winding_triangle())
    assert rep["exact"] and rep["cohomology_dims"] == [1, 1] and rep["defects"] == [0, 0]


def test_cup_zero_cocycle_defect():
    tri = SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 0})
    rep = cup_product_check(tri)
    assert not rep["exact"] and rep["defects"][0] == 1


def test_cup_disjoint_circles_partial_winding():
    two = SimplicialInput(
        6,
        {1: [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]},
        {(0, 1): 0, (1, 2): 0, (0, 2): 1, (3, 4): 0, (4, 5): 0, (3, 5): 0},
    )
    rep = cup_product_check(two)
    assert not rep["exact"] and rep["defects"] == [1, 1]


def test_cup_rejects_non_simplicial(circle_complex):
    with pytest.raises(UnsupportedInputError):
        cup_product_check(circle_complex)


def test_cup_exactness_implies_finiteness():
    cases = [
        winding_triangle(),
        SimplicialInput(
            6,
            {1: [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]},
            {(0, 1): 0, (1, 2): 0, (0, 2): 1, (3, 4): 0, (4, 5): 0, (3, 5): 2},
        ),
    ]
    for si in cases:
        rep = cup_product_check(si)
        if rep["exact"]:
            h = homology(lift_simplicial(si))
            assert not h.infinite_degrees
    assert cup_product_check(cases[1])["exact"]


def test_cup_check_matches_separate_eliminations():
    """One elimination per coboundary gives the same report as taking each
    rank from its own elimination, exact or not."""
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(12):
        si = random_torus_subcomplex(rng)
        report = cup_product_check(si)
        assert report == reference_cup_product_check(si)
        verdicts.add(report["exact"])
    assert verdicts == {True, False}
