import cmath
import importlib.util
import itertools
import json
import math
import os
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from endex import (
    ChainComplexOverLambda,
    FloatRangeError,
    GaussianRational,
    HomologyModule,
    LaurentMatrix,
    LaurentPoly,
    NotFiniteError,
    OnWallError,
    SimplicialInput,
    SizeBoundError,
    WindowTooSmallError,
    cup_product_check,
    fredholm_check,
    homology,
    l2_hom_dim_analytic,
    l2_kernel_truncated,
    laurent_gcd,
    lift_simplicial,
    squarefree_decomposition,
    twisted_dims,
    uct_dims,
)
from endex.cli import _L2_GRID_POINTS, _L2_GRID_WEIGHTS
from endex.inputs import load_input, parse_document, parse_point
from endex.laurent import poly
from endex.spectral import _WALL_PAD, find_roots
from endex import laurent, twisted
from endex.twisted import _BOUNDARY_MASS, KERNEL_RTOL, MAX_MULT, MAX_WINDOW, MIN_WINDOW

from conftest import (MONODROMIES, analysis_of, dense_band, grid_torus, mapping_torus, mat, off_wall_delta,
                      planted_complex, planted_roots, random_torus_subcomplex, reference_cup_product_check)


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


def test_uct_reduces_a_far_winding_factor_in_little_memory():
    # H0 of the circle winding 10^5 times is Λ/(t^(10^5) - 1).  Testing
    # g | q by long division over Q forms a quotient whose coefficients
    # reach 2^(10^5) at z = 2 (`twisted --z 2` on that circle peaked at
    # 674 MB); q mod g from q's two terms holds one power of t mod g at a
    # time.
    w = 10**5
    h = HomologyModule(1, [0, 0], [[LaurentPoly(0, (-1,) + (0,) * (w - 1) + (1,))], []])
    for z, dims in ((Fraction(2), [0, 0, 0]), (GaussianRational(1, 2), [0, 0, 0]), (Fraction(1), [1, 1, 0]),
                    (GaussianRational(0, 1), [1, 1, 0]), (Fraction(-1), [1, 1, 0])):
        tracemalloc.start()
        try:
            assert uct_dims(h, z) == dims
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, (z, peak)


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
    on = fredholm_check(analysis_of(circle_complex), 0.0)
    assert on["fredholm"] is False and on["agree"]
    off = fredholm_check(analysis_of(circle_complex), 0.5)
    assert off["fredholm"] is True and off["agree"]


def test_fredholm_s1s2_at_log2(s1s2_complex):
    rep = fredholm_check(analysis_of(s1s2_complex), math.log(2))
    assert rep["fredholm"] is True and rep["agree"]


def test_fredholm_never_for_free_homology():
    cc = ChainComplexOverLambda([1, 1], [mat([["0"]])])
    rep = fredholm_check(analysis_of(cc), 1.2345)
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
            rep = fredholm_check(analysis_of(cc), d)
            assert rep["agree"], rep
            assert rep["fredholm"] is True


def _fredholm_matches_interval_of(cc):
    """fredholm_check says Fredholm exactly where interval_of answers: at
    every interval sample, on each wall, and on either side of it, inside
    and outside its padded radius."""
    analysis = analysis_of(cc, 0)
    f = analysis.index
    deltas = list(f.sample_points())
    for w in f.walls:
        reach = w.delta_radius + _WALL_PAD
        deltas += [w.delta, w.delta - reach / 2, w.delta + reach / 2, w.delta - 2 * reach, w.delta + 2 * reach]
    on_wall = 0
    for d in deltas:
        try:
            f.interval_of(d)
            off_wall = True
        except OnWallError:
            off_wall, on_wall = False, on_wall + 1
        assert fredholm_check(analysis, d)["fredholm"] is off_wall, (cc, d)
    return on_wall


@pytest.mark.parametrize("name", ["circle.json", "s1s2.json", "sextic.json"])
def test_fredholm_and_index_share_one_wall_rule_on_shipped_examples(name):
    cc = load_input(os.path.join(os.path.dirname(__file__), "data", name)).complex
    assert _fredholm_matches_interval_of(cc) >= 3


def test_fredholm_and_index_share_one_wall_rule_on_planted_complexes():
    rng = random.Random(1804)
    on_wall = 0
    for _ in range(5):
        cc, _ = planted_complex(rng)
        on_wall += _fredholm_matches_interval_of(cc)
    assert on_wall >= 15


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
    # Off the annulus, the band at N = 200 has two singular values at
    # rounding level; the count reads only the null space and answers.
    assert l2_kernel_truncated(0.5676645275691931, 2, -1.3637264985288267, 1.238313250316121) == 0


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
    _, s, vh = _SVD(a, full_matrices=True)
    kernel_rows = [vh[i] for i in range(len(s), size)]
    kernel_rows += [vh[i] for i in range(len(s)) if s[i] < KERNEL_RTOL * s[0]]
    boundary = np.abs(idx) > int(math.floor(0.9 * n))
    count = 0
    for v in kernel_rows:
        mass = np.abs(v) ** 2
        if mass[boundary].sum() / mass.sum() < _BOUNDARY_MASS:
            count += 1
    return count


# The numpy.linalg routines that hand a matrix to LAPACK.
LAPACK_ROUTINES = ("qr", "svd", "eig", "eigh", "eigvals", "eigvalsh", "cholesky", "solve", "lstsq",
                   "inv", "pinv", "det", "slogdet", "matrix_rank")
# The references' own SVD, held before the factorizations fixture patches
# numpy.linalg.
_SVD = np.linalg.svd


@pytest.fixture
def factorizations(monkeypatch):
    """The bands the shift-kernel oracle builds: (N, m, rows, width) for
    each, N its half-width and rows and width those of the packed band,
    whose entries must all be floats.  Any LAPACK routine of numpy.linalg
    fails the test if it runs, in the first l2 call for each m as in every
    other."""
    seen = []
    build = twisted._shift_band

    def band_spy(ln_mod, m, n, delta1, delta2):
        band = build(ln_mod, m, n, delta1, delta2)
        rows, rest = divmod(len(band), m + 1)
        assert rest == 0 and all(type(x) is float for x in band)
        seen.append((n, m, rows, m + 1))
        return band

    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} ran")
        return spy

    monkeypatch.setattr(twisted, "_shift_band", band_spy)
    for name in LAPACK_ROUTINES:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    return seen


def _bands(factorizations):
    """The (N, m) of each band the oracle built, N its half-width."""
    return [record[:2] for record in factorizations]


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


def test_l2_truncated_matches_complex_operator(factorizations):
    # Each draw is compared with the complex reference at the half-width the
    # oracle picked, read off the band it built.
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
        n = max(MIN_WINDOW, _needed(lam, d1, d2))
        assert _bands(factorizations)[-1] == (n, m)
        assert got == _l2_kernel_complex_reference(lam, m, d1, d2, n), (lam, m, d1, d2)
        outcomes.add(got)
        windows.append(n)
    assert outcomes == {0, 1, 2, 3} and max(windows) > MIN_WINDOW


def test_l2_truncated_factors_a_real_band(factorizations):
    # One real band of m + 1 = 2 diagonals and 2N + 1 - m rows, factored
    # without LAPACK.
    assert l2_kernel_truncated(1 + 1j, 1, 1.0, 0.0) == 1
    assert factorizations == [(MIN_WINDOW, 1, 2 * MIN_WINDOW, 2)]


def test_shift_band_matches_its_array_form():
    # The same stencil, column weights and row balancing on numpy arrays.
    # The log-magnitudes are the same floats; np.exp and math.exp may round
    # differently, by at most one unit in the last place.
    rng = random.Random(26)
    for _ in range(30):
        m, n = rng.randint(1, MAX_MULT), rng.choice((MIN_WINDOW, 458, MAX_WINDOW))
        ln_mod, d1, d2 = rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        sign = np.array([(-1.0) ** c for c in range(m + 1)])
        ln_stencil = np.array([math.log(math.comb(m, c)) + c * ln_mod for c in range(m + 1)])
        idx = np.arange(-n, n + 1, dtype=float)
        ln_weight = np.where(idx < 0, d1, np.where(idx > 0, d2, 0.0)) * idx
        ln_band = ln_stencil - np.lib.stride_tricks.sliding_window_view(ln_weight, m + 1)
        reference = sign * np.exp(ln_band - ln_band.max(axis=1, keepdims=True))
        band = np.reshape(twisted._shift_band(ln_mod, m, n, d1, d2), (-1, m + 1))
        np.testing.assert_allclose(band, reference, rtol=2 * np.finfo(float).eps, atol=1e-300)


def test_l2_window_is_derived_from_the_gap(factorizations):
    # Every point of the standard grid needs at most 92, so it runs at
    # MIN_WINDOW.  With weights (-1, -2), lambda = 0.1313 needs 458 and
    # e^(-1.97) needs 462, where a plain e^(-delta k) column weight
    # (|delta| N > 900) overflows a float.
    inside = math.exp(-1.97)
    assert l2_kernel_truncated(2, 1, 1.0, 0.5) == l2_hom_dim_analytic(2, 1, 1.0, 0.5) == 1
    assert l2_kernel_truncated(0.1313, 2, -1.0, -2.0) == l2_hom_dim_analytic(0.1313, 2, -1.0, -2.0) == 0
    assert l2_kernel_truncated(inside, 2, -1.0, -2.0) == l2_hom_dim_analytic(inside, 2, -1.0, -2.0) == 2
    assert [n for n, _ in _bands(factorizations)] == [MIN_WINDOW, 458, 462]


def test_l2_window_too_small(factorizations):
    # ln 2 is within 1e-3 of the first weight: the window would need ~13800.
    with pytest.raises(WindowTooSmallError) as exc:
        l2_kernel_truncated(2, 1, math.log(2) + 1e-3, 0.0)
    assert exc.value.required_n == _needed(2, math.log(2) + 1e-3, 0.0) > MAX_WINDOW
    # The widest window still answers.
    lam = math.exp(-1 - math.log(1 / KERNEL_RTOL) / (MAX_WINDOW - 1.5))
    assert _needed(lam, -1.0, -2.0) == MAX_WINDOW
    assert l2_kernel_truncated(lam, 1, -1.0, -2.0) == l2_hom_dim_analytic(lam, 1, -1.0, -2.0) == 1
    assert _bands(factorizations) == [(MAX_WINDOW, 1)]


# Weights whose e^delta is not a positive finite float.
OUT_OF_RANGE_WEIGHTS = (800.0, 1e308, -800.0, math.inf, -math.inf, math.nan)


def test_l2_weight_circle_rejected():
    with pytest.raises(OnWallError):
        l2_kernel_truncated(1.0, 1, 0.0, -1.0)


def test_window_validation(factorizations):
    # Both l2 functions refuse the same points, the oracle before any
    # factorization.
    for fn in (l2_hom_dim_analytic, l2_kernel_truncated):
        with pytest.raises(ValueError, match="multiplicity"):
            fn(2, 0, 1.0, 0.5)
        with pytest.raises(ValueError, match="lambda must be nonzero"):
            fn(0, 1, 1.0, 0.5)
        with pytest.raises(OnWallError):
            fn(math.e, 1, 1.0, 0.5)
        for lam in (Fraction(10**400), complex(1.0, math.inf), math.inf, complex(math.nan, 0.0)):
            with pytest.raises(FloatRangeError, match="lambda. is not a finite float"):
                fn(lam, 1, 1.0, 0.5)
        for delta in OUT_OF_RANGE_WEIGHTS:
            for d1, d2 in ((delta, 0.5), (1.0, delta)):
                with pytest.raises(FloatRangeError, match="e\\^delta is not a positive finite float"):
                    fn(2, 1, d1, d2)
    assert factorizations == []


def test_l2_lambda_whose_float_modulus_underflows_is_refused(factorizations):
    # An exact nonzero lambda below the float range is not mistaken for zero.
    for fn in (l2_hom_dim_analytic, l2_kernel_truncated):
        for lam in (Fraction(1, 10**400), GaussianRational(Fraction(1, 10**400), Fraction(-1, 10**401))):
            with pytest.raises(FloatRangeError, match="nonzero but underflows to 0"):
                fn(lam, 1, 1.0, 0.5)
        for lam in (Fraction(0), 0.0, GaussianRational(0, 0)):
            with pytest.raises(ValueError, match="lambda must be nonzero"):
                fn(lam, 1, 1.0, 0.5)
    assert factorizations == []


def test_l2_grid_agrees_up_to_max_mult(factorizations):
    # All 16 grid pairs agree at MAX_MULT; the first pair to disagree does
    # so at MAX_MULT + 1, which is refused before any factorization.
    for lam in _L2_GRID_POINTS:
        for d1, d2 in _L2_GRID_WEIGHTS:
            analytic = l2_hom_dim_analytic(lam, MAX_MULT, d1, d2)
            assert l2_kernel_truncated(lam, MAX_MULT, d1, d2) == analytic, (lam, d1, d2)
    assert len(_bands(factorizations)) == 16
    with pytest.raises(ValueError, match=f"multiplicity {MAX_MULT + 1} is above the cap of {MAX_MULT}"):
        l2_kernel_truncated(Fraction(1, 2), MAX_MULT + 1, -1.0, -2.0)
    with pytest.raises(ValueError, match="above the cap"):
        l2_kernel_truncated(Fraction(1, 2), 1000, 1.0, 0.5)
    assert len(_bands(factorizations)) == 16
    # The analytic count has no cap.
    assert l2_hom_dim_analytic(Fraction(1, 2), MAX_MULT + 1, -0.5, -1.0) == MAX_MULT + 1


def test_l2_every_block_up_to_max_mult_agrees_or_is_refused():
    # Moduli and weights drawn as in test_l2_truncated_matches_complex_operator,
    # ten blocks of each size.  The agreement holds off the standard grid
    # only because the window grows with m: at the window of m <= 3, one
    # draw of m = 5 and one of m = 7 count 0.
    rng = random.Random(18)
    agreed = refused = 0
    for m in range(1, MAX_MULT + 1):
        for _ in range(10):
            mod = math.exp(rng.uniform(math.log(1 / 3), math.log(3)))
            d1, d2 = sorted((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), reverse=rng.random() < 0.75)
            try:
                got = l2_kernel_truncated(mod, m, d1, d2)
            except WindowTooSmallError:
                refused += 1
                continue
            assert got == l2_hom_dim_analytic(mod, m, d1, d2), (mod, m, d1, d2)
            agreed += 1
    assert agreed >= 50 and refused >= 1


def test_l2_seeded_sweep_agrees_in_windows_up_to_max_window(factorizations):
    # 300 blocks that answer, drawn as in
    # test_l2_every_block_up_to_max_mult_agrees_or_is_refused, each counted
    # from its packed band in the window it needs.  In every other draw the
    # nearer weight moves, on its side, to the gap whose window is uniform
    # on [MIN_WINDOW, MAX_WINDOW + 1], so wide windows and refusals occur.
    rng = random.Random(23)
    refused, counts = 0, set()
    while len(_bands(factorizations)) < 300:
        m = rng.randint(1, MAX_MULT)
        ln_mod = rng.uniform(math.log(1 / 3), math.log(3))
        d = sorted((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), reverse=rng.random() < 0.75)
        if rng.random() < 0.5:
            near = min((0, 1), key=lambda i: abs(d[i] - ln_mod))
            reach = max(math.log(1 / KERNEL_RTOL), twisted._DECAY_REACH[m - 1])
            d[near] = ln_mod + math.copysign(reach / rng.uniform(MIN_WINDOW, MAX_WINDOW), d[near] - ln_mod)
        block = (math.exp(ln_mod), m, *d)
        try:
            got = l2_kernel_truncated(*block)
        except WindowTooSmallError:
            refused += 1
            continue
        assert got == l2_hom_dim_analytic(*block), block
        counts.add(got)
    windows = [n for n, _ in _bands(factorizations)]
    assert counts == set(range(MAX_MULT + 1)) and refused >= 1
    assert max(windows) > 0.98 * MAX_WINDOW and sum(n > (MIN_WINDOW + MAX_WINDOW) / 2 for n in windows) >= 50


def test_l2_min_window_keeps_spurious_vectors_out(monkeypatch, factorizations):
    # Seeded draws off the annulus, where the analytic count is 0, at gaps
    # whose derived half-width is below MIN_WINDOW.  At that half-width
    # alone the outer tenth holds one or two entries, and the directions of
    # the m-dimensional null space that vanish on them pass the
    # boundary-mass test: lambda = 0.1555, m = 4, weights (2.42, 0.037) runs
    # at N = 9, where the band has no singular value under 0.34 of its
    # largest, and counts 3.  At MIN_WINDOW every draw agrees.
    monkeypatch.setattr(twisted, "MIN_WINDOW", 1)
    rng = random.Random(19)
    draws, unfloored = [], []
    candidate = (0.1555, 4, 2.42, 0.037)
    while len(draws) < 16:
        try:
            count = l2_kernel_truncated(*candidate)
        except WindowTooSmallError:
            count = None
        n, _ = _bands(factorizations)[-1]
        if count is not None and l2_hom_dim_analytic(*candidate) == 0 and n < MIN_WINDOW:
            draws.append(candidate)
            unfloored.append(count)
        d1, d2 = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
        candidate = (math.exp(rng.uniform(math.log(1 / 8), math.log(8))), rng.randint(1, MAX_MULT), d1, d2)
    assert unfloored[0] == 3 and sum(c > 0 for c in unfloored) >= 2
    monkeypatch.setattr(twisted, "MIN_WINDOW", MIN_WINDOW)
    factorizations.clear()
    for d in draws:
        assert l2_kernel_truncated(*d) == l2_hom_dim_analytic(*d) == 0, d
    assert {n for n, _ in _bands(factorizations)} == {MIN_WINDOW}


def test_l2_window_grows_with_the_block(factorizations):
    # ln 0.35 lies 0.0498 from the first weight.  The m = 1 decay asks for
    # N = 279, where the kernel of a 6-block still holds too much mass in
    # the outer tenth (0 of 6 counted); the 6-block needs 410, a 7-block 462.
    assert l2_kernel_truncated(0.35, 1, -1.0, -2.0) == 1
    assert l2_kernel_truncated(0.35, 6, -1.0, -2.0) == l2_hom_dim_analytic(0.35, 6, -1.0, -2.0) == 6
    assert l2_kernel_truncated(0.35, 7, -1.0, -2.0) == 7
    assert _bands(factorizations) == [(279, 1), (410, 6), (462, 7)]


def _bisected_decay_reach(m):
    """The least gap * N at which every kernel vector of an m-block passes
    the boundary-mass test, bisected to within 1e-3: the kernel is spanned
    by k^j e^(-gap k), j < m, sampled at N = MAX_WINDOW, and the squared
    norm of the outer rows of its orthonormal basis is the worst unit
    vector's outer mass."""
    x = np.arange(MAX_WINDOW + 1) / MAX_WINDOW
    outer = x > 0.9

    def worst(reach):
        q, _ = np.linalg.qr(np.vander(x, m, increasing=True) * np.exp(-reach * x)[:, None])
        return np.linalg.norm(q[outer], 2) ** 2

    lo, hi = 0.0, 64.0
    while hi - lo > 1e-3:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if worst(mid) < _BOUNDARY_MASS else (mid, hi)
    return hi


def test_decay_reach_table_matches_its_bisection():
    # One entry per block size the oracle takes, each within the
    # bisection's step of the bisection run here.
    assert len(twisted._DECAY_REACH) == MAX_MULT
    for m, reach in enumerate(twisted._DECAY_REACH, start=1):
        assert abs(_bisected_decay_reach(m) - reach) <= 1e-3, m


def _svd_kernel(a):
    """The numerical kernel of a by a full SVD, as columns: the null rows of
    V^T, then the rows whose singular value is under KERNEL_RTOL times the
    largest."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return np.vstack([vh[len(s):], vh[:len(s)][s < KERNEL_RTOL * s[0]]]).T


def _decaying(vectors, n):
    """The boundary-mass test of l2_kernel_truncated, vector by vector."""
    mass = vectors ** 2
    boundary = np.abs(np.arange(-n, n + 1)) > math.floor(0.9 * n)
    return int(np.count_nonzero(mass[boundary].sum(axis=0) / mass.sum(axis=0) < _BOUNDARY_MASS))


def _window(lam, m, d1, d2):
    ln_mod = math.log(lam)
    gap = min(abs(ln_mod - d1), abs(ln_mod - d2))
    return max(MIN_WINDOW, math.ceil(max(math.log(1 / KERNEL_RTOL), twisted._DECAY_REACH[m - 1]) / gap) + 1)


def test_l2_null_space_matches_a_full_svd():
    # Seeded blocks whose band has directions under the cutoff: off the
    # annulus with delta2 > delta1 (a cluster at rounding level), and
    # m >= 5 on both sides, some in wide windows.  The oracle's m columns
    # are null to rounding and lie in the full SVD's numerical kernel (every
    # principal angle below 1.5e-6 radians).  Where no singular value is at
    # rounding level they span the SVD's last m right singular vectors; in
    # a cluster at rounding level the SVD cannot tell those from the
    # cluster.  Their per-vector count is the analytic one, which the same
    # test over the SVD's whole numerical kernel also gives: the directions
    # under the cutoff never pass it.
    def cosines(span, columns):
        return np.linalg.svd(span.T @ columns, compute_uv=False)

    rng = random.Random(45)
    wide = low = resolved = 0
    while low < 10:
        m = rng.choice((1, 2, 5, 6, 7))
        lam = math.exp(rng.uniform(math.log(1 / 3), math.log(3)))
        d1, d2 = sorted((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), reverse=rng.random() < 0.5)
        n = _window(lam, m, d1, d2)
        if n > 420:
            continue
        band = twisted._shift_band(math.log(lam), m, n, d1, d2)
        a = dense_band(band, m)
        reference = _svd_kernel(a)
        if reference.shape[1] == m:
            continue
        kernel = np.array(twisted._null_space(band, m)).T
        assert kernel.shape == (2 * n + 1, m), (lam, m, d1, d2)
        assert np.linalg.norm(a @ kernel, 2) < 1e-14, (lam, m, d1, d2)
        assert cosines(reference, kernel).min() > 1 - 1e-12, (lam, m, d1, d2)
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 1e-13 * s[0]:
            assert cosines(reference[:, :m], kernel).min() > 1 - 1e-12, (lam, m, d1, d2)
            resolved += 1
        count = _decaying(kernel, n)
        assert count == l2_hom_dim_analytic(lam, m, d1, d2) == _decaying(reference, n), (lam, m, d1, d2)
        wide += n > MIN_WINDOW and m >= 6
        low += 1
    assert wide >= 2 and 0 < resolved < low


def test_l2_kernel_holds_no_square_factor_of_the_window():
    # At N = 458 the full SVD held a and both singular-vector factors, about
    # three (2N + 1)^2 float arrays (20.2 MB traced), and a dense QR about
    # two.  The packed band, its reflectors and the m kernel vectors hold
    # O(m) floats per window index, at most 32 bytes each as Python floats
    # in a list.
    for lam, m, n in ((0.1313, 2, 458), (0.35, 6, 410)):
        assert _window(lam, m, -1.0, -2.0) == n
        l2_kernel_truncated(lam, m, -1.0, -2.0)
        tracemalloc.start()
        try:
            assert l2_kernel_truncated(lam, m, -1.0, -2.0) == l2_hom_dim_analytic(lam, m, -1.0, -2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * (m + 1) * (2 * n + 1), (m, peak)
    assert 100 * 3 * (2 * 458 + 1) < 0.5e6


def test_l2_standard_grid_runs_no_square_svd_with_vectors(factorizations):
    # The CLI's grid (and the benchmark's l2 requests) at m = 1 and 2.  Every
    # block, lambda = 2 with weights (0.5, 1.0) and its rounding-level
    # cluster too, is counted from its packed band, with no SVD and no other
    # LAPACK factorization.
    for lam in _L2_GRID_POINTS:
        for m in (1, 2):
            for d1, d2 in _L2_GRID_WEIGHTS:
                assert l2_kernel_truncated(lam, m, d1, d2) == l2_hom_dim_analytic(lam, m, d1, d2)
    assert len(_bands(factorizations)) == 32


def test_l2_subspace_count_over_the_numerical_kernel_overcounts():
    # The kernel count that ROADMAP item 13 proposes, measured at the block
    # that made the window grow with m: lambda = 0.35, m = 6, weights
    # (-1, -2), N = 410.  The band has 22 singular values under the cutoff.
    # The per-vector test over the numerical kernel counts 6, the analytic
    # count.  The eigenvalues below _BOUNDARY_MASS of the Gram matrix of the
    # numerical kernel on the outer tenth count 22; over the null space
    # alone, the oracle's, they count 6.
    n, m = 410, 6
    assert _window(0.35, m, -1.0, -2.0) == n
    band = twisted._shift_band(math.log(0.35), m, n, -1.0, -2.0)
    kernel = _svd_kernel(dense_band(band, m))
    assert kernel.shape == (2 * n + 1, 22 + m)
    assert _decaying(kernel, n) == l2_hom_dim_analytic(0.35, m, -1.0, -2.0) == 6
    outer = np.abs(np.arange(-n, n + 1)) > math.floor(0.9 * n)

    def subspace_count(block):
        return int(np.count_nonzero(np.linalg.eigvalsh(block.T @ block) < _BOUNDARY_MASS))

    # The null space is the first m columns.
    assert (subspace_count(kernel[outer]), subspace_count(kernel[outer, :m])) == (22, 6)
    assert subspace_count(np.array(twisted._null_space(band, m)).T[outer]) == 6


def test_fredholm_refuses_weight_without_finite_radius(s1s2_complex, factorizations):
    for delta in OUT_OF_RANGE_WEIGHTS:
        with pytest.raises(FloatRangeError, match="e\\^delta is not a positive finite float"):
            fredholm_check(analysis_of(s1s2_complex), delta)
    assert factorizations == []


def test_l2_stencil_takes_a_modulus_whose_powers_overflow():
    assert l2_kernel_truncated(1e300, 2, 1.0, 0.5) == l2_hom_dim_analytic(1e300, 2, 1.0, 0.5) == 0
    assert l2_kernel_truncated(1e44, MAX_MULT, 102.0, 100.0) == MAX_MULT


def test_float_point_must_be_finite():
    # Only a trailing imaginary unit is rewritten, so the i of "inf" stays.
    for text in ("nan", "nan+1j", "(1e400+0.5j)", "(0.5+1e400j)", "inf", "-inf", "infj", "(inf+0j)", "-infi"):
        with pytest.raises(FloatRangeError, match="not a finite complex number"):
            parse_point(text)
    # Exact points have no float range.
    assert parse_point("1e400") == Fraction(10**400)
    assert parse_point("1e400j") == GaussianRational(0, 10**400)


def test_non_finite_evaluation_refused_naming_the_point():
    # t^6 - 1 at e^150 overflows a float, though e^150 itself does not.
    cc = load_input(os.path.join(os.path.dirname(__file__), "data", "sextic.json")).complex
    with pytest.raises(FloatRangeError, match=r"evaluated at z = \(1\.39\d*e\+65\+0j\)"):
        fredholm_check(analysis_of(cc), 150.0)
    with pytest.raises(FloatRangeError, match="not a finite float"):
        twisted_dims(cc, complex(math.exp(150.0)))
    assert twisted_dims(cc, complex(math.exp(100.0))).dims == (0, 0)


def test_fredholm_refuses_an_overflowing_complex_before_its_homology(monkeypatch):
    import endex.pipeline

    def unreachable(cc):
        raise AssertionError("homology computed before the float samples")

    monkeypatch.setattr(endex.pipeline, "compute_homology", unreachable)
    cc = load_input(os.path.join(os.path.dirname(__file__), "data", "sextic.json")).complex
    with pytest.raises(FloatRangeError, match="not a finite float"):
        fredholm_check(analysis_of(cc), 150.0)
    with pytest.raises(AssertionError, match="before the float samples"):
        fredholm_check(analysis_of(cc), 0.5)


def _twisted_matches_uct(cc, h, z):
    """twisted_dims at z against the coefficient splitting, degree by degree."""
    predicted = uct_dims(h, z)
    assert twisted_dims(cc, z).dims == tuple(predicted[: cc.n + 1]), z
    assert predicted[cc.n + 1] == 0


def _rational_roots(cc):
    alex = analysis_of(cc).alexander
    return sorted({r.exact for k in range(cc.n) for r in find_roots(alex.poly(k), k) if r.exact is not None})


@pytest.mark.parametrize("name", ["circle.json", "s1s2.json", "sextic.json"])
def test_twisted_matches_uct_at_the_rational_roots_of_shipped_examples(name):
    cc = load_input(os.path.join(os.path.dirname(__file__), "data", name)).complex
    roots = _rational_roots(cc)
    assert roots == ([-1, 1] if name == "sextic.json" else [1])
    for z in roots:
        _twisted_matches_uct(cc, homology(cc), z)


def test_twisted_matches_uct_at_the_rational_roots_of_planted_complexes():
    rng = random.Random(1403)
    checked = 0
    for _ in range(12):
        cc, expected = planted_complex(rng)
        roots = _rational_roots(cc)
        assert set(roots) == planted_roots(expected)
        for z in roots:
            _twisted_matches_uct(cc, homology(cc), z)
            checked += 1
    assert checked >= 12


def test_twisted_at_one_on_the_20x20_grid_torus():
    # H0 = H1 = Λ/(t - 1) and H2 = 0 (conftest.grid_torus), which the
    # Smith normal form cannot reach at this size; the sparse eliminator
    # takes the 400 x 1200 and 1200 x 800 boundaries at z = 1.
    cc = lift_simplicial(grid_torus(20))
    t_minus_1 = poly("t - 1")
    known = HomologyModule(2, [0, 0, 0], [[t_minus_1], [t_minus_1], []])
    assert twisted_dims(cc, Fraction(1)).dims == (1, 2, 1)
    _twisted_matches_uct(cc, known, Fraction(1))


def test_float_ranks_on_the_20x20_grid_torus():
    # The complete-pivoting ranks at float points, on the same 400 x 1200
    # and 1200 x 800 boundaries: the exact dimensions at 1.0, and none at
    # points that are not the root of t - 1.
    cc = lift_simplicial(grid_torus(20))
    assert twisted_dims(cc, 1.0).dims == (1, 2, 1)
    for z in (-1.0, 0.7 + 0.1j, cmath.exp(0.5 + 3j * math.pi / 8)):
        assert twisted_dims(cc, z).dims == (0, 0, 0)


def _dims_mod(cc, g):
    """dim_Q H_k(C ⊗ Λ/(g)) for k = 0..n, from the ranks over Λ/(g)."""
    ranks = [cc.boundary(k).rank_mod(g) for k in range(cc.n + 2)]
    return [g.span * cc.ranks[k] - ranks[k] - ranks[k + 1] for k in range(cc.n + 1)]


def test_ranks_over_quotients_match_the_universal_coefficients():
    # Milnor's universal coefficients over the PID Λ:
    # H_k(C ⊗ Λ/(g)) = H_k ⊗ Λ/(g) ⊕ Tor(H_(k-1), Λ/(g)), and both Λ/(q) ⊗ Λ/(g)
    # and Tor(Λ/(q), Λ/(g)) are Λ/(gcd(q, g)).  So the dimension is
    # deg g free_k + Σ_(q in F_k) deg gcd(q, g) + Σ_(q in F_(k-1)) deg gcd(q, g),
    # F_k being the invariant factors of H_k: planted ones, and the Smith
    # normal form's on the shipped complexes and the seeded mapping tori.
    # On the tori, whose square-free factors reach degree 10, only f itself
    # is taken: the cubes of the degree-10 factors cost over a minute.
    rng = random.Random(2201)
    cases = []
    for draw in range(40):
        cc, expected = planted_complex(rng, allow_free=draw % 2 == 0)
        frees, factors = zip(*(expected[k] for k in range(cc.n + 1)))
        cases.append((cc, frees, factors, (1, 2, 3)))
    data = os.path.join(os.path.dirname(__file__), "data")
    computed = [(load_input(os.path.join(data, name)).complex, (1, 2, 3))
                for name in ("circle.json", "circle_trivial.json", "s1s2.json", "sextic.json")]
    computed += [(parse_document(mapping_torus(a)).complex, (1,)) for a in MONODROMIES]
    for cc, powers in computed:
        h = homology(cc)
        cases.append((cc, list(h.free_ranks), [h.invariant_factors(k) for k in range(cc.n + 1)], powers))
    pairs, with_free, with_gcd = 0, 0, 0
    for cc, frees, factors, powers in cases:
        moduli = {poly("t - 1"), poly("t^2 - 2*t + 1"), poly("t^2 + 1")}
        squarefree = {f for qs in factors for q in qs for f, _ in squarefree_decomposition(q)}
        moduli |= {f ** r for f in squarefree for r in powers}
        for g in moduli:
            shared = [sum(laurent_gcd(q, g).span for q in qs) for qs in factors]
            want = [g.span * frees[k] + shared[k] + (shared[k - 1] if k else 0) for k in range(cc.n + 1)]
            assert _dims_mod(cc, g) == want, (cc, g)
            pairs += 1
            with_gcd += any(shared)
        with_free += any(frees)
    assert pairs >= 350 and with_free >= 10 and with_gcd >= 200


@pytest.mark.parametrize("w", [10**3, 10**5])
def test_exact_ranks_on_a_far_winding_circle_take_log_w_products(monkeypatch, w):
    # The circle winding w times has H0 = Λ/(t^w - 1), so its fibers are
    # nonzero at z exactly when z^w = 1.  Its boundary holds t^w, which
    # each of the four ranks below reduces mod g by repeated squaring.
    edges = {(0, 1): 0, (1, 2): 0, (0, 2): w}
    circle = lift_simplicial(SimplicialInput(3, {1: sorted(edges)}, edges))
    products = []
    times = laurent.QuotientRing.times
    monkeypatch.setattr(laurent.QuotientRing, "times", lambda ring, *args: products.append(args) or times(ring, *args))
    assert twisted_dims(circle, GaussianRational(1, 2)).dims == (0, 0)
    assert twisted_dims(circle, GaussianRational(0, 1)).dims == (1, 1)
    rep = cup_product_check(circle)
    assert rep["exact"] and rep["cohomology_dims"] == [1, 1]
    assert len(products) <= 8 * w.bit_length() + 24
    # The same circle as one direct boundary [t^w - 1]: its two terms are
    # reduced once, so no product runs over the w + 1 coefficients between.
    products.clear()
    direct = ChainComplexOverLambda([1, 1], [LaurentMatrix(1, 1, {(0, 0): LaurentPoly(0, (-1,) + (0,) * (w - 1) + (1,))})])
    assert twisted_dims(direct, GaussianRational(0, 1)).dims == (1, 1)
    assert twisted_dims(direct, GaussianRational(1, 2)).dims == (0, 0)
    assert len(products) <= 8 * w.bit_length() + 24
    assert sum(len(coeffs) for _, coeffs in products) <= 2 * (8 * w.bit_length() + 24)


def test_exact_ranks_at_roots_of_unity_take_a_cocycle_of_any_size():
    # Modulo t + 1, t^2 + 1, t - 1 and (t - 1)^2 the powers of t stay small,
    # so w = 2^1200 costs about 1200 squarings each, in a loop: no call
    # stack grows with the bit length of w.
    edges = {(0, 1): 0, (1, 2): 0, (0, 2): 2**1200}
    circle = lift_simplicial(SimplicialInput(3, {1: sorted(edges)}, edges))
    assert twisted_dims(circle, Fraction(-1)).dims == (1, 1)
    assert twisted_dims(circle, GaussianRational(0, 1)).dims == (1, 1)
    assert cup_product_check(circle)["exact"]


def test_an_exact_power_above_the_bit_budget_is_refused():
    # Off the unit circle t^w mod g has coefficients of about w log2|z|
    # bits: at w = 10^10 each exact rank would run for hours.  Repeated
    # squaring stops before the first square whose operand is above half
    # the budget, in about a second at 1+2i.
    edges = {(0, 1): 0, (1, 2): 0, (0, 2): 10**10}
    circle = lift_simplicial(SimplicialInput(3, {1: sorted(edges)}, edges))
    for z, g in ((Fraction(2), "t - 2"), (Fraction(1, 2), "t - 1/2"), (GaussianRational(1, 2), "t^2 - 2*t + 5")):
        start = time.process_time()
        with pytest.raises(SizeBoundError, match=rf"^reduction mod {re.escape(g)}: t\^10000000000 has a "
                                                 rf"coefficient above the budget of {laurent.MAX_POWER_BITS} bits$"):
            twisted_dims(circle, z)
        assert time.process_time() - start < 3
    for z in (Fraction(1), Fraction(-1), GaussianRational(0, 1)):
        assert twisted_dims(circle, z).dims == (1, 1)


def test_the_bit_budget_is_checked_on_the_operand_of_each_square(monkeypatch):
    # Mod t - 2, t^(2^j) = 2^(2^j) has 2^j + 2 bits (numerator plus the
    # denominator 1).  At a budget of 66 bits the last square of t^64 would
    # have 66 bits, but its operand t^32 has 34 > 66 // 2, so it is refused.
    monkeypatch.setattr(laurent, "MAX_POWER_BITS", 66)
    ring = laurent.QuotientRing(poly("t - 2"))
    assert ring.residue(poly("t^33")) == [2**33]
    with pytest.raises(SizeBoundError, match=r"^reduction mod t - 2: t\^64 has a coefficient above the budget of 66 bits$"):
        ring.residue(poly("t^64"))


def winding_triangle():
    return SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 1})


def test_cup_exact_on_winding_circle():
    rep = cup_product_check(lift_simplicial(winding_triangle()))
    assert rep["exact"] and rep["cohomology_dims"] == [1, 1] and rep["defects"] == [0, 0]


def test_cup_zero_cocycle_defect():
    tri = SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 0})
    rep = cup_product_check(lift_simplicial(tri))
    assert not rep["exact"] and rep["defects"][0] == 1


def test_cup_disjoint_circles_partial_winding():
    two = SimplicialInput(
        6,
        {1: [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]},
        {(0, 1): 0, (1, 2): 0, (0, 2): 1, (3, 4): 0, (4, 5): 0, (3, 5): 0},
    )
    rep = cup_product_check(lift_simplicial(two))
    assert not rep["exact"] and rep["defects"] == [1, 1]


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
        rep = cup_product_check(lift_simplicial(si))
        if rep["exact"]:
            h = homology(lift_simplicial(si))
            assert not h.infinite_degrees
    assert cup_product_check(lift_simplicial(cases[1]))["exact"]


def test_cup_check_matches_separate_eliminations():
    """One elimination per coboundary gives the same report as taking each
    rank from its own elimination, exact or not."""
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(12):
        si = random_torus_subcomplex(rng)
        report = cup_product_check(lift_simplicial(si))
        assert report == reference_cup_product_check(si)
        verdicts.add(report["exact"])
    assert verdicts == {True, False}


def _perfbench_gen(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("perfbench_gen", os.path.join(root, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


def test_cup_check_matches_the_reference_on_known_spaces(monkeypatch):
    """The rank route against the front-face reference on the shipped
    circles, grid tori and staircase products S^1 x K, whose cup report
    the benchmark generator derives from the Kunneth formula."""
    data = os.path.join(os.path.dirname(__file__), "data")
    spaces = []
    for name in ("circle.json", "circle_trivial.json"):
        with open(os.path.join(data, name), encoding="utf-8") as fh:
            spaces.append(SimplicialInput.from_json(json.load(fh)))
    spaces += [grid_torus(k) for k in (3, 4)]
    for si in spaces:
        assert cup_product_check(lift_simplicial(si)) == reference_cup_product_check(si)
    gen = _perfbench_gen(monkeypatch)
    sphere = list(itertools.combinations(range(4), 3))
    products = [gen.circle_product(gen.CIRCLE, 3, [1, 1], edge, sign) for edge in range(3) for sign in (1, -1)]
    products += [gen.circle_product(sphere, 4, [1, 0, 1], 1, -1), gen.grid_torus(3, 4, 1, 1)]
    for doc, answer in products:
        si = SimplicialInput.from_json(doc)
        assert cup_product_check(lift_simplicial(si)) == reference_cup_product_check(si) == answer.cup
