"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute.  Every check here is exact integer/symbol equality; the only
tolerances are the stated runtime budgets.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from endex import (
    AlexanderData,
    ChainComplexOverLambda,
    GaussianRational,
    LaurentMatrix,
    OnWallError,
    SimplicialInput,
    WeightedWindow,
    alexander_polynomials,
    duality_check,
    exceptional_weights,
    excision_index,
    find_roots,
    homology,
    index_at,
    index_function,
    l2_hom_dim_analytic,
    l2_kernel_truncated,
    lift_simplicial,
    smith_normal_form,
    twisted_dims,
    uct_dims,
)
from endex.indexfn import _closed_values
from endex.laurent import poly

from conftest import (
    accumulated_values,
    annulus_count,
    determinant,
    free_rank,
    mat,
    off_wall_delta,
    planted_complex,
    planted_roots,
    random_alexander,
    random_matrix,
    rank_ff,
)


def _report(num, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {label}{(' ' + extra) if extra else ''}")
    assert ok, f"criterion {num}: {label}"


def _walls(alex, n):
    roots = [r for k in range(n) for r in find_roots(alex.poly(k), k)]
    return exceptional_weights(roots, n)


def test_criterion_1_fox_reproduction():
    t0 = time.perf_counter()
    alex = AlexanderData(4, [poly("t - 1"), poly("t - 2"), poly("t - 1/2"), poly("t - 1")])
    ws = _walls(alex, 4)
    ok = [w.exact_modulus for w in ws] == [Fraction(1, 2), Fraction(1), Fraction(2)]
    ok = ok and [w.delta_exact for w in ws] == ["ln(1/2)", "ln(1)", "ln(2)"]
    f = index_function(4, 2, ws)
    ok = ok and list(f.values) == [2, 1, 1, 2]
    for d, want in ((0.5, 1), (-0.5, 1), (1.0, 2), (-1.0, 2)):
        ok = ok and index_at(f, d) == want
    try:
        index_at(f, math.log(2))
        ok = False
    except OnWallError:
        pass
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "Fox 2-knot reproduction", ok, f"({elapsed:.3f}s)")


def test_criterion_2_product_end_reproduction():
    t0 = time.perf_counter()
    cc = ChainComplexOverLambda(
        [1, 1, 1, 1], [mat([["t - 1"]]), mat([["0"]]), mat([["t - 1"]])]
    )
    alex = alexander_polynomials(homology(cc), 3)
    ok = alex.poly(0) == poly("t - 1") and alex.poly(2) == poly("t - 1")
    ok = ok and alex.poly(1) == poly("1") and alex.poly(3) == poly("1")
    ws = _walls(alex, 3)
    ok = ok and len(ws) == 1 and ws[0].delta == 0.0
    ok = ok and ws[0].exact_modulus == 1
    f = index_function(3, 1, ws)
    ok = ok and list(f.values) == [1, -1]
    for d in (0.25, 1.0, 2.5):
        want_pos = -1  # sign(-d) * chi for d > 0
        want_neg = 1
        ok = ok and index_at(f, d) == want_pos and index_at(f, -d) == want_neg
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, "product-end reproduction", ok, f"({elapsed:.3f}s)")


def test_criterion_3_simplicial_ingestion():
    tri = SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 1})
    h = homology(lift_simplicial(tri))
    ok = h.invariant_factors(0) == [poly("t - 1")]
    ok = ok and all(free_rank(h, k) == 0 for k in range(h.n + 1))
    alex = alexander_polynomials(h)
    ok = ok and alex.poly(0) == poly("t - 1")
    tri0 = SimplicialInput(3, {1: [(0, 1), (1, 2), (0, 2)]}, {(0, 1): 0, (1, 2): 0, (0, 2): 0})
    infinite = homology(lift_simplicial(tri0)).infinite_degrees
    ok = ok and infinite == (0, 1)
    _report(3, "simplicial ingestion", ok)


def test_criterion_4_snf_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    failures = 0
    for _ in range(50):
        m = random_matrix(rng, max_size=5, max_span=3)
        s = smith_normal_form(m)
        good = s.left * m * s.right == s.diagonal_matrix(m.rows, m.cols)
        good = good and all(
            s.diag[i].divides(s.diag[i + 1]) for i in range(len(s.diag) - 1)
        )
        if m.rows:
            good = good and determinant(s.left).is_unit()
        if m.cols:
            good = good and determinant(s.right).is_unit()
        good = good and rank_ff(m) == s.rank
        failures += 0 if good else 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(4, "SNF property suite (50 matrices)", ok, f"({elapsed:.2f}s, {failures} failures)")


def test_criterion_5_uct_crosscheck():
    rng = random.Random(515)
    ok = True
    for _ in range(10):
        cc, expected = planted_complex(rng)
        h = homology(cc)
        zs = [Fraction(r) for r in sorted(planted_roots(expected))]
        while len(zs) < 20:
            if rng.random() < 0.5:
                zs.append(Fraction(rng.randint(1, 60) * 2 + 1, rng.randint(1, 15) * 2))
            else:
                zs.append(
                    GaussianRational(
                        Fraction(rng.randint(-8, 8)),
                        Fraction(rng.randint(1, 8), rng.randint(1, 5)),
                    )
                )
        for z in zs:
            fiber = twisted_dims(cc, z)
            predicted = uct_dims(h, z)
            ok = ok and list(fiber.dims) == predicted[: cc.n + 1]
            ok = ok and all(d == 0 for d in predicted[cc.n + 1:])
    _report(5, "coefficient-splitting crosscheck (10 complexes x 20 points)", ok)


def test_criterion_6_l2_lemma_oracle():
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2), 1 + 1j):
        lamc = complex(lam)
        for m in (1, 2):
            for d1, d2 in ((1.0, 0.5), (0.5, 1.0), (1.0, -1.0), (-1.0, -2.0)):
                analytic = l2_hom_dim_analytic(lamc, m, d1, d2)
                truncated = l2_kernel_truncated(WeightedWindow(lamc, m, d1, d2, 200))
                ok = ok and analytic == truncated
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = ok and cases == 32 and elapsed < 30.0
    _report(6, "weighted shift kernel oracle grid (32 cases)", ok, f"({elapsed:.2f}s)")


def test_criterion_7_duality_and_parity():
    alex = AlexanderData(4, [poly("t - 1"), poly("t - 2"), poly("t - 1/2"), poly("t - 1")])
    ws = _walls(alex, 4)
    f = index_function(4, 2, ws)
    rep = duality_check(alex, f)
    ok = rep["ok"] and len(rep["parity"]["samples"]) == 10
    ok = ok and all(s["ind_neg"] == s["ind_pos"] for s in rep["parity"]["samples"])
    cc = ChainComplexOverLambda(
        [1, 1, 1, 1], [mat([["t - 1"]]), mat([["0"]]), mat([["t - 1"]])]
    )
    alex2 = alexander_polynomials(homology(cc), 3)
    ws2 = _walls(alex2, 3)
    f2 = index_function(3, 1, ws2)
    rep2 = duality_check(alex2, f2)
    ok = ok and rep2["ok"]
    ok = ok and all(s["ind_neg"] == -s["ind_pos"] for s in rep2["parity"]["samples"])
    _report(7, "reversal duality and index parity", ok)


def test_criterion_8_excision_consistency():
    rng = random.Random(88)
    fox = AlexanderData(4, [poly("t - 1"), poly("t - 2"), poly("t - 1/2"), poly("t - 1")])
    fox_index = index_function(4, 2, _walls(fox, 4))
    ok = excision_index(1.0, 0.5, fox_index) == -1
    ok = ok and excision_index(0.31, 0.31, fox_index) == 0
    pairs = 0
    while pairs < 100:
        alex, chi = random_alexander(rng)
        ws = _walls(alex, alex.n)
        f = index_function(alex.n, chi, ws)
        for _ in range(4):
            d1 = off_wall_delta(rng, ws)
            d2 = off_wall_delta(rng, ws)
            ok = ok and excision_index(d1, d2, f) == annulus_count(f, d1, d2)
            ok = ok and excision_index(d1, d1, f) == 0
            pairs += 1
    _report(8, "excision consistency (Fox + 100 random pairs)", ok)


def test_criterion_9_closed_vs_jump_accumulation():
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        alex, chi = random_alexander(rng, max_n=5, max_deg=4)
        ws = _walls(alex, alex.n)
        closed = _closed_values(alex.n, chi, ws)
        accumulated = accumulated_values(alex.n, chi, ws)
        ok = ok and closed == accumulated
        ok = ok and closed[-1] == (-1) ** alex.n * chi
    _report(9, "closed formula vs jump accumulation (100 instances)", ok)
