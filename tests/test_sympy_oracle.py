"""sympy as an independent exact oracle, in the tests only.

The torsion of each H_k, read off endex's Smith normal forms over Λ, is
checked against sympy's invariant factors of the boundary d_(k+1) over
Q[t]: ker d_k is a direct summand of C_k (its quotient embeds in the free
C_(k-1) over a PID), so the torsion of H_k is the torsion of the cokernel
of d_(k+1).  The rational-root search of ``endex.laurent`` is checked
against sympy's ``Poly.ground_roots``.  endex itself never imports sympy.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import invariant_factors  # noqa: E402

import endex  # noqa: E402
from endex import LaurentMatrix, LaurentPoly, canonicalize, homology, lift_simplicial  # noqa: E402
from endex.laurent import rational_roots  # noqa: E402

from conftest import from_roots, grid_torus, planted_complex  # noqa: E402

T = sympy.Symbol("t")
CLIFF = LaurentPoly(0, (720720, 0, 0, 1, 0, 720720))


def _expr(p: LaurentPoly, shift: int):
    """p times t^shift as a sympy expression, for a shift that leaves no
    negative exponent."""
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * T ** (p.low + shift + i)
                       for i, c in enumerate(p.coeffs)))


def _sympy_torsion(m: LaurentMatrix) -> list:
    """The non-unit invariant factors of m over Λ, as ascending coefficient
    runs, from sympy's over Q[t] of m times a power of t: each factor with
    its power of t divided out and made monic, the constants dropped."""
    if not m.nonzeros:
        return []
    shift = -min(e.low for e in m.nonzeros.values())
    grid = sympy.Matrix(m.rows, m.cols, lambda i, j: _expr(m[i, j], shift))
    out = []
    for f in invariant_factors(grid, domain=sympy.QQ[T]):
        if f == 0:
            continue
        coeffs = [Fraction(str(c)) for c in reversed(sympy.Poly(f, T, domain=sympy.QQ).all_coeffs())]
        while coeffs[0] == 0:
            coeffs.pop(0)
        if len(coeffs) > 1:
            out.append([c / coeffs[-1] for c in coeffs])
    return out


def _torsion_matches_sympy(cc) -> int:
    """Check every degree; the count of non-unit factors seen."""
    h = homology(cc)
    seen = 0
    for k in range(cc.n + 1):
        want = _sympy_torsion(cc.boundary(k + 1))
        assert [list(q.coeffs) for q in h.invariant_factors(k)] == want, (cc, k)
        seen += len(want)
    return seen


def test_torsion_matches_sympy_on_planted_complexes():
    rng = random.Random(3101)
    seen = 0
    for draw in range(30):
        cc, _ = planted_complex(rng, allow_free=draw % 2 == 0)
        seen += _torsion_matches_sympy(cc)
    assert seen >= 30


@pytest.mark.parametrize("k", [3, 4])
def test_torsion_matches_sympy_on_grid_tori(k):
    # H0 = H1 = Λ/(t - 1): one factor t - 1 in degrees 0 and 1.
    assert _torsion_matches_sympy(lift_simplicial(grid_torus(k))) == 2


def _ground_roots(f: LaurentPoly) -> list:
    roots = sympy.Poly(_expr(f, -f.low), T).ground_roots()
    assert all(m == 1 for m in roots.values())
    return sorted(Fraction(str(r)) for r in roots)


def _search_draws() -> list:
    """Square-free canonical products of linear factors q t - p and a
    cofactor whose end coefficients are highly composite, with end
    coefficients at most 10^12 on the primitive integer associate; the
    cliff 720720 t^5 + t^3 + 720720, and t - 10^12 at the search's cap."""
    rng = random.Random(3102)
    draws = [canonicalize(CLIFF), LaurentPoly(0, (-10**12, 1)), canonicalize(CLIFF * LaurentPoly(0, (-1, 2)))]
    while len(draws) < 40:
        middle = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        f = LaurentPoly(0, (rng.choice((360, -720, 2520, 5040)), *middle, rng.choice((60, 360, 720))))
        for _ in range(rng.randint(0, 3)):
            f = f * LaurentPoly(0, (rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4)))
        expr = _expr(f, -f.low)
        ends = sympy.Poly(expr, T).primitive()[1].all_coeffs()
        if sympy.degree(sympy.gcd(expr, sympy.diff(expr, T)), T) == 0 and max(abs(ends[0]), abs(ends[-1])) <= 10**12:
            draws.append(canonicalize(f))
    return draws


def test_rational_roots_match_sympy_ground_roots():
    found = 0
    for f in _search_draws():
        roots, rest = rational_roots(f)
        assert sorted(roots) == _ground_roots(f), f
        assert _ground_roots(rest) == [] and canonicalize(rest * from_roots(roots)) == f, f
        found += len(roots)
    assert found >= 40


def test_endex_loads_no_sympy():
    src = os.path.dirname(os.path.dirname(endex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, endex.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
