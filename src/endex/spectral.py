"""Roots of the characteristic polynomials and the exceptional weight set.

Multiplicities are always exact, coming from the square-free decomposition;
floating point enters only to locate the roots of each square-free factor.
Rational roots are pulled out exactly first (they are what the worked
examples produce), the rest go to a simultaneous Aberth-Ehrlich iteration
with a deterministic start, and every approximate root carries an
a-posteriori error radius.

Weights are walls at ln|root|: `exceptional_weights` returns a tuple of
`Wall`s sorted by weight, each holding the `RootDatum`s that sit on it.
Two roots whose modulus intervals overlap are merged into one wall when
their exact modulus squares are equal or, when either has none, when they
are roots of one and the same square-free factor.  That second rule does
not prove the moduli equal: it merges the moduli 1 and sqrt(1 + 1e-13) of
(t^2 + 1)(t^2 + t + 1 + 1e-13) (ROADMAP item 3).  Overlapping moduli that
pass neither rule raise AmbiguousWallError instead of being merged
silently.  `wall_at` tests a weight against the walls, for the index and
the Fredholm verdict alike.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousWallError, CertificationError, FloatRangeError
from .laurent import (LaurentPoly, _exact_quo, _horner, _int_coeffs, _primitive, canonicalize,
                      squarefree_decomposition)

RESIDUAL_RTOL = 1e-12
# Largest degree span find_roots accepts.  Each Aberth sweep costs O(d^2),
# and the span can grow like cells x max|cocycle|; the README states what
# a polynomial at the cap costs.
MAX_DEGREE = 256
ABERTH_MAX_SWEEPS = 500
# Constant c of the Horner rounding bound c * d * eps * sum |c_i| |z|^i.
HORNER_SLACK = 4
_WALL_PAD = 1e-12


@dataclass(frozen=True)
class RootDatum:
    """One root of a characteristic polynomial, with provenance."""

    approx: complex
    multiplicity: int
    degree_k: int
    squarefree_factor: LaurentPoly
    radius: float = 0.0
    exact: Fraction | None = None
    exact_modulus_sq: Fraction | None = None

    @property
    def modulus(self) -> float:
        if self.exact_modulus_sq is not None:
            return math.sqrt(float(self.exact_modulus_sq))
        return abs(self.approx)


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _sign_changes(a) -> int:
    """Sign changes in a coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in a if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _rational_roots(f: LaurentPoly):
    """Exact rational roots of a square-free canonical factor, with the
    deflated remainder (which then has no rational roots).

    Runs on the primitive integer associate g: a root p/q in lowest terms
    has p dividing g's constant term and q its leading one, and q*t - p is
    a primitive divisor of g, so each deflation is an exact integer one.

    Each round tries the candidates p/q, then -p/q, for p and q ascending,
    and deflates the first root it meets.  By Descartes' rule of signs, g
    has no positive root when its coefficients show no sign change, and
    no negative root when those of g(-t) show none; the round then skips
    the candidates of that sign, and with neither sign left the search
    ends.  A skipped candidate is never a root, so
    every round meets the same first root as the full scan, and the roots
    come out in the same order."""
    g = _int_coeffs(f)
    roots = []
    while len(g) > 1:
        if abs(g[0]) > 10**12 or abs(g[-1]) > 10**12:
            break
        g_neg = [-c if i % 2 else c for i, c in enumerate(g)]
        signs = [s for s, a in ((1, g), (-1, g_neg)) if _sign_changes(a)]
        if not signs:
            break
        value_at = LaurentPoly(0, g).evaluate
        found = None
        qs = _divisors(g[-1])
        for p in _divisors(g[0]):
            for q in qs:
                if math.gcd(p, q) != 1:
                    continue
                for s in signs:
                    r = Fraction(s * p, q)
                    if value_at(r) == 0:
                        found = r
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        g = _primitive(_exact_quo(g, [-found.numerator, found.denominator]))
    return roots, LaurentPoly(0, g)


def _aberth(coeffs):
    """All complex roots of a square-free polynomial (ascending float
    coefficients).  Deterministic start: circle of Cauchy-bound radius with
    a fixed angular offset.

    A sweep updates every root once.  The iteration stops after a sweep in
    which every residual |p(z)| was below RESIDUAL_RTOL * 0.1 * max|c|, or
    below the rounding error of Horner's rule at z,
    HORNER_SLACK * d * eps * sum |c_i| |z|^i.  At high degree near |z| = 1
    floating point cannot meet the first target, as on (t^200 - 1)/(t^2 - 1);
    it can meet the second.  It ends anyway after ABERTH_MAX_SWEEPS sweeps."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    scale = max(abs(c) for c in coeffs)
    target = RESIDUAL_RTOL * scale * 0.1
    if d == 1:
        return [-coeffs[0] / coeffs[1]]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    roots = [radius * cmath.exp(2j * math.pi * (k + 0.25) / d) for k in range(d)]
    deriv = [coeffs[i] * i for i in range(1, d + 1)]
    abs_coeffs = [abs(c) for c in coeffs]
    rounding = HORNER_SLACK * d * sys.float_info.epsilon
    for _ in range(ABERTH_MAX_SWEEPS):
        worst = 0.0
        settled = True
        for i in range(d):
            z = roots[i]
            pv = _horner(coeffs, z)
            worst = max(worst, abs(pv))
            if pv == 0:
                continue
            settled = settled and abs(pv) <= rounding * _horner(abs_coeffs, abs(z)).real
            dv = _horner(deriv, z)
            ratio = pv / dv if dv != 0 else pv
            s = sum(1.0 / (z - roots[j]) for j in range(d) if j != i)
            denom = 1.0 - ratio * s
            step = ratio / denom if denom != 0 else ratio
            roots[i] = z - step
        if worst <= target or settled:
            break
    return roots


def find_roots(a: LaurentPoly, degree_k: int) -> list[RootDatum]:
    """All roots of a characteristic polynomial, with exact multiplicities.

    Returns one datum per distinct root; the sum of multiplicities equals
    the degree span.  Constant polynomials give [].  A span above
    MAX_DEGREE raises ValueError before any work is done, and a factor
    with a coefficient beyond float range raises FloatRangeError before
    the float root finder starts on it.  A root that comes out of the root
    finder not finite, a power of an iterate having overflowed, raises
    FloatRangeError too.
    """
    a = canonicalize(a)
    if a.span > MAX_DEGREE:
        raise ValueError(f"the degree-{degree_k} characteristic polynomial has degree {a.span}, "
                         f"above the cap of {MAX_DEGREE}")
    out: list[RootDatum] = []
    for factor, mult in squarefree_decomposition(a):
        rational, rest = _rational_roots(factor)
        for r in rational:
            out.append(
                RootDatum(
                    approx=complex(float(r), 0.0),
                    multiplicity=mult,
                    degree_k=degree_k,
                    squarefree_factor=factor,
                    radius=0.0,
                    exact=r,
                    exact_modulus_sq=r * r,
                )
            )
        if rest.span >= 1:
            try:
                coeffs = [float(c) for c in rest.coeffs]
            except OverflowError:
                raise FloatRangeError(f"the degree-{degree_k} characteristic polynomial has a coefficient "
                                      "beyond float range") from None
            deriv = [coeffs[i] * i for i in range(1, len(coeffs))]
            exact_sq = None
            if rest.span == 2:
                disc = rest.coeffs[1] ** 2 - 4 * rest.coeffs[0] * rest.coeffs[2]
                if disc < 0:
                    # Conjugate pair: the modulus square is the root product.
                    exact_sq = rest.coeffs[0] / rest.coeffs[2]
            for z in _aberth(coeffs):
                if not cmath.isfinite(z):
                    raise FloatRangeError(f"the degree-{degree_k} characteristic polynomial overflows "
                                          "the float root finder")
                res = abs(_horner(coeffs, z))
                dv = abs(_horner(deriv, z))
                radius = rest.span * res / dv if dv > 0 else math.inf
                out.append(
                    RootDatum(
                        approx=z,
                        multiplicity=mult,
                        degree_k=degree_k,
                        squarefree_factor=factor,
                        radius=radius,
                        exact=None,
                        exact_modulus_sq=exact_sq,
                    )
                )
    if sum(r.multiplicity for r in out) != a.span:
        raise CertificationError("roots", f"root multiplicities do not sum to the degree span {a.span}")
    return out


@dataclass(frozen=True)
class Wall:
    """One exceptional weight: delta = ln|root| with its signed jump and the
    roots sitting on it, ordered by degree."""

    delta: float
    delta_radius: float
    exact_modulus: Fraction | None
    contributions: tuple[RootDatum, ...]
    jump: int

    @property
    def delta_exact(self) -> str | None:
        if self.exact_modulus is None:
            return None
        return f"ln({self.exact_modulus})"

    def to_json(self):
        return {
            "delta": self.delta,
            "delta_exact": self.delta_exact,
            "jump": self.jump,
            "contributions": [
                {
                    "k": r.degree_k,
                    "lambda": str(r.exact) if r.exact is not None else [r.approx.real, r.approx.imag],
                    "mult": r.multiplicity,
                }
                for r in self.contributions
            ],
        }


def _sqrt_fraction(x: Fraction) -> Fraction | None:
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


def _modulus_interval(r: RootDatum):
    m = r.modulus
    return (m, m) if r.exact_modulus_sq is not None else (m - r.radius, m + r.radius)


def _possibly_equal(a: RootDatum, b: RootDatum) -> bool:
    if a.exact_modulus_sq is not None and b.exact_modulus_sq is not None:
        return a.exact_modulus_sq == b.exact_modulus_sq
    lo_a, hi_a = _modulus_interval(a)
    lo_b, hi_b = _modulus_interval(b)
    pad = 1e-12 * max(hi_a, hi_b, 1.0)
    return lo_a <= hi_b + pad and lo_b <= hi_a + pad


def _certified_equal(a: RootDatum, b: RootDatum) -> bool:
    if a.exact_modulus_sq is not None and b.exact_modulus_sq is not None:
        return a.exact_modulus_sq == b.exact_modulus_sq
    return a.squarefree_factor == b.squarefree_factor


def wall_at(walls, delta: float) -> Wall | None:
    """The first wall within its certified radius plus _WALL_PAD of delta, or None."""
    return next((w for w in walls if abs(delta - w.delta) <= w.delta_radius + _WALL_PAD), None)


def exceptional_weights(roots, n: int) -> tuple[Wall, ...]:
    """Group roots of the degree 0..n-1 polynomials into walls, sorted by
    weight.

    Raises AmbiguousWallError when two moduli overlap within certified
    error but cannot be proved equal (distinct square-free factors without
    exact moduli).
    """
    relevant = [r for r in roots if 0 <= r.degree_k <= n - 1]
    relevant.sort(key=lambda r: (_modulus_interval(r)[0], r.degree_k))
    clusters: list[list[RootDatum]] = []
    for r in relevant:
        if clusters and any(_possibly_equal(r, other) for other in clusters[-1]):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    walls = []
    for members in clusters:
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                if not _certified_equal(a, b):
                    raise AmbiguousWallError(
                        f"moduli of {a.approx} (degree {a.degree_k}, factor {a.squarefree_factor})"
                        f" and {b.approx} (degree {b.degree_k}, factor {b.squarefree_factor})"
                        " overlap but cannot be certified equal"
                    )
        # The pairwise loop above leaves at most one exact modulus square.
        exact_sqs = [m.exact_modulus_sq for m in members if m.exact_modulus_sq is not None]
        exact_modulus = None
        if exact_sqs:
            exact_modulus = _sqrt_fraction(exact_sqs[0])
        if exact_modulus is not None:
            delta = math.log(float(exact_modulus))
        elif exact_sqs:
            delta = 0.5 * math.log(float(exact_sqs[0]))
        else:
            deltas = [math.log(abs(m.approx)) for m in members]
            delta = sum(deltas) / len(deltas)
        # A root merged with an exact modulus on its square-free factor alone
        # keeps its own certified radius (ROADMAP item 3).
        delta_radius = max(
            (max(delta - math.log(max(lo, 1e-300)), math.log(hi) - delta)
             for lo, hi in (_modulus_interval(m) for m in members if m.exact_modulus_sq is None)),
            default=0.0,
        )
        contribs = tuple(sorted(members, key=lambda m: (m.degree_k, m.approx.real, m.approx.imag)))
        jump = sum((-1) ** (r.degree_k + 1) * r.multiplicity for r in contribs)
        walls.append(Wall(delta, delta_radius, exact_modulus, contribs, jump))
    walls.sort(key=lambda w: w.delta)
    return tuple(walls)
