"""Verification oracles: twisted fibers, coefficient splittings, weighted
shift kernels.

Everything here recomputes quantities the main pipeline derives
symbolically, by an independent route: evaluating the complex at points of
the punctured plane, splitting cohomology through the homology module, and
brute-forcing kernels of truncated weighted shift operators.  Agreement of
these routes is what the test suite leans on.

Ranks at rational and Gaussian points are exact; at float points they use
the fixed cutoff of ``linalg.numeric_rank``.  The shift-kernel oracle has
its own fixed cutoff, ``KERNEL_RTOL``.  Neither is a parameter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC

from .complexes import ChainComplexOverLambda
from .errors import NotFiniteError, OnWallError, WindowTooSmallError
from .homology import HomologyModule
from .pipeline import Analysis
from .rationals import GaussianRational

_CIRCLE_PAD = 1e-9
# Kernel vectors must hold all but this fraction of their mass away from
# the outer tenth of the window to count as decaying.
_BOUNDARY_MASS = 1e-3
# Relative singular-value cutoff of the shift-kernel oracle.  A kernel
# vector decays like e^(-gap k), gap being the distance from ln|lambda| to
# the nearer weight, so the window needs ceil(ln(1/KERNEL_RTOL) / gap) + 1.
KERNEL_RTOL = 1e-6
# The window is never narrower than MIN_WINDOW; a weight that needs more
# than MAX_WINDOW is refused (WindowTooSmallError).  See the README for costs.
MIN_WINDOW = 200
MAX_WINDOW = 500
# Circle points of the numeric Fredholm verdict.
FREDHOLM_SAMPLES = 16


@dataclass(frozen=True)
class TwistedFiber:
    """Cohomology dimensions of the complex evaluated at one point."""

    z: object
    dims: tuple
    exact: bool

    def to_json(self):
        if isinstance(self.z, GaussianRational):
            zj = [str(self.z.re), str(self.z.im)]
        elif isinstance(self.z, Fraction):
            zj = str(self.z)
        else:
            zc = complex(self.z)
            zj = [zc.real, zc.imag]
        return {"z": zj, "dims": list(self.dims), "exact": self.exact}


def twisted_dims(cc: ChainComplexOverLambda, z) -> TwistedFiber:
    """Dimensions of the evaluated cochain complex in each degree.

    Exact at rational and Gaussian points; floating (SVD ranks) otherwise.
    Each dimension is c_k - r_k - r_(k+1) from the ranks r of the
    boundaries, so the alternating sum is the Euler characteristic by
    construction.
    """
    exact = isinstance(z, (GaussianRational, _RationalABC))
    ranks = [cc.boundary(k).rank_at(z) for k in range(1, cc.n + 2)]
    dims = []
    for k in range(cc.n + 1):
        into = ranks[k - 1] if k >= 1 else 0
        out = ranks[k] if k <= cc.n else 0
        dims.append(cc.ranks[k] - into - out)
    return TwistedFiber(z=z, dims=tuple(dims), exact=exact)


def uct_dims(h: HomologyModule, z) -> list:
    """Cohomology dimensions predicted by the coefficient splitting.

    Degree k receives one dimension for every invariant factor of the
    degree-k module vanishing at z, plus one for every invariant factor of
    the degree-(k-1) module vanishing at z.  Returns degrees 0..n+1.
    Requires finite homology and an exact z.
    """
    if h.infinite_degrees:
        raise NotFiniteError(h.infinite_degrees)
    if isinstance(z, _RationalABC):
        z = GaussianRational(z, 0)
    if not isinstance(z, GaussianRational):
        raise TypeError("coefficient splitting is an exact oracle; z must be exact")
    zero = GaussianRational(0, 0)
    if z == zero:
        raise ZeroDivisionError("z must be nonzero")
    vanish = [
        sum(1 for q in h.invariant_factors(k) if q.evaluate(z) == zero) for k in range(h.n + 1)
    ]
    dims = []
    for k in range(h.n + 2):
        hom = vanish[k] if k <= h.n else 0
        ext = vanish[k - 1] if k >= 1 else 0
        dims.append(hom + ext)
    return dims


def fredholm_check(cc: ChainComplexOverLambda, delta: float):
    """Is the weighted complex Fredholm at this weight?

    Two verdicts: the symbolic one (no root of any invariant factor has
    modulus e^delta), which is the one reported as ``fredholm``, and a
    numeric one (the evaluated complex is exact at FREDHOLM_SAMPLES evenly
    spaced points of the circle of radius e^delta).  The numeric verdict
    proves nothing in either direction, at this or any other sample count:
    the samples can miss a rank drop that happens only at the roots, so it
    can say true on a wall, and float ranks at the 1e-9 cutoff can see a
    drop that is not there, so it can say false off every wall.
    """
    analysis = Analysis.of_complex(cc)
    infinite = analysis.homology.infinite_degrees
    if infinite:
        symbolic = False
        reason = f"homology has free summands in degrees {list(infinite)}"
    else:
        # Degrees are searched in order, up to the first root on the circle.
        hit = next((k for k in range(cc.n + 1) for r in analysis.roots(k)
                    if abs(r.delta - delta) <= r.radius / max(r.modulus, 1e-300) + 1e-12), None)
        symbolic = hit is None
        reason = ("no exceptional weight at delta" if symbolic
                  else f"root of the degree-{hit} polynomial has modulus e^delta")
    radius = math.exp(delta)
    numeric = True
    for j in range(FREDHOLM_SAMPLES):
        z = radius * cmath.exp(2j * math.pi * j / FREDHOLM_SAMPLES)
        fiber = twisted_dims(cc, z)
        if any(d != 0 for d in fiber.dims):
            numeric = False
            break
    return {
        "delta": delta,
        "fredholm": symbolic,
        "symbolic_fredholm": symbolic,
        "numeric_fredholm": numeric,
        "agree": symbolic == numeric,
        "samples": FREDHOLM_SAMPLES,
        "reason": reason,
    }


def _ln_modulus(lam, m: int, delta1: float, delta2: float) -> float:
    """ln|lambda| of a Jordan block the two l2 functions accept: lambda
    nonzero, m at least 1, and the modulus on neither weight circle."""
    if m < 1:
        raise ValueError("multiplicity must be at least 1")
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    ln_mod = math.log(abs(lam))
    for d in (delta1, delta2):
        if abs(ln_mod - d) <= _CIRCLE_PAD:
            raise OnWallError(ln_mod, d)
    return ln_mod


def l2_hom_dim_analytic(lam, m: int, delta1: float, delta2: float) -> int:
    """Dimension of the weighted homomorphism space for one Jordan block.

    The value is m when delta2 < delta1 and the modulus of lambda lies
    strictly between e^delta2 and e^delta1, and zero otherwise (for
    delta2 >= delta1 the annulus is empty, so the answer is zero).
    A modulus on either weight circle is rejected.
    """
    ln_mod = _ln_modulus(lam, m, delta1, delta2)
    if delta2 < delta1 and delta2 < ln_mod < delta1:
        return int(m)
    return 0


def l2_kernel_truncated(lam, m: int, delta1: float, delta2: float) -> int:
    """Brute-force kernel count of the truncated weighted shift operator.

    Builds the band matrix of (shift - |lambda|)^m on window indices
    -N..N (the shift moves a sequence one step to the right), conjugates by
    the two-sided exponential weight, and counts the kernel directions
    whose mass decays at the window boundary.  Takes the arguments of
    l2_hom_dim_analytic and picks the half-width N itself: the one
    KERNEL_RTOL needs at this gap, and at least MIN_WINDOW.  A weight that
    needs more than MAX_WINDOW raises WindowTooSmallError before anything
    is allocated.

    The operator for |lambda| gives the same count as the one for lambda,
    so the matrix is real for every lambda.  Write lambda = |lambda| e^(i theta)
    and let row r hold output index k_r.  Entry (r, k_r - i) of
    (shift - lambda)^m is

        e^(i theta (m - k_r)) * C(m,i)(-|lambda|)^(m-i) * e^(i theta (k_r - i)),

    so the complex operator is U A V, with A the real operator for |lambda|
    and U, V unitary diagonal matrices.  The column weights are diagonal
    and commute with V, and the row balancing divides by moduli that U
    leaves unchanged.  The weighted, balanced matrix therefore keeps its
    singular values, and each right singular vector changes only by
    unit-modulus factors on its entries.  The boundary-mass test reads
    only the squared moduli of those entries, so it counts the same
    vectors.
    """
    ln_mod = _ln_modulus(lam, m, delta1, delta2)
    gap = min(abs(ln_mod - delta1), abs(ln_mod - delta2))
    needed = math.ceil(math.log(1.0 / KERNEL_RTOL) / gap) + 1
    if needed > MAX_WINDOW:
        raise WindowTooSmallError(
            needed,
            f"weight within {gap:.3g} of ln|lambda| needs a window of about {needed}, above {MAX_WINDOW}",
        )
    import numpy as np

    mod = abs(complex(lam))
    n = max(MIN_WINDOW, needed)
    size = 2 * n + 1
    rows = size - m
    # Stencil of (shift - |lam|)^m: coefficient of x_{k-i} is C(m,i)(-|lam|)^(m-i).
    stencil = np.array([math.comb(m, i) * (-mod) ** (m - i) for i in range(m + 1)])
    # Column scaling by the inverse weight e^(-delta k) maps weighted-norm
    # kernel vectors to plain-norm ones; row balancing then keeps the
    # singular spectrum readable without touching the kernel.  Both act on
    # log-magnitudes, so no weight overflows however wide the window: row r
    # holds output index k = -n + m + r, whose entry in column (k - i) + n
    # is stencil[i].
    idx = np.arange(-n, n + 1, dtype=float)
    delta_of = np.where(idx < 0, delta1, np.where(idx > 0, delta2, 0.0))
    r = np.arange(rows)[:, None]
    cols = r + m - np.arange(m + 1)[None, :]
    band = np.log(np.abs(stencil))[None, :] - (delta_of * idx)[cols]
    band -= band.max(axis=1, keepdims=True)
    a = np.zeros((rows, size), dtype=np.float64)
    a[r, cols] = np.sign(stencil) * np.exp(band)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    kernel_rows = [vh[i] for i in range(len(s), size)]
    kernel_rows += [vh[i] for i in range(len(s)) if s[i] < KERNEL_RTOL * s[0]]
    outer = int(math.floor(0.9 * n))
    boundary = np.abs(idx) > outer
    count = 0
    for v in kernel_rows:
        mass = np.abs(v) ** 2
        frac = mass[boundary].sum() / mass.sum()
        if frac < _BOUNDARY_MASS:
            count += 1
    return count
