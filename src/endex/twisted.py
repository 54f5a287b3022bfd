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
# Relative singular-value cutoff of the shift-kernel oracle; it also sets
# how wide a window must be (WindowTooSmallError).
KERNEL_RTOL = 1e-6
# Upper bounds on the two size parameters of the oracles: the circle
# samples of the numeric Fredholm verdict (one float evaluation of the
# complex each) and the half-width N of the shift-kernel window (a dense
# (2N+1-m) x (2N+1) SVD).  See the README for the time each one costs.
MAX_SAMPLES = 1000
MAX_WINDOW = 500


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


def fredholm_check(cc: ChainComplexOverLambda, delta: float, samples: int = 16):
    """Is the weighted complex Fredholm at this weight?

    Two verdicts: the symbolic one (no root of any invariant factor has
    modulus e^delta; authoritative) and a numeric one (the evaluated
    complex is exact at sample points of the circle of radius e^delta).
    Refuses a sample count outside 1..MAX_SAMPLES with ValueError.
    """
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"the sample count must be between 1 and {MAX_SAMPLES}, got {samples}")
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
    for j in range(samples):
        z = radius * cmath.exp(2j * math.pi * j / samples)
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
        "samples": samples,
        "reason": reason,
    }


@dataclass(frozen=True)
class WeightedWindow:
    """Truncation window for the weighted shift-kernel oracle."""

    lam: complex
    m: int
    delta1: float
    delta2: float
    n_window: int

    def __post_init__(self):
        if self.n_window < 1:
            raise ValueError("window half-width must be at least 1")
        if self.n_window > MAX_WINDOW:
            raise ValueError(f"window half-width must be at most {MAX_WINDOW}")
        if self.m < 1:
            raise ValueError("multiplicity must be at least 1")
        if complex(self.lam) == 0:
            raise ValueError("lambda must be nonzero")


def l2_hom_dim_analytic(lam, m: int, delta1: float, delta2: float) -> int:
    """Dimension of the weighted homomorphism space for one Jordan block.

    The value is m when delta2 < delta1 and the modulus of lambda lies
    strictly between e^delta2 and e^delta1, and zero otherwise (for
    delta2 >= delta1 the annulus is empty, so the answer is zero).
    A modulus on either weight circle is rejected.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    ln_mod = math.log(abs(lam))
    for d in (delta1, delta2):
        if abs(ln_mod - d) <= _CIRCLE_PAD:
            raise OnWallError(ln_mod, d)
    if delta2 < delta1 and delta2 < ln_mod < delta1:
        return int(m)
    return 0


def l2_kernel_truncated(w: WeightedWindow) -> int:
    """Brute-force kernel count of the truncated weighted shift operator.

    Builds the band matrix of (shift - |lambda|)^m on window indices
    -N..N (the shift moves a sequence one step to the right), conjugates by
    the two-sided exponential weight, and counts the kernel directions
    whose mass decays at the window boundary.  Converges to the analytic
    dimension as N grows.

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
    import numpy as np

    mod = abs(complex(w.lam))
    n, m = w.n_window, w.m
    ln_mod = math.log(mod)
    gap = min(abs(ln_mod - w.delta1), abs(ln_mod - w.delta2))
    if gap <= _CIRCLE_PAD:
        raise OnWallError(ln_mod, w.delta1 if abs(ln_mod - w.delta1) < abs(ln_mod - w.delta2) else w.delta2)
    if math.exp(-n * gap) >= KERNEL_RTOL:
        needed = math.ceil(math.log(1.0 / KERNEL_RTOL) / gap) + 1
        raise WindowTooSmallError(
            needed,
            f"window {n} too small for gap {gap:.3g}; need about {needed}",
        )
    size = 2 * n + 1
    rows = size - m
    # Stencil of (shift - |lam|)^m: coefficient of x_{k-i} is C(m,i)(-|lam|)^(m-i).
    stencil = [math.comb(m, i) * (-mod) ** (m - i) for i in range(m + 1)]
    a = np.zeros((rows, size), dtype=np.float64)
    for r in range(rows):
        k = -n + m + r
        for i in range(m + 1):
            a[r, (k - i) + n] = stencil[i]
    # Column scaling by the inverse weight maps weighted-norm kernel
    # vectors to plain-norm ones; row balancing then keeps the singular
    # spectrum readable without touching the kernel.
    idx = np.arange(-n, n + 1, dtype=float)
    delta_of = np.where(idx < 0, w.delta1, np.where(idx > 0, w.delta2, 0.0))
    a *= np.exp(-delta_of * idx)[None, :]
    a /= np.max(np.abs(a), axis=1)[:, None]
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
