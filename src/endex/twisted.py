"""Verification oracles: twisted fibers, coefficient splittings, weighted
shift kernels.

Everything here recomputes quantities the main pipeline derives
symbolically, by an independent route: evaluating the complex at points of
the punctured plane, splitting cohomology through the homology module, and
brute-forcing kernels of truncated weighted shift operators.  Agreement of
these routes is what the test suite leans on.

Ranks at rational and Gaussian points are exact; at float points they use
the fixed cutoff of ``linalg.numeric_rank``, which is not a parameter.  The
shift-kernel oracle has no rank decision: its truncated band has full row
rank, so the band's null space has dimension exactly m, and one Householder
QR gives it.  The oracle counts the vectors of that null space whose mass
decays at the window boundary.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC

from .complexes import ChainComplexOverLambda
from .errors import FloatRangeError, NotFiniteError, OnWallError, WindowTooSmallError
from .homology import HomologyModule
from .pipeline import Analysis
from .rationals import GaussianRational
from .spectral import wall_at

_CIRCLE_PAD = 1e-9
# Null-space vectors must hold all but this fraction of their mass away
# from the outer tenth of the window to count as decaying.  The window is
# sized so that every true kernel vector passes (_decay_reach), so this
# value sets the window of every block of m >= 4 (N = 410 for
# lambda = 0.35, m = 6, weights (-1, -2)).
_BOUNDARY_MASS = 1e-5
# A kernel vector decays like k^j e^(-gap k), gap being the distance from
# ln|lambda| to the nearer weight, so the window needs ceil(reach / gap) + 1,
# reach being the larger of ln(1/KERNEL_RTOL) = 13.8 and the block's
# _decay_reach, so e^(-gap k) falls to KERNEL_RTOL of its peak or below by
# the window's edge.  Nothing is cut at this value.
KERNEL_RTOL = 1e-6
# The window is never narrower than MIN_WINDOW; a weight that needs more
# than MAX_WINDOW is refused (WindowTooSmallError).  See the README for costs.
# The floor is load-bearing: off the annulus, a window of the derived
# width alone has only a few entries in its outer tenth (two at N = 9), and
# at least m minus that many directions of the m-dimensional null space
# vanish on them and pass the mass test (lambda = 0.1555, m = 4, weights
# (2.42, 0.037) counts 3 at N = 9, not 0, though the band's smallest
# singular value there is 0.34 of its largest).
MIN_WINDOW = 200
MAX_WINDOW = 500
# The largest Jordan block the shift-kernel oracle takes; a larger m is
# refused before anything is allocated.  Seeded draws of every m up to it
# agree with the analytic count or are refused (tests/test_twisted.py);
# no test checks a larger block.
MAX_MULT = 7
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
    ranks = [0] + [cc.boundary(k).rank_at(z) for k in range(1, cc.n + 2)]
    dims = tuple(cc.ranks[k] - ranks[k] - ranks[k + 1] for k in range(cc.n + 1))
    return TwistedFiber(z=z, dims=dims, exact=exact)


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


def fredholm_check(analysis: Analysis, delta: float):
    """Is the weighted complex of a chain complex input Fredholm at this weight?

    Two verdicts: the symbolic one (finite homology, and delta on no wall
    by the test the index applies, `spectral.wall_at`), which is the one
    reported as ``fredholm``, and a numeric one (the evaluated complex is
    exact at FREDHOLM_SAMPLES evenly spaced points of the circle of radius
    e^delta).  The numeric verdict proves nothing in either direction:
    the samples can miss a rank drop that happens only at the roots, and
    float ranks at the 1e-9 cutoff can see a drop that is not there.
    """
    radius = _weight_radius(delta)
    # The float samples come first, so a complex that overflows at this
    # radius is refused before any exact work.
    numeric = True
    for j in range(FREDHOLM_SAMPLES):
        z = radius * cmath.exp(2j * math.pi * j / FREDHOLM_SAMPLES)
        fiber = twisted_dims(analysis.parsed.complex, z)
        if any(d != 0 for d in fiber.dims):
            numeric = False
            break
    infinite = analysis.homology.infinite_degrees
    if infinite:
        symbolic = False
        reason = f"homology has free summands in degrees {list(infinite)}"
    else:
        wall = wall_at(analysis.walls, delta)
        symbolic = wall is None
        reason = ("no exceptional weight at delta" if symbolic
                  else f"root of the degree-{wall.contributions[0].degree_k} polynomial has modulus e^delta")
    return {
        "delta": delta,
        "fredholm": symbolic,
        "symbolic_fredholm": symbolic,
        "numeric_fredholm": numeric,
        "agree": symbolic == numeric,
        "samples": FREDHOLM_SAMPLES,
        "reason": reason,
    }


def _weight_radius(delta: float) -> float:
    """e^delta of a weight; FloatRangeError unless it is a positive finite
    float, which also refuses a weight that is not finite."""
    try:
        radius = math.exp(delta)
    except OverflowError:
        radius = math.inf
    if not 0.0 < radius < math.inf:
        raise FloatRangeError(f"weight {delta}: e^delta is not a positive finite float")
    return radius


def _ln_modulus(lam, m: int, delta1: float, delta2: float) -> float:
    """ln|lambda| of a Jordan block the two l2 functions accept: lambda
    nonzero with a modulus that is a positive finite float, m at least 1,
    both weights usable (``_weight_radius``), and the modulus on neither
    weight circle."""
    if m < 1:
        raise ValueError("multiplicity must be at least 1")
    if lam in (0, GaussianRational(0, 0)):
        raise ValueError("lambda must be nonzero")
    try:
        mod = abs(complex(lam))
    except OverflowError:
        mod = math.inf
    if mod == 0:
        raise FloatRangeError("|lambda| is nonzero but underflows to 0 as a float")
    if not math.isfinite(mod):
        raise FloatRangeError("|lambda| is not a finite float")
    ln_mod = math.log(mod)
    for d in (delta1, delta2):
        _weight_radius(d)
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


@functools.cache
def _decay_reach(m: int) -> float:
    """The least gap * N at which every kernel vector of an m-block passes
    the boundary-mass test at half-width N.

    On the side of the nearer weight that kernel is spanned by
    k^j e^(-gap k), j < m, and the oracle's basis of it (the last columns
    of a QR factor) is whichever orthonormal basis the reflectors give, so
    the test must hold for the worst unit vector of the span: the
    squared norm of the outer rows of an orthonormal basis.  The span
    depends on gap * N alone, so it is sampled once at N = MAX_WINDOW, and
    the reach is bisected to within 1e-3.
    """
    import numpy as np

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


def _shift_band(ln_mod: float, m: int, n: int, delta1: float, delta2: float):
    """The weighted, row-balanced band matrix of (shift - |lambda|)^m on
    window indices -n..n, of shape (2n + 1 - m, 2n + 1)."""
    import numpy as np

    size = 2 * n + 1
    rows = size - m
    # Stencil of (shift - |lam|)^m: coefficient of x_{k-i} is C(m,i)(-|lam|)^(m-i),
    # held as a sign and a log-magnitude, so no power of |lam| overflows.
    sign = np.array([(-1.0) ** (m - i) for i in range(m + 1)])
    ln_stencil = np.array([math.log(math.comb(m, i)) + (m - i) * ln_mod for i in range(m + 1)])
    # Column scaling by the inverse weight e^(-delta k) maps weighted-norm
    # kernel vectors to plain-norm ones; row balancing then brings each
    # row's largest entry to 1 without touching the kernel.  Both act on
    # log-magnitudes, so no weight overflows however wide the window: row r
    # holds output index k = -n + m + r, whose entry in column (k - i) + n
    # is sign[i] * e^ln_stencil[i].
    idx = np.arange(-n, n + 1, dtype=float)
    delta_of = np.where(idx < 0, delta1, np.where(idx > 0, delta2, 0.0))
    r = np.arange(rows)[:, None]
    cols = r + m - np.arange(m + 1)[None, :]
    band = ln_stencil[None, :] - (delta_of * idx)[cols]
    band -= band.max(axis=1, keepdims=True)
    a = np.zeros((rows, size), dtype=np.float64)
    a[r, cols] = sign * np.exp(band)
    return a


def _null_space(a):
    """The null space of a wide matrix a of full row rank, as orthonormal
    columns: one for each column of a beyond its row count.

    One Householder QR of a^T = Q R.  The last columns of Q are orthogonal
    to a's rows, and they come from applying Q's reflectors to the last
    unit vectors, so Q itself is never formed.  Pass a as a temporary, so
    that it is freed as soon as the factorization returns.
    """
    import numpy as np

    rows, size = a.shape
    h, tau = np.linalg.qr(a.T, mode="raw")
    del a
    # Row j of h is column j of the factored a^T: R's column j down to the
    # diagonal, then the tail of reflector j, whose head is 1.
    kernel = np.zeros((size, size - rows))
    kernel[rows:] = np.eye(size - rows)
    for j in reversed(range(rows)):
        tail = h[j, j + 1:]
        proj = tau[j] * (kernel[j] + tail @ kernel[j + 1:])
        kernel[j] -= proj
        kernel[j + 1:] -= np.outer(tail, proj)
    return kernel


def l2_kernel_truncated(lam, m: int, delta1: float, delta2: float) -> int:
    """Brute-force kernel count of the truncated weighted shift operator.

    Builds the band matrix of (shift - |lambda|)^m on window indices
    -N..N (the shift moves a sequence one step to the right), conjugates by
    the two-sided exponential weight, and counts the null-space directions
    whose mass decays at the window boundary.  Row r of the band is zero
    before column r and nonzero there, so the band has full row rank and
    its null space has dimension exactly m.  The window restriction of
    every kernel sequence satisfies every row, so it lies in that null
    space.  Each vector of an orthonormal basis of it (_null_space) is
    tested on its own.  Takes the arguments of l2_hom_dim_analytic and
    picks the half-width N itself: the one that KERNEL_RTOL and the
    block's kernel vectors (_decay_reach) need at this gap, and at least
    MIN_WINDOW.  A weight that needs more than MAX_WINDOW raises
    WindowTooSmallError, and m above MAX_MULT raises ValueError, before
    anything is allocated.

    The operator for |lambda| gives the same count as the one for lambda,
    so the matrix is real for every lambda.  Write lambda = |lambda| e^(i theta)
    and let row r hold output index k_r.  Entry (r, k_r - i) of
    (shift - lambda)^m is

        e^(i theta (m - k_r)) * C(m,i)(-|lambda|)^(m-i) * e^(i theta (k_r - i)),

    so the complex operator is U A V, with A the real operator for |lambda|
    and U, V unitary diagonal matrices.  The column weights are diagonal
    and commute with V, and the row balancing divides by moduli that U
    leaves unchanged, so the weighted, balanced complex matrix is U B V for
    the real weighted, balanced B.  U is invertible, so
    null(U B V) = V^-1 null(B), and V^-1 maps an orthonormal basis of
    null(B) to one of null(U B V) with the same squared moduli entry by
    entry.  The boundary-mass test reads only those, so it counts the same
    vectors.
    """
    ln_mod = _ln_modulus(lam, m, delta1, delta2)
    if m > MAX_MULT:
        raise ValueError(f"multiplicity {m} is above the cap of {MAX_MULT}")
    gap = min(abs(ln_mod - delta1), abs(ln_mod - delta2))
    needed = math.ceil(max(math.log(1.0 / KERNEL_RTOL), _decay_reach(m)) / gap) + 1
    if needed > MAX_WINDOW:
        raise WindowTooSmallError(
            needed,
            f"weight within {gap:.3g} of ln|lambda| needs a window of about {needed}, above {MAX_WINDOW}",
        )
    import numpy as np

    n = max(MIN_WINDOW, needed)
    kernel = _null_space(_shift_band(ln_mod, m, n, delta1, delta2))
    mass = kernel ** 2
    boundary = np.abs(np.arange(-n, n + 1)) > math.floor(0.9 * n)
    frac = mass[boundary].sum(axis=0) / mass.sum(axis=0)
    return int(np.count_nonzero(frac < _BOUNDARY_MASS))
