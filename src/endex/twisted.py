"""Verification oracles: twisted fibers, coefficient splittings, weighted
shift kernels.

Everything here recomputes quantities the main pipeline derives
symbolically, by an independent route: evaluating the complex at points of
the punctured plane, splitting cohomology through the homology module, and
brute-forcing kernels of truncated weighted shift operators.  Agreement of
these routes is what the test suite leans on.

Ranks at rational and Gaussian points are exact ranks over Λ/(g), g the
point's minimal polynomial; at float points they are the ranks of
Gaussian elimination with complete pivoting, at the fixed pivot cutoff of
``linalg.numeric_rank``, which is not a parameter.  The shift-kernel
oracle has no rank decision: its truncated band has full row rank, so the
band's null space has dimension exactly m, and one Householder QR of the
band's m + 1 diagonals, kept packed, gives it in O(N m) memory.  The
oracle counts the vectors of that null space whose mass decays at the
window boundary.  It runs on Python floats alone, as the float ranks of
``linalg.numeric_rank`` do: no module of the package imports numpy.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC

from .complexes import ChainComplexOverLambda
from .errors import FloatRangeError, NotFiniteError, OnWallError, WindowTooSmallError
from .homology import HomologyModule
from .pipeline import Analysis
from .polymatrix import minimal_polynomial, residue
from .rationals import GaussianRational
from .spectral import wall_at

_CIRCLE_PAD = 1e-9
# Null-space vectors must hold all but this fraction of their mass away
# from the outer tenth of the window to count as decaying.  The window is
# sized so that every true kernel vector passes (_DECAY_REACH), so this
# value sets the window of every block of m >= 4 (N = 410 for
# lambda = 0.35, m = 6, weights (-1, -2)).
_BOUNDARY_MASS = 1e-5
# A kernel vector decays like k^j e^(-gap k), gap being the distance from
# ln|lambda| to the nearer weight, so the window needs ceil(reach / gap) + 1,
# reach being the larger of ln(1/KERNEL_RTOL) = 13.8 and the block's
# _DECAY_REACH, so e^(-gap k) falls to KERNEL_RTOL of its peak or below by
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
# The least gap * N at which every kernel vector of an m-block passes the
# boundary-mass test at half-width N, for m = 1..MAX_MULT.  On the side of
# the nearer weight that kernel is spanned by k^j e^(-gap k), j < m, and the
# oracle's basis of it (_null_space) is whichever orthonormal basis its
# Householder reflectors give, so the test must hold for the worst unit
# vector of the span: the squared norm of the outer rows of an orthonormal
# basis.  The span depends on gap * N alone; each value is bisected to
# within 1e-3 on that span sampled at N = MAX_WINDOW
# (tests/test_twisted.py recomputes them).
_DECAY_REACH = (6.1923828125, 9.41015625, 12.318359375, 15.0810546875, 17.7578125, 20.375, 22.94921875)
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

    Exact at rational and Gaussian points; otherwise floating, with the
    complete-pivoting ranks of ``linalg.numeric_rank``.
    Each dimension is c_k - r_k - r_(k+1) from the ranks r of the
    boundaries, so the alternating sum is the Euler characteristic by
    construction.
    """
    ranks = [0] + [cc.boundary(k).rank_at(z) for k in range(1, cc.n + 2)]
    dims = tuple(cc.ranks[k] - ranks[k] - ranks[k + 1] for k in range(cc.n + 1))
    return TwistedFiber(z=z, dims=dims, exact=isinstance(z, (GaussianRational, _RationalABC)))


def uct_dims(h: HomologyModule, z) -> list:
    """Cohomology dimensions predicted by the coefficient splitting.

    Degree k receives one dimension for every invariant factor of the
    degree-k module vanishing at z, plus one for every invariant factor of
    the degree-(k-1) module vanishing at z; q vanishes at z exactly when
    the minimal polynomial g of z divides it, that is when q mod g
    (``polymatrix.residue``, from q's nonzero terms alone) is zero.  Returns
    degrees 0..n+1.
    Requires finite homology and an exact nonzero z.
    """
    if h.infinite_degrees:
        raise NotFiniteError(h.infinite_degrees)
    g = minimal_polynomial(z)
    # vanish[k + 1] counts in degree k; degrees -1 and n + 1 have no factors.
    vanish = [0] + [sum(not any(residue(q, g)) for q in h.invariant_factors(k)) for k in range(h.n + 1)] + [0]
    return [vanish[k] + vanish[k + 1] for k in range(h.n + 2)]


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
        fiber = twisted_dims(analysis.complex, z)
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


def _shift_band(ln_mod: float, m: int, n: int, delta1: float, delta2: float) -> list:
    """The weighted, row-balanced band matrix a of (shift - |lambda|)^m on
    window indices -n..n, packed: a has 2n + 1 - m rows and 2n + 1 columns
    and is zero off its m + 1 diagonals, and entry r * (m + 1) + c of the
    returned row-major list of floats is a's entry (r, r + c)."""
    # Stencil of (shift - |lam|)^m: row r holds output index k = -n + m + r,
    # and its entry c is the coefficient of x_(k-m+c), C(m,c)(-|lam|)^c, held
    # as a sign and a log-magnitude, so no power of |lam| overflows.
    sign = [(-1.0) ** c for c in range(m + 1)]
    ln_stencil = [math.log(math.comb(m, c)) + c * ln_mod for c in range(m + 1)]
    # Column scaling by the inverse weight e^(-delta k) maps weighted-norm
    # kernel vectors to plain-norm ones; row balancing then brings each
    # row's largest entry to 1 without touching the kernel.  Both act on
    # log-magnitudes, so no weight overflows however wide the window: entry
    # (r, c) sits in a's column r + c, window index -n + r + c.
    ln_weight = [(delta1 if k < 0 else delta2 if k > 0 else 0.0) * k for k in range(-n, n + 1)]
    band = []
    for r in range(2 * n + 1 - m):
        row = [s - w for s, w in zip(ln_stencil, ln_weight[r:r + m + 1])]
        top = max(row)
        band += [s * math.exp(x - top) for s, x in zip(sign, row)]
    return band


def _null_space(entries: list, m: int) -> list:
    """The null space of the band matrix a that ``_shift_band`` packs, as
    m orthonormal vectors for a band of m + 1 diagonals, a having full row
    rank.

    A Householder QR of a^T = Q R, whose last m columns of Q are orthogonal
    to a's rows; it runs in O(N m) memory and O(N m^2) time, and neither a
    nor Q is formed.  Column j of a^T is row j of a, nonzero in rows
    j..j+m, and reflectors 0..j-1 touch no row past j-1+m, so reflector j
    acts on rows j..j+m alone (Golub and Van Loan, Matrix Computations,
    5.2).  The factorization therefore runs on a rolling (m+1) x (m+1)
    window of a^T, rows and columns j..j+m, and R's row j is dropped as
    the window moves on.  Each reflector I - tau v v^T follows LAPACK's
    dlarfg, as numpy's QR does: v[0] = 1, beta = -sign(alpha) |x|, and
    tau = 0 when x is already a multiple of e_0.  Q's last columns are the
    reflectors applied in reverse to the last m unit vectors.
    """
    w = m + 1
    rows = len(entries) // w
    # window[c][i] is entry (j + i, j + c) of a^T as factored so far.
    window = [[0.0] * c + entries[c * w:c * w + w - c] for c in range(min(w, rows))]
    vs, taus = [], []  # reflector j is vs[j * w:(j + 1) * w] and taus[j]
    for j in range(rows):
        alpha, *x = window.pop(0)
        xnorm = math.hypot(*x)
        tau = 0.0
        if xnorm:
            beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
            tau = (beta - alpha) / beta
            scale = 1.0 / (alpha - beta)
            x = [y * scale for y in x]
        v = [1.0, *x]
        vs += v
        taus.append(tau)
        # Row j + m + 1 enters the window: a^T's entries there in columns
        # j+1..j+m+1 are a's entries (j+1+c, m-c).
        incoming = iter(entries[(j + 1) * w + m:(j + w) * w + 1:m])
        for c, col in enumerate(window):
            s = tau * sum(map(operator.mul, v, col))
            col = [y - s * u for y, u in zip(col[1:], x)]
            col.append(next(incoming))
            window[c] = col
        if j + w < rows:
            window.append([0.0] * m + [next(incoming)])
    kernel = [[0.0] * (rows + m) for _ in range(m)]
    for c, q in enumerate(kernel):
        q[rows + c] = 1.0
    for j in reversed(range(rows)):
        v, tau = vs[j * w:j * w + w], taus[j]
        for q in kernel:
            seg = q[j:j + w]
            s = tau * sum(map(operator.mul, v, seg))
            q[j:j + w] = [y - s * u for y, u in zip(seg, v)]
    return kernel


def l2_kernel_truncated(lam, m: int, delta1: float, delta2: float) -> int:
    """Brute-force kernel count of the truncated weighted shift operator.

    Builds the band matrix of (shift - |lambda|)^m on window indices
    -N..N (the shift moves a sequence one step to the right), conjugates by
    the two-sided exponential weight, and counts the null-space directions
    whose mass decays at the window boundary.  The band keeps only its
    m + 1 diagonals (_shift_band), and its null space comes from a
    Householder QR that runs in O(N m) memory (_null_space).  Row r of the
    band is zero before column r and nonzero there, so the band has full
    row rank and its null space has dimension exactly m.  The window
    restriction of every kernel sequence satisfies every row, so it lies
    in that null space.  Each vector of an orthonormal basis of it (_null_space) is
    tested on its own.  Takes the arguments of l2_hom_dim_analytic and
    picks the half-width N itself: the one that KERNEL_RTOL and the
    block's kernel vectors (_DECAY_REACH) need at this gap, and at least
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
    needed = math.ceil(max(math.log(1.0 / KERNEL_RTOL), _DECAY_REACH[m - 1]) / gap) + 1
    if needed > MAX_WINDOW:
        raise WindowTooSmallError(
            needed,
            f"weight within {gap:.3g} of ln|lambda| needs a window of about {needed}, above {MAX_WINDOW}",
        )
    n = max(MIN_WINDOW, needed)
    # The outer tenth is window indices k with |k| > floor(0.9 n), the
    # first and last n - floor(0.9 n) entries of a kernel vector.
    edge = n - math.floor(0.9 * n)
    count = 0
    for q in _null_space(_shift_band(ln_mod, m, n, delta1, delta2), m):
        mass = [y * y for y in q]
        if math.fsum(mass[:edge] + mass[-edge:]) / math.fsum(mass) < _BOUNDARY_MASS:
            count += 1
    return count
