"""Matrices over the Laurent ring: Smith normal form, ranks, evaluation.

The Smith normal form is computed by Euclidean elimination after clearing
t-power units row- and column-wise, with the pivot chosen as the minimal
degree-span entry (ties: smallest coefficient height, then row-major).
Both transforms and their inverses are accumulated from elementary
operations, and the result is certified before it is returned:
left*M*right must reconstruct the diagonal exactly, the diagonal must form
a divisibility chain, and each transform times its inverse must be the
identity.  That last check proves the transforms unimodular: T*T^-1 = I
gives det T * det T^-1 = 1, so det T is a unit, with no determinant
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Rational as _RationalABC

from .errors import CertificationError
from .laurent import LaurentPoly, poly
from .linalg import exact_rank, numeric_rank
from .rationals import GaussianRational


class LaurentMatrix:
    """Immutable rows x cols matrix of Laurent polynomials."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(poly(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    @staticmethod
    def from_rows(rows_of_entries) -> "LaurentMatrix":
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        flat = []
        for r in rows_of_entries:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return LaurentMatrix(rows, cols, flat)

    @staticmethod
    def zero(rows: int, cols: int) -> "LaurentMatrix":
        return LaurentMatrix(rows, cols, [LaurentPoly.zero()] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        e = [LaurentPoly.one() if i == j else LaurentPoly.zero() for i in range(n) for j in range(n)]
        return LaurentMatrix(n, n, e)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        n, m = self.cols, other.cols
        zero = LaurentPoly.zero()
        # The nonzero entries of each row of other, found once; each output
        # row accumulates only products of two nonzero entries, in order of k.
        other_rows = [[(j, y) for j, y in enumerate(other.row(k)) if not y.is_zero()] for k in range(n)]
        out = []
        for i in range(self.rows):
            acc = [zero] * m
            for x, nonzeros in zip(self.entries[i * n : (i + 1) * n], other_rows):
                if not x.is_zero():
                    for j, y in nonzeros:
                        acc[j] = acc[j] + x * y
            out.extend(acc)
        return LaurentMatrix(self.rows, m, out)

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(e.pretty() for e in self.row(i)) for i in range(self.rows))
        return f"LaurentMatrix({self.rows}x{self.cols}: [{body}])"

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[e.to_json() for e in self.row(i)] for i in range(self.rows)],
        }

    @staticmethod
    def from_json(obj) -> "LaurentMatrix":
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        ent = obj["entries"]
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError("entry grid does not match declared shape")
        flat = [LaurentPoly.from_json(e) for r in ent for e in r]
        return LaurentMatrix(rows, cols, flat)

    def evaluate(self, z):
        """Evaluate entrywise at z in C*.

        Nested lists of exact values when z is exact (Fractions at a
        rational point, GaussianRationals at a Gaussian one); a complex
        numpy array otherwise.
        """
        if isinstance(z, (GaussianRational, _RationalABC)):
            if z in (0, GaussianRational(0, 0)):
                raise ZeroDivisionError("evaluation point must be nonzero")
            return [[e.evaluate(z) for e in self.row(i)] for i in range(self.rows)]
        import numpy as np

        zc = complex(z)
        if zc == 0:
            raise ZeroDivisionError("evaluation point must be nonzero")
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self[i, j].evaluate(zc)
        return out

    def rank_at(self, z) -> int:
        """Rank of the evaluated matrix: exact for exact z, SVD otherwise.

        At a Gaussian point the value A + iB has rank r over Q(i) exactly
        when the rational matrix [[A, -B], [B, A]] has rank 2r.
        """
        val = self.evaluate(z)
        if isinstance(z, GaussianRational):
            val = ([[v.re for v in row] + [-v.im for v in row] for row in val]
                   + [[v.im for v in row] + [v.re for v in row] for row in val])
            return exact_rank(val, 2 * self.cols) // 2
        if isinstance(val, list):
            return exact_rank(val, self.cols)
        return numeric_rank(val)


@dataclass
class SnfResult:
    """Certified Smith normal form: left*matrix*right is diagonal.

    diag holds the canonicalized nonzero diagonal entries (units appear as
    1), so rank == len(diag) and diag[i] divides diag[i+1].  left_inv and
    right_inv are exact inverses of the transforms.
    """

    left: LaurentMatrix
    diag: list
    right: LaurentMatrix
    rank: int
    left_inv: LaurentMatrix = field(repr=False, default=None)
    right_inv: LaurentMatrix = field(repr=False, default=None)

    def diagonal_matrix(self, rows: int, cols: int) -> LaurentMatrix:
        ent = [LaurentPoly.zero()] * (rows * cols)
        for i, d in enumerate(self.diag):
            ent[i * cols + i] = d
        return LaurentMatrix(rows, cols, ent)

    def invariant_factors(self):
        """The nonunit diagonal entries."""
        return [d for d in self.diag if d.span > 0]


class _Worker:
    """Mutable elimination state with transform bookkeeping.

    Maintains left*M*right == A after every elementary operation, together
    with the exact inverse transforms.
    """

    def __init__(self, m: LaurentMatrix):
        self.nr, self.nc = m.rows, m.cols
        self.a = [m.row(i) for i in range(m.rows)]
        self.left = _eye(self.nr)
        self.left_inv = _eye(self.nr)
        self.right = _eye(self.nc)
        self.right_inv = _eye(self.nc)

    def swap_rows(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.left[i], self.left[j] = self.left[j], self.left[i]
        for r in self.left_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for r in self.a:
            r[i], r[j] = r[j], r[i]
        for r in self.right:
            r[i], r[j] = r[j], r[i]
        self.right_inv[i], self.right_inv[j] = self.right_inv[j], self.right_inv[i]

    def addmul_row(self, dst, src, q: LaurentPoly):
        """row[dst] += q * row[src]; records inverse op.  Entries whose
        source is zero are left alone."""
        if q.is_zero():
            return
        for mat in (self.a, self.left):
            d = mat[dst]
            for j, y in enumerate(mat[src]):
                if not y.is_zero():
                    d[j] = d[j] + q * y
        for r in self.left_inv:
            y = r[dst]
            if not y.is_zero():
                r[src] = r[src] - q * y

    def addmul_col(self, dst, src, q: LaurentPoly):
        if q.is_zero():
            return
        for mat in (self.a, self.right):
            for r in mat:
                y = r[src]
                if not y.is_zero():
                    r[dst] = r[dst] + q * y
        d = self.right_inv[src]
        for j, y in enumerate(self.right_inv[dst]):
            if not y.is_zero():
                d[j] = d[j] - q * y

    def scale_row(self, i, unit: LaurentPoly):
        inv = unit ** -1
        self.a[i] = [unit * x for x in self.a[i]]
        self.left[i] = [unit * x for x in self.left[i]]
        for r in self.left_inv:
            r[i] = r[i] * inv

    def scale_col(self, j, unit: LaurentPoly):
        inv = unit ** -1
        for r in self.a:
            r[j] = r[j] * unit
        for r in self.right:
            r[j] = r[j] * unit
        self.right_inv[j] = [inv * x for x in self.right_inv[j]]


def _eye(n):
    return [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)]


def _pivot_key(p: LaurentPoly):
    return (p.span, p.height())


def smith_normal_form(m: LaurentMatrix, certify: bool = True) -> SnfResult:
    """Smith normal form over the Laurent ring, with unimodular transforms.

    Zero and empty matrices are fine.  When certify is set (the default)
    the factorization is re-multiplied, the divisibility chain is checked,
    and each transform times its inverse must give the identity, which
    proves the transforms unimodular; a failure raises CertificationError.
    """
    w = _Worker(m)
    nr, nc = w.nr, w.nc

    # Clear t-power units so every entry lives in Q[t].
    for i in range(nr):
        lows = [e.low for e in w.a[i] if not e.is_zero()]
        if lows and min(lows) != 0:
            w.scale_row(i, LaurentPoly.t_power(-min(lows)))
    for j in range(nc):
        lows = [w.a[i][j].low for i in range(nr) if not w.a[i][j].is_zero()]
        if lows and min(lows) != 0:
            w.scale_col(j, LaurentPoly.t_power(-min(lows)))

    k = 0
    limit = min(nr, nc)
    while k < limit:
        pos = _best_pivot(w.a, k, nr, nc)
        if pos is None:
            break
        w.swap_rows(k, pos[0])
        w.swap_cols(k, pos[1])
        while True:
            # Kill column k, re-pivoting on any nonzero remainder.
            restart = False
            for i in range(k + 1, nr):
                if w.a[i][k].is_zero():
                    continue
                q, r = divmod(w.a[i][k], w.a[k][k])
                w.addmul_row(i, k, -q)
                if not r.is_zero():
                    w.swap_rows(i, k)
                    restart = True
                    break
            if restart:
                continue
            for j in range(k + 1, nc):
                if w.a[k][j].is_zero():
                    continue
                q, r = divmod(w.a[k][j], w.a[k][k])
                w.addmul_col(j, k, -q)
                if not r.is_zero():
                    w.swap_cols(j, k)
                    restart = True
                    break
            if restart:
                continue
            # Row and column are clean; force divisibility of the rest.
            offender = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if not w.a[i][j].is_zero() and not (w.a[i][j] % w.a[k][k]).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w.addmul_row(k, offender, LaurentPoly.one())
        k += 1

    # Canonicalize the diagonal by unit row scalings.
    diag = []
    for i in range(limit):
        d = w.a[i][i]
        if d.is_zero():
            break
        unit = LaurentPoly(-d.low, (1 / d.coeffs[-1],))
        if not unit.is_one():
            w.scale_row(i, unit)
        diag.append(w.a[i][i])

    left = LaurentMatrix.from_rows(w.left) if nr else LaurentMatrix(0, 0, [])
    right = LaurentMatrix.from_rows(w.right) if nc else LaurentMatrix(0, 0, [])
    left_inv = LaurentMatrix.from_rows(w.left_inv) if nr else LaurentMatrix(0, 0, [])
    right_inv = LaurentMatrix.from_rows(w.right_inv) if nc else LaurentMatrix(0, 0, [])
    res = SnfResult(left=left, diag=diag, right=right, rank=len(diag),
                    left_inv=left_inv, right_inv=right_inv)

    if certify:
        _certify(m, res)
    return res


def _best_pivot(a, k, nr, nc):
    best = None
    best_key = None
    for i in range(k, nr):
        for j in range(k, nc):
            e = a[i][j]
            if e.is_zero():
                continue
            key = _pivot_key(e)
            if best_key is None or key < best_key:
                best, best_key = (i, j), key
    return best


def _certify(m: LaurentMatrix, res: SnfResult):
    d = res.diagonal_matrix(m.rows, m.cols)
    if res.left * m * res.right != d:
        raise CertificationError("snf", "left * M * right does not reconstruct the diagonal")
    for i in range(len(res.diag) - 1):
        if not res.diag[i].divides(res.diag[i + 1]):
            raise CertificationError("snf", "diagonal divisibility chain is broken")
    # T*T^-1 = I gives det T * det T^-1 = 1: det T is a unit, so this check
    # alone proves each transform unimodular.
    for t, ti in ((res.left, res.left_inv), (res.right, res.right_inv)):
        if t.rows and t * ti != LaurentMatrix.identity(t.rows):
            raise CertificationError("snf", "a transform times its inverse is not the identity")

