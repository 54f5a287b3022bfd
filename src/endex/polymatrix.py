"""Matrices over the Laurent ring: Smith normal form and ranks.

A ``LaurentMatrix`` holds only its nonzero entries, and only this module
knows that layout: products and ranks visit the nonzero entries alone.
The Smith form's working matrix and transforms are dense rows.

The Smith normal form is computed by Euclidean elimination.  One rule
fills diagonal slot k: pick the pivot of least degree span in the trailing
block (ties: smallest coefficient height, then row-major), and clear
column k and row k by quotients.  A nonzero remainder has a smaller span
than the pivot, so picking again lowers the least span in the block.  When
some trailing entry is not divisible by the pivot, its row is added to row
k, where clearing then leaves a remainder.  Spans are nonnegative, so the
loop ends.  On a unit pivot (every entry of a lifted simplicial boundary is
one) the slot is filled at the first pick, and the divisibility scan of the
trailing block is skipped, since a unit divides every entry.  No step looks
at t-powers: division aligns them and restores them in the quotient, the
pivot key and the divisibility test see only coefficient runs, and the
diagonal is canonicalized at the end, which strips each entry's power of t.

Every step is an elementary operation.  A row operation acts on the rows
of the working matrix and of the left transform, and its inverse on the
columns of the left inverse; a column operation mirrors this on the
right.  The result is certified before it is returned:
left*M*right must reconstruct the diagonal exactly, the diagonal must form
a divisibility chain, and each transform times its inverse must be the
identity.  That last check proves the transforms unimodular: T*T^-1 = I
gives det T * det T^-1 = 1, so det T is a unit, with no determinant
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Rational as _RationalABC
from types import MappingProxyType

from .errors import CertificationError, SizeBoundError
from .laurent import LaurentPoly, poly
from .linalg import exact_rank, numeric_rank
from .rationals import GaussianRational, parse_int

# The largest coefficient, in bits of numerator and denominator, of a power
# t^e mod g.  Off the unit circle those coefficients grow like |z|^e, so a
# cocycle of 10^10 would otherwise need integers of about 10^10 bits.
MAX_POWER_BITS = 2**22


class LaurentMatrix:
    """Immutable rows x cols matrix of Laurent polynomials: ``nonzeros`` maps
    (row, column) to each nonzero entry, read-only, and the rest are zero."""

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int, nonzeros):
        kept = {}
        for (i, j), e in nonzeros.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) lies outside a {rows}x{cols} matrix")
            e = poly(e)
            if e.coeffs:
                kept[i, j] = e
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzeros", MappingProxyType(kept))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    @staticmethod
    def from_rows(rows_of_entries) -> "LaurentMatrix":
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        if any(len(r) != cols for r in rows_of_entries):
            raise ValueError("ragged rows")
        return LaurentMatrix(rows, cols, {(i, j): e for i, r in enumerate(rows_of_entries)
                                          for j, e in enumerate(map(poly, r)) if e.coeffs})

    @staticmethod
    def zero(rows: int, cols: int) -> "LaurentMatrix":
        return LaurentMatrix(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        return LaurentMatrix(n, n, {(i, i): LaurentPoly.one() for i in range(n)})

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.nonzeros.get((i, j), _ZERO)

    def row(self, i):
        return [self.nonzeros.get((i, j), _ZERO) for j in range(self.cols)]

    @property
    def entries(self) -> tuple:
        """Every entry, zeros included, in row-major order."""
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        by_row = {}
        for (k, j), y in other.nonzeros.items():
            by_row.setdefault(k, []).append((j, y))
        out = {}  # the products of nonzero pairs only
        for (i, k), x in self.nonzeros.items():
            for j, y in by_row.get(k, ()):
                out[i, j] = out.get((i, j), _ZERO) + x * y
        return LaurentMatrix(self.rows, other.cols, out)

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.nonzeros == other.nonzeros

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.nonzeros.items())))

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
        rows = parse_int(obj["rows"])
        cols = parse_int(obj["cols"])
        ent = obj["entries"]
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError("entry grid does not match declared shape")
        m = LaurentMatrix.from_rows([[LaurentPoly.from_json(e) for e in r] for r in ent])
        return m if rows else LaurentMatrix.zero(0, cols)

    def rank_at(self, z) -> int:
        """Rank of the matrix at z: exact for exact z, and otherwise the
        float rank of ``linalg.numeric_rank`` (complete pivoting) on the
        values of the nonzero entries at z.

        At an exact z with minimal polynomial g, Λ/(g) is the field Q(z) of
        dimension deg g over Q, so the rank is rank_mod(g) / deg g.
        """
        if not isinstance(z, (GaussianRational, _RationalABC)):
            return numeric_rank({ij: e.evaluate(z) for ij, e in self.nonzeros.items()}, z)
        g = minimal_polynomial(z)
        return self.rank_mod(g) // g.span

    def rank_mod(self, g: LaurentPoly) -> int:
        """Rank over Q of this matrix tensored with Λ/(g), for a canonical g
        of positive degree n, so that t is a unit mod g and Λ/(g) is Q[t]/(g).

        Entry p becomes the n x n block of multiplication by p on the basis
        1, t, ..., t^(n-1), and the blocks go to the sparse eliminator.  Each
        distinct entry is reduced once, r = p mod g as in ``residue``, and
        block column b is r t^b mod g, so an entry costs O(log w) products
        per gap of w between its nonzero terms: t^w and t^w - 1 alike.
        """
        power, tail = _powers_mod(g)
        n, r, c = g.span, self.rows, self.cols
        blocks, columns = {}, [{} for _ in range(c * n)]
        for (i, j), e in self.nonzeros.items():
            block = blocks.get(e)
            if block is None:
                # Column b is p t^b; rows and columns run from t^(n-1) down to 1 (faster on the grid tori).
                res = _residue(e, power, tail)
                block = blocks[e] = [[((n - 1 - a) * r, x) for a, x in enumerate(
                    _times(res, power(b), tail)) if x] for b in range(n)]
            for b, column in enumerate(block):
                columns[(n - 1 - b) * c + j].update((row + i, x) for row, x in column)
        return exact_rank(columns)


_ZERO = LaurentPoly.zero()


def residue(p: LaurentPoly, g: LaurentPoly) -> list:
    """The coefficients of p mod g on the basis 1, t, ..., t^(n-1), for a
    canonical g of positive degree n, and no quotient formed.  The cost is
    per nonzero term of p: a gap of w between two terms, or a power t^w,
    costs O(log w) products, so t^w - 1 costs what t^w does."""
    return _residue(p, *_powers_mod(g))


def _residue(p: LaurentPoly, power, tail) -> list:
    """p mod g from ``_powers_mod(g)``'s power table and tail.  Horner's rule
    over p's nonzero terms, from the top: between two terms whose exponents
    differ by d it multiplies by t^d mod g."""
    acc, above = [0] * len(tail), len(p.coeffs) - 1
    for i in range(above, -1, -1):
        if p.coeffs[i]:
            if above - i == 1:  # times t: shift up, and reduce t^n by g
                top = acc[-1]
                acc = [y + top * u for y, u in zip([0] + acc[:-1], tail)]
            elif above > i:
                acc = _times(acc, power(above - i), tail)
            acc[0] += p.coeffs[i]
            above = i
    return _times(acc, power(p.low + above), tail) if p.low + above else acc


def _powers_mod(g: LaurentPoly):
    """e -> t^e mod g for a canonical g of positive degree n, so that t is a
    unit mod g, as n ascending coefficients; and g's tail, with t^n =
    sum tail[i] t^i mod g.  Each power comes from repeated squaring of t or
    1/t and is cached per exponent for the life of the returned function.
    A square whose operand has a coefficient above MAX_POWER_BITS // 2 bits
    raises SizeBoundError before it is formed."""
    if not g.is_canonical or g.span < 1:
        raise ValueError(f"the modulus must be canonical of positive degree, got {g}")
    n = g.span
    tail = [-x for x in g.coeffs[:-1]]
    # 1, and 1/t = -(g_1 + g_2 t + ... + t^(n-1)) / g_0.
    powers = {0: [1] + [0] * (n - 1), -1: [-x / g.coeffs[0] for x in g.coeffs[1:]]}

    def power(e):
        if e not in powers:  # t or 1/t, squared from the top bit of |e| down
            base = out = powers[-1] if e < 0 else _times(powers[0], [0, 1], tail)
            for bit in bin(abs(e))[3:]:
                if max(x.numerator.bit_length() + x.denominator.bit_length() for x in out) > MAX_POWER_BITS // 2:
                    raise SizeBoundError(f"reduction mod {g.pretty()}: t^{e} has a coefficient above "
                                         f"the budget of {MAX_POWER_BITS} bits")
                out = _times(out, _times(out, base, tail) if bit == "1" else out, tail)
            powers[e] = out
        return powers[e]

    return power, tail


def _times(a, coeffs, tail):
    """a times the polynomial with these ascending coefficients in Q[t]/(g),
    by Horner's rule, with t^n = sum tail[i] t^i mod g."""
    acc = [0] * len(a)
    for x in reversed(coeffs):
        top = acc[-1]
        acc = [y + top * u + x * z for y, u, z in zip([0] + acc[:-1], tail, a)]
    return acc


def minimal_polynomial(z) -> LaurentPoly:
    """The minimal polynomial over Q of a nonzero exact point: t - z at a
    rational z, also one written z + 0i, and t^2 - 2at + a^2 + b^2 at a + bi
    with b nonzero.  A float point raises TypeError."""
    a, b = (z.re, z.im) if isinstance(z, GaussianRational) else (z, 0)
    g = LaurentPoly(0, (a * a + b * b, -2 * a, 1) if b else (-a, 1))
    if not g.is_canonical:  # only t - 0 = t lacks a constant term
        raise ZeroDivisionError("the point must be nonzero")
    return g


@dataclass(frozen=True)
class SnfResult:
    """Certified Smith normal form: left*matrix*right is diagonal.

    diag holds the canonicalized nonzero diagonal entries (units appear as
    1), so rank == len(diag) and diag[i] divides diag[i+1].  left_inv and
    right_inv are exact inverses of the transforms.
    """

    left: LaurentMatrix
    diag: tuple
    right: LaurentMatrix
    rank: int
    left_inv: LaurentMatrix = field(repr=False, default=None)
    right_inv: LaurentMatrix = field(repr=False, default=None)

    def diagonal_matrix(self, rows: int, cols: int) -> LaurentMatrix:
        return LaurentMatrix(rows, cols, {(i, i): d for i, d in enumerate(self.diag)})

    def invariant_factors(self):
        """The nonunit diagonal entries."""
        return [d for d in self.diag if d.span > 0]


class _Worker:
    """Mutable elimination state with transform bookkeeping.

    Maintains left*M*right == A after every elementary operation, together
    with the exact inverse transforms.  An operation is ("swap", i, j),
    ("scale", i, u) multiplying line i by the unit u, or ("add", i, j, q)
    adding q times line j to line i.
    """

    def __init__(self, m: LaurentMatrix):
        self.a = [m.row(i) for i in range(m.rows)]
        self.left, self.left_inv = _eye(m.rows), _eye(m.rows)
        self.right, self.right_inv = _eye(m.cols), _eye(m.cols)

    def row_op(self, *op):
        """op on the rows of A and left; its inverse on the columns of left_inv."""
        _on_rows(self.a, op)
        _on_rows(self.left, op)
        _on_cols(self.left_inv, _inverse(op))

    def col_op(self, *op):
        """op on the columns of A and right; its inverse on the rows of right_inv."""
        _on_cols(self.a, op)
        _on_cols(self.right, op)
        _on_rows(self.right_inv, _inverse(op))


def _inverse(op):
    """The operation that undoes op when applied from the other side."""
    if op[0] == "scale":
        return ("scale", op[1], op[2] ** -1)
    if op[0] == "add":
        return ("add", op[2], op[1], -op[3])
    return op


def _on_rows(m, op):
    """Apply an elementary operation to the rows of a list-of-rows matrix;
    an addition skips the zero entries of the added row."""
    kind, i, x = op[0], op[1], op[2]
    if kind == "swap":
        m[i], m[x] = m[x], m[i]
    elif kind == "scale":
        m[i] = [x * e for e in m[i]]
    else:
        q, d = op[3], m[i]
        for j, y in enumerate(m[x]):
            if not y.is_zero():
                d[j] = d[j] + q * y


def _on_cols(m, op):
    """Apply an elementary operation to the columns of a list-of-rows
    matrix; an addition skips the zero entries of the added column."""
    kind, i, x = op[0], op[1], op[2]
    if kind == "swap":
        for r in m:
            r[i], r[x] = r[x], r[i]
    elif kind == "scale":
        for r in m:
            r[i] = r[i] * x
    else:
        q = op[3]
        for r in m:
            if not r[x].is_zero():
                r[i] = r[i] + q * r[x]


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
    Only the benchmark's elimination-only replay (``perfbench/spans.py``)
    passes certify=False, to time the certificate apart.
    """
    w = _Worker(m)
    nr, nc = m.rows, m.cols

    k = 0
    limit = min(nr, nc)
    while k < limit:
        # The pivot: least (span, height) in the trailing block, first in
        # row-major order among equals.
        best = min(((_pivot_key(e), i, j) for i in range(k, nr) for j, e in enumerate(w.a[i][k:], k)
                    if not e.is_zero()), default=None)
        if best is None:
            break
        w.row_op("swap", k, best[1])
        w.col_op("swap", k, best[2])
        p = w.a[k][k]
        remainder = False
        for i in range(k + 1, nr):
            if not w.a[i][k].is_zero():
                q, r = divmod(w.a[i][k], p)
                w.row_op("add", i, k, -q)
                remainder = remainder or not r.is_zero()
        for j in range(k + 1, nc):
            if not w.a[k][j].is_zero():
                q, r = divmod(w.a[k][j], p)
                w.col_op("add", j, k, -q)
                remainder = remainder or not r.is_zero()
        if remainder:
            # A remainder has smaller span than p: pick again.
            continue
        # A unit divides every entry, so only a non-unit pivot is scanned.
        offender = None if p.is_unit() else next(
            (i for i in range(k + 1, nr)
             if any(not e.is_zero() and not (e % p).is_zero() for e in w.a[i][k + 1:])), None)
        if offender is None:
            k += 1
        else:
            # Row k now holds an entry p does not divide: pick again.
            w.row_op("add", k, offender, LaurentPoly.one())

    # Canonicalize the diagonal by unit row scalings.
    diag = []
    for i in range(limit):
        d = w.a[i][i]
        if d.is_zero():
            break
        unit = LaurentPoly(-d.low, (1 / d.coeffs[-1],))
        if not unit.is_one():
            w.row_op("scale", i, unit)
        diag.append(w.a[i][i])

    res = SnfResult(left=LaurentMatrix.from_rows(w.left), diag=tuple(diag),
                    right=LaurentMatrix.from_rows(w.right), rank=len(diag),
                    left_inv=LaurentMatrix.from_rows(w.left_inv),
                    right_inv=LaurentMatrix.from_rows(w.right_inv))
    if certify:
        _certify(m, res)
    return res


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
        if t * ti != LaurentMatrix.identity(t.rows):
            raise CertificationError("snf", "a transform times its inverse is not the identity")

