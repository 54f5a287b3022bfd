"""Exact Laurent polynomials over the rationals.

A Laurent polynomial is stored as a lowest exponent plus a dense coefficient
run whose first and last entries are nonzero; the zero polynomial is the
empty run.  This representation is unique, so ``==`` is mathematical
equality.  Units of the ring are exactly the monomials c*t^k with c a
nonzero rational; ``canonicalize`` picks the associate with lowest exponent
zero, nonzero constant term and monic leading coefficient, which is the
representative used for invariant factors and characteristic polynomials
throughout the package.

Coefficients are rationals only, and the constructor is the one place that
enforces it: anything but an exact rational raises TypeError.  Nor is a
Gaussian rational a point of ``evaluate``: exact work at a + bi reduces
modulo its minimal polynomial (``LaurentMatrix.rank_mod``).

Ring operations take LaurentPoly operands only: ``poly("t") + 1`` and
``2 * poly("t")`` raise TypeError, and ``poly("0") == 0`` is false.  A
scalar enters the ring as ``poly("2")`` or ``LaurentPoly.constant(2)``;
``poly`` is the one reader of strings and rationals.

``laurent_gcd`` and ``squarefree_decomposition`` run over Z, on lists of
Python ints: each input is scaled to its primitive integer associate, and
by Gauss's lemma a primitive divisor over Q divides over Z as well, so the
gcd needs no rational and every division in the decomposition is an exact
integer one.  The same kernel (``_int_coeffs``, ``_primitive``,
``_exact_quo``) deflates the rational roots in ``spectral``; there is no
second, rational-coefficient route to primitive parts or exact quotients.
Float evaluation, here and in the root finder, goes through ``_horner``.

>>> poly("t^2 - 1") == poly("t - 1") * poly("t + 1")
True
>>> divmod(poly("t - 2"), poly("t - 1"))
(poly('1'), poly('-1'))
>>> canonicalize(poly("2*t^2 - 2*t"))
poly('t - 1')
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational as _RationalABC

from .errors import CertificationError
from .rationals import GaussianRational, parse_int, parse_rational


def _norm_coeff(c):
    """Coerce an exact rational to Fraction; anything else is a TypeError."""
    if isinstance(c, _RationalABC):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient {c!r}")


class LaurentPoly:
    """An element of the Laurent polynomial ring Q[t, 1/t]."""

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int = 0, coeffs=()):
        # A Fraction is already in lowest terms, so one is kept as given;
        # the exact-type test lets subclasses through _norm_coeff.
        coeffs = [c if type(c) is Fraction else _norm_coeff(c) for c in coeffs]
        start, end = 0, len(coeffs)
        while start < end and coeffs[start] == 0:
            start += 1
        while end > start and coeffs[end - 1] == 0:
            end -= 1
        if start == end:
            object.__setattr__(self, "low", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "low", low + start)
            object.__setattr__(self, "coeffs", tuple(coeffs[start:end]))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        """The zero polynomial: one shared instance, since polynomials are
        immutable."""
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        """The constant 1: one shared instance, like ``zero``."""
        return _ONE

    @staticmethod
    def constant(c) -> "LaurentPoly":
        return LaurentPoly(0, (c,))

    @staticmethod
    def t_power(k: int, c=Fraction(1)) -> "LaurentPoly":
        return LaurentPoly(k, (c,))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit(self) -> bool:
        """True for c*t^k with c nonzero."""
        return len(self.coeffs) == 1

    def is_one(self) -> bool:
        return self.low == 0 and self.coeffs == (Fraction(1),)

    @property
    def high(self) -> int:
        """Largest exponent with nonzero coefficient (0 for the zero poly)."""
        return self.low + len(self.coeffs) - 1 if self.coeffs else 0

    @property
    def span(self) -> int:
        """Degree span: high - low.  The zero polynomial has span -1."""
        return len(self.coeffs) - 1

    @property
    def is_canonical(self) -> bool:
        return (
            bool(self.coeffs)
            and self.low == 0
            and self.coeffs[-1] == 1
            and self.coeffs[0] != 0
        )

    def height(self) -> int:
        """Max of |numerator| and denominator over all coefficients."""
        h = 0
        for c in self.coeffs:
            h = max(h, abs(c.numerator), c.denominator)
        return h

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        out = [Fraction(0)] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] = out[self.low - low + i] + c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] = out[other.low - low + i] + c
        return LaurentPoly(low, out)

    def __neg__(self):
        return LaurentPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return LaurentPoly(self.low + other.low, out)

    # Never succeeds, since the left operand is then not a LaurentPoly; kept
    # only because the benchmark's span tracer wraps it by name.
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_unit():
                raise ValueError("negative power of a non-unit")
            return LaurentPoly(self.low * n, ((1 / self.coeffs[0]) ** (-n),))
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        """Division with remainder, after aligning t-powers.

        Writes self = other * quot + rem with rem = 0 or
        span(rem) < span(other).  Exact in the Laurent ring.
        """
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly.zero(), LaurentPoly.zero()
        # Strip t-powers: both operands become polynomials with nonzero
        # constant term; the stripped powers are units and are restored below.
        rem = list(self.coeffs)
        div = other.coeffs
        dn = len(div)
        lead_inv = 1 / div[-1]
        quot = [Fraction(0)] * max(len(rem) - dn + 1, 0)
        for top in range(len(rem) - 1, dn - 2, -1):
            c = rem[top]
            if c == 0:
                continue
            q = c * lead_inv
            quot[top - dn + 1] = q
            rem[top] = Fraction(0)
            for j in range(dn - 1):
                rem[top - dn + 1 + j] = rem[top - dn + 1 + j] - q * div[j]
        return (
            LaurentPoly(self.low - other.low, quot),
            LaurentPoly(self.low, rem),
        )

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other) -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    # -- substitution ---------------------------------------------------

    def evaluate(self, z):
        """Evaluate at a number z: exact at a rational, float otherwise.

        z must be nonzero when the polynomial has negative exponents.  A
        GaussianRational raises TypeError rather than being rounded.  A
        float value that overflows, through a coefficient or a power of z
        beyond float range, comes back as complex NaN, a value that is not
        finite, which ``linalg.numeric_rank`` refuses.
        """
        if isinstance(z, GaussianRational):
            raise TypeError("a Gaussian point is reached through its minimal polynomial, not evaluated")
        if isinstance(z, _RationalABC):
            z = Fraction(z)
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * z + c
            return acc * z ** self.low if self.low else acc
        z = complex(z)
        try:
            acc = _horner([float(c) for c in self.coeffs], z)
            return acc * z ** self.low if self.low else acc
        except OverflowError:
            return complex(math.nan, math.nan)

    def reversed_variable(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        if self.is_zero():
            return self
        return LaurentPoly(-self.high, tuple(reversed(self.coeffs)))

    # -- JSON -------------------------------------------------------------

    def to_json(self):
        return {"lowest": self.low, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "LaurentPoly":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError(f"not a Laurent polynomial object: {obj!r}")
        return LaurentPoly(parse_int(obj.get("lowest", 0)), [parse_rational(c) for c in obj["coeffs"]])

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.low == other.low and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            e = self.low + i
            neg = c < 0
            sign = (" - " if neg else " + ") if parts else ("-" if neg else "")
            cs = str(-c if neg else c)
            if e == 0:
                term = cs
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if cs == "1" else f"{cs}*{var}"
            parts.append(sign + term)
        return "".join(parts)

    def __repr__(self):
        return f"poly({self.pretty()!r})"

    __str__ = pretty


_ZERO = LaurentPoly(0, ())
_ONE = LaurentPoly(0, (Fraction(1),))


def _horner(coeffs, z) -> complex:
    """The polynomial with ascending float coefficients at z, by Horner's
    rule in complex arithmetic."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*)?(?P<var1>t(?:\^(?P<exp1>-?\d+))?)?
          | (?P<var2>t(?:\^(?P<exp2>-?\d+))?)
        )\s*""",
    re.VERBOSE,
)


def poly(text) -> LaurentPoly:
    """Parse a human-readable Laurent polynomial, e.g. ``"t^-1 - 2*t + 1/2"``.

    Also reads an exact rational as a constant and returns a LaurentPoly
    unchanged; anything else raises TypeError.  This is the one way a
    scalar becomes a LaurentPoly, since the ring operations take LaurentPoly
    operands only.
    """
    if isinstance(text, LaurentPoly):
        return text
    if isinstance(text, _RationalABC):
        return LaurentPoly.constant(text)
    if not isinstance(text, str):
        raise TypeError(f"cannot read a Laurent polynomial from {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    out = LaurentPoly.zero()
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        var = m.group("var1") or m.group("var2")
        exp = 0
        if var:
            es = m.group("exp1") or m.group("exp2")
            exp = int(es) if es else 1
        out = out + LaurentPoly.t_power(exp, sign * coeff)
        pos = m.end()
    return out


def canonicalize(p: LaurentPoly) -> LaurentPoly:
    """The canonical associate: lowest exponent 0, monic, nonzero constant.

    Associates (polynomials differing by a unit c*t^k) map to equal outputs;
    the map is idempotent.  Rejects the zero polynomial.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no canonical associate")
    inv = 1 / p.coeffs[-1]
    return LaurentPoly(0, tuple(c * inv for c in p.coeffs))


def _int_coeffs(p: LaurentPoly) -> list:
    """The primitive integer associate of p's coefficient run, ascending.

    Clears denominators and divides out the content, so the leading
    coefficient is positive; the zero polynomial gives [].
    """
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _primitive(a: list) -> list:
    """a divided by t^k and by its signed content, so that the constant
    term is nonzero and the leading coefficient positive; [] stays []."""
    if not a:
        return a
    start = 0
    while a[start] == 0:
        start += 1
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a[start:]]


def _trim(a: list) -> list:
    """Drop zero leading coefficients, so that [] is the zero polynomial."""
    end = len(a)
    while end and a[end - 1] == 0:
        end -= 1
    return a[:end]


def _derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _sub(a: list, b: list) -> list:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return _trim([x - y for x, y in zip(a, b)] + a[len(b):])


def _prem(a: list, b: list) -> list:
    """A nonzero integer multiple of the remainder of a by b (b nonzero).

    Each step scales the running remainder by lead(b)/g instead of
    inverting lead(b), with g the gcd of lead(b) and the coefficient being
    cancelled; the multiple is removed by the caller's primitive part.
    """
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c == 0:
            continue
        g = math.gcd(lead, c)
        m, c = lead // g, c // g
        base = top - db
        if m != 1:
            for i in range(top):
                r[i] *= m
        for j in range(db):
            r[base + j] -= c * b[j]
    return _trim(r[:db])


def _int_gcd(a: list, b: list) -> list:
    """Primitive gcd of two integer polynomials, not both zero, up to t-powers.

    Primitive pseudo-remainder sequence: by Gauss's lemma the primitive
    part of the gcd over Q is the gcd over Z, so no rational ever appears.
    """
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _exact_quo(n: list, a: list) -> list:
    """n / a over Z, for a primitive divisor a of n in Q[t].

    By Gauss's lemma a then divides n in Z[t], so every coefficient
    division is exact; one that is not is an internal failure.
    """
    r = list(n)
    da = len(a) - 1
    lead = a[-1]
    q = [0] * max(len(r) - da, 0)
    for top in range(len(r) - 1, da - 1, -1):
        c = r[top]
        if c == 0:
            continue
        qc, rem = divmod(c, lead)
        if rem:
            raise CertificationError("squarefree", "inexact integer division")
        q[top - da] = qc
        for j in range(da):
            r[top - da + j] -= qc * a[j]
    if any(r[:da]):
        raise CertificationError("squarefree", "inexact integer division")
    return q


def laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Greatest common divisor in the Laurent ring, in canonical form.

    Runs over Z on the primitive integer associates of p and q (a primitive
    pseudo-remainder sequence); gcds are unique up to units and
    ``canonicalize`` picks the same associate as a Euclid chain over Q.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return canonicalize(LaurentPoly(0, _int_gcd(_int_coeffs(p), _int_coeffs(q))))


def squarefree_decomposition(p: LaurentPoly):
    """Split p into pairwise-coprime square-free factors with multiplicities.

    Returns [(factor, multiplicity), ...] with multiplicities strictly
    increasing and each factor canonical of positive span; the product of
    factor^multiplicity equals canonicalize(p).  Units give [].
    Yun's algorithm on the primitive integer associate of p, so
    multiplicities are exact.  Every division in it is by a primitive
    divisor, which by Gauss's lemma divides over Z as well as over Q, so
    all divisions are exact integer ones.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    f = _int_coeffs(p)
    if len(f) == 1:
        return []
    fp = _derivative(f)
    g = _int_gcd(f, fp)
    c = _exact_quo(f, g)
    d = _sub(_exact_quo(fp, g), _derivative(c))
    out = []
    mult = 1
    while len(c) > 1:
        a = _int_gcd(c, d)
        if len(a) > 1:
            out.append((canonicalize(LaurentPoly(0, a)), mult))
        c = _exact_quo(c, a)
        d = _sub(_exact_quo(d, a), _derivative(c))
        mult += 1
    return out
