"""Exact scalar arithmetic: rationals and Gaussian rationals.

Plain rationals are ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  This module adds the complex extension Q(i) needed
for exact evaluation points z in the punctured plane, plus the decoding of
the string form every serialized schema uses: a rational is written
``"p/q"`` (or just ``"p"`` when the denominator is 1), which is what
``str`` of a ``Fraction`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC


def parse_rational(s) -> Fraction:
    """Decode ``p/q`` strings; integers and Fractions pass through exactly.

    Floats are rejected: every serialized coefficient must round-trip
    bit-exactly.
    """
    if isinstance(s, _RationalABC):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s.strip())
    raise ValueError(f"not an exact rational: {s!r}")


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i), held as an exact real/imaginary pair.

    Supports field arithmetic with other GaussianRationals and with
    Fraction/int scalars.  Instances are immutable and hashable.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        """|z|^2, exactly."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = GaussianRational(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RationalABC):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _RationalABC):
        return GaussianRational(Fraction(value), Fraction(0))
    return None
