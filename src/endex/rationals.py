"""Exact scalars: rationals, and Gaussian rationals as evaluation points.

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator), the package's only exact scalar type.  A Gaussian rational
a+bi is a plain pair of Fractions naming a point of the punctured plane;
code that evaluates there works on the (re, im) pair.  This module also
decodes the string form every serialized schema uses: a rational is
written ``"p/q"`` (or just ``"p"`` when the denominator is 1), which is
what ``str`` of a ``Fraction`` gives.
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
    """The point re + im*i of Q(i), held as an exact pair of Fractions."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))
