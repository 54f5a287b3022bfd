"""Exception types shared across the package."""

from __future__ import annotations


class EndexError(Exception):
    """Base class for all package-specific failures."""


class ComplexValidationError(EndexError):
    """Input does not describe a valid chain complex or simplicial datum."""


class NotFiniteError(EndexError):
    """Homology has free summands: the end-periodic total homology is
    infinite dimensional and no characteristic polynomials exist."""

    def __init__(self, degrees):
        self.degrees = sorted(degrees)
        super().__init__(f"homology is infinite dimensional in degrees {self.degrees}")


class OnWallError(EndexError):
    """The requested weight lies on (or within certified radius of) an
    exceptional wall, where the weighted complex may fail to be Fredholm."""

    def __init__(self, delta, wall_delta):
        self.delta = delta
        self.wall_delta = wall_delta
        super().__init__(f"weight {delta} lies on the wall at {wall_delta}")


class AmbiguousWallError(EndexError):
    """Two root moduli overlap within certified error but their equality
    cannot be decided exactly; refusing to merge or separate them."""


class WindowTooSmallError(EndexError):
    """The weights lie so close to ln|lambda| that the shift-kernel oracle
    would need a window wider than its largest, MAX_WINDOW; carries the
    half-width the kernel tolerance needs (required_n)."""

    def __init__(self, required_n: int, message: str):
        self.required_n = required_n
        super().__init__(message)


class FloatRangeError(EndexError, ValueError):
    """A float the numeric routes cannot use: a weight that is not finite
    or whose e^delta is not a positive finite float, an evaluation point
    that is not finite, an evaluated matrix with an entry that is not, or
    a characteristic polynomial whose float roots overflow.
    Stays a ValueError, like the other refused argument values."""


class SizeBoundError(EndexError):
    """A stage would form a value above a stated size bound; the message
    names the stage and the bound."""


class UnsupportedInputError(EndexError):
    """The operation needs an input form this datum does not provide."""


class CertificationError(EndexError, RuntimeError):
    """An internal invariant check failed: a computed result did not pass
    the check that certifies it.  Names the stage and the failed check;
    stays a RuntimeError so callers that catch one still catch it."""

    def __init__(self, stage: str, check: str):
        self.stage = stage
        self.check = check
        super().__init__(f"internal check failed in {stage}: {check}")
