"""Homology of Laurent-ring chain complexes as finitely generated modules.

Each degree decomposes as a free part plus a torsion part described by a
divisibility chain of invariant factors.  A kernel basis in degree k is
read off the Smith normal form of the boundary (the columns of the right
transform past the rank), the incoming boundary is rewritten in that basis
through the exact inverse transform, and a second Smith normal form gives
the invariant factors.  The top degree n needs neither: nothing comes in,
and H_n = ker d_n is a submodule of a free module over the PID Q[t, 1/t],
so it is free, of rank c_n - rank d_n, with no invariant factors.

These steps need no checks of their own.  Each Smith normal form is
certified, and every complex has d_k d_(k+1) = 0 from construction;
together they make the rewritten boundary vanish above the rank and keep
its rank.  By rank-nullity the alternating free ranks sum to the Euler
characteristic.  The tests cross-check the polynomials by an independent
route, Milnor's torsion at rational points.

The characteristic polynomial of the covering translation in degree k is
the canonicalized product of that degree's invariant factors; it exists
only when every free rank vanishes.
"""

from __future__ import annotations

from .complexes import ChainComplexOverLambda
from .errors import NotFiniteError
from .laurent import LaurentPoly, canonicalize
from .polymatrix import LaurentMatrix, smith_normal_form


class HomologyModule:
    """Per-degree free ranks and invariant factor chains."""

    __slots__ = ("n", "free_ranks", "factors")

    def __init__(self, n: int, free_ranks, factors):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "free_ranks", tuple(free_ranks))
        object.__setattr__(self, "factors", tuple(tuple(f) for f in factors))
        for chain in self.factors:
            for i in range(len(chain) - 1):
                if not chain[i].divides(chain[i + 1]):
                    raise ValueError("invariant factors do not form a divisibility chain")
            for q in chain:
                if q.span == 0 or not q.is_canonical:
                    raise ValueError(f"invariant factor {q!r} is not canonical nonconstant")

    def __setattr__(self, name, value):
        raise AttributeError("HomologyModule is immutable")

    @property
    def infinite_degrees(self) -> tuple:
        """The degrees with a free summand; the module is finite
        dimensional over Q exactly when there are none."""
        return tuple(k for k, r in enumerate(self.free_ranks) if r > 0)

    def invariant_factors(self, k: int):
        return list(self.factors[k]) if 0 <= k <= self.n else []

    def torsion_dim(self, k: int) -> int:
        """Dimension of the degree-k torsion part as a rational vector space."""
        return sum(q.span for q in self.invariant_factors(k))

    def to_json(self):
        return {
            "n": self.n,
            "degrees": [
                {
                    "degree": k,
                    "free_rank": self.free_ranks[k],
                    "invariant_factors": [q.to_json() for q in self.factors[k]],
                    "dim": self.torsion_dim(k) if self.free_ranks[k] == 0 else None,
                }
                for k in range(self.n + 1)
            ],
        }

    def __repr__(self):
        parts = []
        for k in range(self.n + 1):
            desc = []
            if self.free_ranks[k]:
                desc.append(f"free^{self.free_ranks[k]}")
            desc.extend(q.pretty() for q in self.factors[k])
            parts.append(f"H{k}=({' , '.join(desc) or '0'})")
        return f"HomologyModule({'; '.join(parts)})"


def homology(cc: ChainComplexOverLambda) -> HomologyModule:
    """Compute every homology module of the complex."""
    n = cc.n
    snfs = {k: smith_normal_form(cc.boundary(k)) for k in range(1, n + 1)}
    rank = [0] + [snfs[k].rank for k in range(1, n + 1)] + [0]
    free_ranks = [cc.ranks[k] - rank[k] - rank[k + 1] for k in range(n + 1)]
    factors = []
    for k in range(n):
        if k == 0:
            incoming_in_kernel = cc.boundary(1)
        else:
            s = snfs[k]
            rewritten = s.right_inv * cc.boundary(k + 1)
            # The rows up to the rank vanish, since the composite is zero.
            incoming_in_kernel = LaurentMatrix(cc.ranks[k] - s.rank, rewritten.cols,
                                               {(i - s.rank, j): e for (i, j), e in rewritten.nonzeros.items()})
        factors.append(smith_normal_form(incoming_in_kernel).invariant_factors())
    # H_n = ker d_n is free (see the module docstring).
    factors.append([])
    return HomologyModule(n, free_ranks, factors)


class AlexanderData:
    """Characteristic polynomials of the covering translation, one per
    degree 0..n."""

    __slots__ = ("n", "polys")

    def __init__(self, n: int, polys):
        polys = [canonicalize(p) for p in polys]
        if len(polys) == n:
            polys.append(LaurentPoly.one())
        if len(polys) != n + 1:
            raise ValueError(f"need polynomials for degrees 0..{n} (or 0..{n - 1}), got {len(polys)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "polys", tuple(polys))

    def __setattr__(self, name, value):
        raise AttributeError("AlexanderData is immutable")

    def poly(self, k: int) -> LaurentPoly:
        return self.polys[k] if 0 <= k <= self.n else LaurentPoly.one()

    def to_json(self):
        return {"n": self.n, "polys": [p.to_json() for p in self.polys]}

    def __repr__(self):
        inner = ", ".join(p.pretty() for p in self.polys)
        return f"AlexanderData(n={self.n}: {inner})"


def alexander_polynomials(h: HomologyModule, n: int | None = None) -> AlexanderData:
    """Per-degree products of invariant factors, canonicalized monic.

    Raises NotFiniteError when any free rank is positive; the polynomials
    only exist for torsion homology.
    """
    if h.infinite_degrees:
        raise NotFiniteError(h.infinite_degrees)
    if n is None:
        n = h.n
    polys = []
    for k in range(n + 1):
        p = LaurentPoly.one()
        for q in h.invariant_factors(k):
            p = p * q
        polys.append(p)
    return AlexanderData(n, polys)
