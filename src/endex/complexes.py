"""Chain complexes of free modules over the Laurent ring.

Complexes arrive either as explicit boundary matrices or as a finite
simplicial complex equipped with an integer edge cocycle classifying an
infinite cyclic cover; the latter is lifted degree by degree, straight
into the d + 1 nonzero entries ±t^w of each boundary column.  Every
constructed complex is validated exactly: shapes must compose and
consecutive boundaries must multiply to zero.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import ComplexValidationError
from .laurent import LaurentPoly
from .polymatrix import LaurentMatrix
from .rationals import parse_int


class ChainComplexOverLambda:
    """A bounded complex of free Laurent-ring modules.

    ranks[k] is the rank of the degree-k module for k = 0..n; boundaries[k-1]
    is the map from degree k to degree k-1.  The composite of consecutive
    boundaries is checked to vanish identically at construction time.
    """

    __slots__ = ("n", "ranks", "boundaries")

    def __init__(self, ranks, boundaries):
        ranks = tuple(parse_int(r) for r in ranks)
        if not ranks:
            ranks = (0,)
        if any(r < 0 for r in ranks):
            raise ComplexValidationError("negative rank")
        boundaries = tuple(boundaries)
        n = len(ranks) - 1
        if len(boundaries) != n:
            raise ComplexValidationError(
                f"expected {n} boundary matrices for top degree {n}, got {len(boundaries)}"
            )
        for k, b in enumerate(boundaries, start=1):
            if b.rows != ranks[k - 1] or b.cols != ranks[k]:
                raise ComplexValidationError(
                    f"boundary {k} has shape {b.rows}x{b.cols}, expected {ranks[k - 1]}x{ranks[k]}"
                )
        for k in range(1, n):
            prod = boundaries[k - 1] * boundaries[k]
            if prod.nonzeros:
                i, j = min(prod.nonzeros)  # the first in row-major order
                raise ComplexValidationError(f"boundary composite at degree {k + 1} is nonzero at entry ({i}, {j})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "boundaries", boundaries)

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplexOverLambda is immutable")

    def boundary(self, k: int) -> LaurentMatrix:
        """The degree-k boundary map, with zero maps off the ends."""
        if 1 <= k <= self.n:
            return self.boundaries[k - 1]
        if k <= 0:
            return LaurentMatrix.zero(0, self.ranks[0] if k == 0 else 0)
        return LaurentMatrix.zero(self.ranks[self.n] if k == self.n + 1 else 0, 0)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))

    def to_json(self):
        return {
            "n": self.n,
            "ranks": list(self.ranks),
            "boundaries": [b.to_json() for b in self.boundaries],
        }

    def __repr__(self):
        return f"ChainComplexOverLambda(ranks={list(self.ranks)})"


def from_boundary_matrices(data) -> ChainComplexOverLambda:
    """Build and validate a complex from its serialized form.

    Accepts {"n": n, "ranks": [...], "boundaries": [matrix...]}; "n" is
    optional and cross-checked when present.
    """
    if "ranks" not in data or "boundaries" not in data:
        raise ComplexValidationError("complex object needs 'ranks' and 'boundaries'")
    ranks = data["ranks"]
    boundaries = [LaurentMatrix.from_json(b) for b in data["boundaries"]]
    cc = ChainComplexOverLambda(ranks, boundaries)
    if "n" in data and parse_int(data["n"]) != cc.n:
        raise ComplexValidationError(f"declared top degree {data['n']} but ranks give {cc.n}")
    return cc


class SimplicialInput:
    """A finite simplicial complex with an integer 1-cocycle on its edges.

    Vertices are 0..n_vertices-1.  simplices maps dimension d >= 1 to the
    sorted tuple of (d+1)-tuples with strictly increasing vertices; the
    complex must be closed under faces.  The cocycle assigns an integer to
    every edge (u, v) with u < v and must satisfy the cocycle identity
    c(a,b) + c(b,c) = c(a,c) on every 2-simplex.  Both mappings are
    read-only, so what was validated stays valid.
    """

    __slots__ = ("n_vertices", "simplices", "cocycle")

    def __init__(self, n_vertices: int, simplices, cocycle):
        if n_vertices < 0:
            raise ComplexValidationError("negative vertex count")
        simps: dict[int, tuple] = {}
        for d, lst in simplices.items():
            d = parse_int(d)
            if d < 1:
                raise ComplexValidationError("explicit simplices start at dimension 1")
            seen = set()
            out = []
            for s in lst:
                s = tuple(parse_int(v) for v in s)
                if len(s) != d + 1:
                    raise ComplexValidationError(f"{s} is not a {d}-simplex")
                if any(not (0 <= v < n_vertices) for v in s):
                    raise ComplexValidationError(f"simplex {s} has a vertex out of range")
                if any(s[i] >= s[i + 1] for i in range(d)):
                    raise ComplexValidationError(f"simplex {s} is not strictly increasing")
                if s in seen:
                    raise ComplexValidationError(f"duplicate simplex {s}")
                seen.add(s)
                out.append(s)
            if out:
                simps[d] = tuple(sorted(out))
        cmap = {}
        for key, w in cocycle.items():
            if isinstance(key, str):
                u, v = (parse_int(x) for x in key.split(","))
            else:
                u, v = (parse_int(x) for x in key)
            if not u < v:
                raise ComplexValidationError(f"cocycle edge ({u},{v}) must have u < v")
            cmap[(u, v)] = parse_int(w)
        object.__setattr__(self, "n_vertices", parse_int(n_vertices))
        object.__setattr__(self, "simplices", MappingProxyType(simps))
        object.__setattr__(self, "cocycle", MappingProxyType(cmap))
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialInput is immutable")

    def _validate(self):
        top = max(self.simplices, default=0)
        for d in range(2, top + 1):
            lower = set(self.simplices.get(d - 1, ()))
            for s in self.simplices.get(d, ()):
                for i in range(d + 1):
                    face = s[:i] + s[i + 1 :]
                    if face not in lower:
                        raise ComplexValidationError(f"face {face} of {s} is missing")
        # Face closure puts every vertex pair of a simplex in simplices[1].
        for s in self.simplices.get(1, ()):
            if s not in self.cocycle:
                raise ComplexValidationError(f"edge ({s[0]},{s[1]}) has no cocycle value")
        for s in self.simplices.get(2, ()):
            a, b, c = s
            if self.cocycle[(a, b)] + self.cocycle[(b, c)] != self.cocycle[(a, c)]:
                raise ComplexValidationError(
                    f"cocycle identity fails on 2-simplex {s}: "
                    f"c({a},{b}) + c({b},{c}) != c({a},{c})"
                )

    @property
    def dimension(self) -> int:
        return max(self.simplices, default=0)

    def simplex_list(self, d: int):
        if d == 0:
            return [(v,) for v in range(self.n_vertices)]
        return list(self.simplices.get(d, ()))

    def edge_value(self, u: int, v: int) -> int:
        """Cocycle value on the ordered pair (u, v); antisymmetric."""
        if u == v:
            return 0
        if u < v:
            return self.cocycle[(u, v)]
        return -self.cocycle[(v, u)]

    @staticmethod
    def from_json(obj) -> "SimplicialInput":
        return SimplicialInput(
            n_vertices=parse_int(obj["vertices"]),
            simplices=obj.get("simplices", {}),
            cocycle=obj.get("cocycle", {}),
        )


def lift_simplicial(x: SimplicialInput) -> ChainComplexOverLambda:
    """Chain complex of the infinite cyclic cover determined by the cocycle.

    Each simplex is lifted at the level of its minimal vertex; the face
    obtained by dropping vertex i then sits t^w levels up, where w is the
    cocycle value between the two minimal vertices.  With strictly
    increasing vertex tuples only the 0th face can shift, by the value on
    the leading edge.  The boundary-squared identity follows from the
    cocycle identity but is still verified exactly.
    """
    top = x.dimension
    ranks = [len(x.simplex_list(d)) for d in range(top + 1)]
    boundaries = []
    for d in range(1, top + 1):
        index = {s: i for i, s in enumerate(x.simplex_list(d - 1))}
        nonzeros = {}
        for j, s in enumerate(x.simplex_list(d)):
            # The d + 1 faces of s are distinct, so each sets its own entry.
            for i in range(d + 1):
                face = s[:i] + s[i + 1 :]
                nonzeros[index[face], j] = LaurentPoly.t_power(x.edge_value(s[0], face[0]), -1 if i % 2 else 1)
        boundaries.append(LaurentMatrix(ranks[d - 1], ranks[d], nonzeros))
    return ChainComplexOverLambda(ranks, boundaries)
