"""The index of the weighted complex as a step function of the weight.

`index_function(n, chi, walls)` assembles it from the manifold dimension,
the Euler characteristic and the walls of `spectral.exceptional_weights`
by the closed count: the signed number of roots of each characteristic
polynomial outside the weight circle, plus the large-weight value
(-1)^n chi.  Each wall's jump is built from the same roots, so the values
step by exactly the jumps; the tests keep the accumulation of jumps as a
reference.  Weights on a wall have no index; querying one raises
OnWallError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OnWallError
from .homology import AlexanderData
from .laurent import canonicalize
from .spectral import Wall, wall_at

# How many mirrored weights the parity check of duality_check samples.
MIRRORED_SAMPLES = 10


@dataclass(frozen=True)
class IndexFunction:
    """Piecewise constant index: values[i] on the open interval between
    wall i-1 and wall i (values[0] leftmost, values[-1] rightmost)."""

    n: int
    chi: int
    walls: tuple[Wall, ...]
    values: tuple

    @property
    def wall_deltas(self):
        return [w.delta for w in self.walls]

    def interval_of(self, delta: float) -> int:
        """Index of the open interval containing delta; OnWallError if the
        weight lies on a wall (`spectral.wall_at`)."""
        wall = wall_at(self.walls, delta)
        if wall is not None:
            raise OnWallError(delta, wall.delta)
        return sum(1 for w in self.walls if w.delta < delta)

    def sample_points(self):
        """One representative weight per interval: midpoints inside, one
        past the outermost wall outside."""
        ws = self.wall_deltas
        if not ws:
            return [0.0]
        pts = [ws[0] - 1.0]
        for a, b in zip(ws, ws[1:]):
            pts.append((a + b) / 2.0)
        pts.append(ws[-1] + 1.0)
        return pts

    def to_json(self):
        ws = self.wall_deltas
        intervals = []
        for i, v in enumerate(self.values):
            intervals.append(
                {
                    "lo": ws[i - 1] if i > 0 else None,
                    "hi": ws[i] if i < len(ws) else None,
                    "value": v,
                }
            )
        return {
            "n": self.n,
            "chi": self.chi,
            "walls": [w.to_json() for w in self.walls],
            "values": list(self.values),
            "intervals": intervals,
        }


def _closed_values(n: int, chi: int, walls: tuple[Wall, ...]):
    """Index on each interval by the closed root count.

    On the interval left of wall i the roots with |root| above the weight
    circle are exactly those sitting on walls i, i+1, ...; counting by wall
    membership keeps the count exact.
    """
    end = (-1) ** n * chi
    out = []
    for i in range(len(walls) + 1):
        acc = end
        for w in walls[i:]:
            for r in w.contributions:
                acc += (-1) ** r.degree_k * r.multiplicity
        out.append(acc)
    return out


def index_function(n: int, chi: int, walls: tuple[Wall, ...]) -> IndexFunction:
    """Assemble the step function by the closed count on every interval."""
    if chi is None:
        raise ValueError("index function needs the Euler characteristic")
    return IndexFunction(n=n, chi=chi, walls=walls, values=tuple(_closed_values(n, chi, walls)))


def index_at(f: IndexFunction, delta: float) -> int:
    """Value of the step function at an off-wall weight."""
    return f.values[f.interval_of(delta)]


def excision_index(delta1: float, delta2: float, f: IndexFunction) -> int:
    """Index of the doubly weighted complex on the cover: the difference of
    the step function at the two weights (the Euler term cancels).  Both
    values are closed counts, so this is the signed count of root
    multiplicities in the open annulus between the two weight circles.
    """
    i1, i2 = f.interval_of(delta1), f.interval_of(delta2)
    return f.values[i2] - f.values[i1]


def mirrored_sample_points(f: IndexFunction):
    """MIRRORED_SAMPLES deterministic positive weights with both +d and -d
    off every wall."""
    ws = f.wall_deltas
    reach = max((abs(d) for d in ws), default=0.0) + 1.0
    pts = []
    j = 1
    while len(pts) < MIRRORED_SAMPLES and j < 1000:
        d = reach * j / (MIRRORED_SAMPLES + 3)
        j += 1
        try:
            f.interval_of(d)
            f.interval_of(-d)
        except OnWallError:
            continue
        pts.append(d)
    return pts


def duality_check(alex: AlexanderData, f: IndexFunction | None = None):
    """Root-reversal symmetry of the polynomials and parity of the index.

    Degree k pairs with n-1-k, n = alex.n: the reversed partner polynomial
    must be the canonical associate of the degree-k one.  When a step
    function is supplied, ind(-d) == (-1)^n ind(d) is checked at mirrored
    samples.  Failures are reported, not raised: inputs need not come from
    manifolds.
    """
    n = alex.n
    pairs = []
    all_ok = True
    for k in range((n + 1) // 2):
        partner = n - 1 - k
        reversed_partner = canonicalize(alex.poly(partner).reversed_variable())
        # Both polynomials are canonical, so this one comparison also
        # covers the reversal of degree k against its partner.
        ok = reversed_partner == alex.poly(k)
        pairs.append({"k": k, "partner": partner, "ok": ok})
        all_ok = all_ok and ok
    report = {"pairs": pairs, "ok": all_ok}
    if f is not None:
        sign = (-1) ** n
        samples = []
        parity_ok = True
        for d in mirrored_sample_points(f):
            left = index_at(f, -d)
            right = index_at(f, d)
            ok = left == sign * right
            parity_ok = parity_ok and ok
            samples.append({"delta": d, "ind_neg": left, "ind_pos": right, "ok": ok})
        report["parity"] = {"n_parity": "even" if n % 2 == 0 else "odd", "ok": parity_ok, "samples": samples}
        report["ok"] = all_ok and parity_ok
    return report
