"""One shared analysis per input: homology, characteristic polynomials,
roots, walls, index.

An `Analysis` is one parsed input, and computes each stage of the chain

    homology -> finiteness -> alexander -> roots -> walls -> index

on first use, keeping the result, so a command computes only the stages it
reads and none of them twice.  Every command and oracle reads from it.

`analyze` reads every stage and assembles the full report, a plain
JSON-serializable dictionary; it embeds the validated complex so a report
can be re-ingested in direct-matrix mode and reproduce itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import ChainComplexOverLambda
from .cup import cup_product_check
from .homology import AlexanderData, HomologyModule, alexander_polynomials
from .homology import homology as compute_homology
from .indexfn import IndexFunction, duality_check, excision_index, index_function
from .spectral import Wall, exceptional_weights, find_roots

EXCISION_SAMPLES = 10


@dataclass(frozen=True)
class Analysis:
    """One classified input document and its stages, each computed once, on
    first use.  n is the manifold dimension and chi the Euler characteristic
    the index formula reads (chi may be None); an alexander document gives
    its polynomials as ``given_alexander`` and no complex."""

    kind: str
    complex: ChainComplexOverLambda | None
    given_alexander: AlexanderData | None
    n: int
    chi: int | None

    @cached_property
    def homology(self) -> HomologyModule:
        return compute_homology(self.complex)

    @property
    def finite(self) -> bool:
        """Whether the characteristic polynomials exist; always true when the
        input gives them directly."""
        return self.complex is None or not self.homology.infinite_degrees

    def finiteness_json(self):
        """The finiteness verdict of the homology, as reported."""
        infinite = self.homology.infinite_degrees
        return {"finite": not infinite, "infinite_degrees": list(infinite)}

    @cached_property
    def alexander(self) -> AlexanderData:
        """The characteristic polynomials; NotFiniteError for free homology."""
        if self.given_alexander is not None:
            return self.given_alexander
        return alexander_polynomials(self.homology, self.n)

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        roots = [r for k in range(self.n) for r in find_roots(self.alexander.poly(k), k)]
        return exceptional_weights(roots, self.n)

    @cached_property
    def index(self) -> IndexFunction | None:
        """The index step function; None without finite homology or chi.

        The walls come first, so an undecidable wall is reported before a
        missing chi.
        """
        if not self.finite:
            return None
        walls = self.walls
        if self.chi is None:
            return None
        return index_function(self.n, self.chi, walls)


def analyze(a: Analysis):
    """Run the whole pipeline on one input, as far as the data allows.

    Reads the stages of the `Analysis`, which stay there for the caller.
    """
    report = {
        "input_kind": a.kind,
        "n": a.n,
        "chi": a.chi,
        "warnings": [],
        "notices": [],
    }
    if a.complex is not None:
        cc = a.complex
        report["complex"] = cc.to_json()
        chi_x = cc.euler_characteristic()
        report["euler_x"] = chi_x
        if chi_x != 0:
            report["warnings"].append(
                f"euler characteristic of the covered space is {chi_x}; "
                "finite end-periodic homology is impossible"
            )
        report["homology"] = a.homology.to_json()
        report["finiteness"] = a.finiteness_json()
        if not a.finite:
            report["notices"].append(
                "homology has free summands; characteristic polynomials, walls "
                "and index are omitted"
            )
    if a.kind == "simplicial":
        report["cup_check"] = cup_product_check(a.complex)
    if not a.finite:
        return report

    alex = a.alexander
    report["alexander"] = alex.to_json()
    for deg in report.get("homology", {}).get("degrees", ()):
        deg["alexander"] = alex.poly(deg["degree"]).to_json()
    report["walls"] = [w.to_json() for w in a.walls]

    f = a.index
    if f is None:
        report["notices"].append("no euler characteristic given; index section omitted")
        report["duality"] = duality_check(alex)
        return report

    fj = f.to_json()
    report["values"] = fj["values"]
    report["intervals"] = fj["intervals"]
    report["duality"] = duality_check(alex, f)
    report["excision_samples"] = _excision_samples(f)
    return report


def _excision_samples(f: IndexFunction):
    """Deterministic excision consistency records over the first
    EXCISION_SAMPLES pairs of interval samples."""
    pts = f.sample_points()
    pairs = [(d1, d2) for i, d1 in enumerate(pts) for d2 in pts[i + 1:]][:EXCISION_SAMPLES]
    return [
        # "agree" is constant since excision has one path; kept so the report keeps its bytes.
        {"delta1": d1, "delta2": d2, "index_difference": excision_index(d1, d2, f), "agree": True}
        for d1, d2 in pairs
    ]
