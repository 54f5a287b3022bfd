"""Mapping tori of T^n: closed manifolds whose homology, characteristic
polynomials and walls have closed forms in the monodromy a."""

import json
import math

import numpy as np
import pytest

from endex.cli import main
from endex.laurent import LaurentPoly

from conftest import mapping_torus, mapping_torus_polys

HYPERBOLIC = [[2, 1], [1, 1]]
COMPANION = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # of t^3 - t - 1: one real root and a complex pair
UNIPOTENT = [[1, 1], [0, 1]]  # eigenvalue 1 twice


def _run(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return json.loads(out.out)


def _closed_form_walls(polys) -> list:
    """-ln|r| over the roots r of every Δ_k, equal moduli merged."""
    walls = []
    for p in polys:
        for r in np.roots([float(c) for c in reversed(p.coeffs)]):
            delta = -math.log(abs(r))
            if not any(math.isclose(delta, w, abs_tol=1e-9) for w in walls):
                walls.append(delta)
    return sorted(walls)


@pytest.mark.parametrize("a, values", [(HYPERBOLIC, [0, 1, -1, 0]), (COMPANION, [0, 1, -1, -1, 1, 0]),
                                       (UNIPOTENT, [0, 0])], ids=["hyperbolic", "companion", "unipotent"])
def test_mapping_torus_matches_its_closed_forms(a, values, tmp_path, capsys):
    n = len(a)
    doc = tmp_path / "torus.json"
    doc.write_text(json.dumps(mapping_torus(a)))
    report = _run(["analyze", "--input", str(doc)], capsys)
    # H_k of the cover is Λ^C(n,k) / (t Λ^k a - I): torsion of Q-dimension C(n,k).
    degrees = report["homology"]["degrees"]
    assert [d["free_rank"] for d in degrees] == [0] * (n + 2)
    assert [d["dim"] for d in degrees] == [math.comb(n, k) for k in range(n + 2)]
    polys = mapping_torus_polys(a)
    assert [LaurentPoly.from_json(p) for p in report["alexander"]["polys"]] == polys + [LaurentPoly.one()]
    deltas = [w["delta"] for w in report["walls"]]
    assert deltas == pytest.approx(_closed_form_walls(polys), abs=1e-9)
    # On the unipotent torus every root is 1: one wall at 0, whose jump
    # -1 + 2 - 1 (degrees 0, 1, 2) cancels.
    assert report["values"] == values
    assert report["duality"]["ok"]
    assert _run(["duality", "--input", str(doc)], capsys)["ok"]


def test_the_closed_forms_of_the_two_hyperbolic_tori():
    # The characteristic polynomials of a and of its inverse, and t - 1 at
    # both ends (det a = 1).
    assert [p.pretty() for p in mapping_torus_polys(HYPERBOLIC)] == ["t - 1", "t^2 - 3*t + 1", "t - 1"]
    assert [p.pretty() for p in mapping_torus_polys(COMPANION)] == ["t - 1", "t^3 + t^2 - 1", "t^3 - t - 1", "t - 1"]
