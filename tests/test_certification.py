"""Every internal check in src/ can fail.

FIRING maps each `raise CertificationError(stage, check)` site, as
(module, function, stage, check), to a function that makes it fire by
tampering with what it checks.  `test_each_check_fires` runs them, and
`test_every_raise_site_has_a_firing_test` finds the sites by parsing the
package, so a new check cannot land without a way to make it fail.  A
check in an f-string is written with {} for each replacement field.
"""

import ast
import dataclasses
import json
import os
import re

import pytest

import endex
import endex.polymatrix
import endex.spectral
from endex import CertificationError, LaurentMatrix, LaurentPoly, SnfResult, find_roots
from endex.cli import main
from endex.laurent import _exact_quo
from endex.polymatrix import _certify, smith_normal_form

from conftest import from_roots, grid_torus, mat, simplicial_json

SRC = os.path.dirname(endex.__file__)


def _with_entry_changed(m: LaurentMatrix, i: int, j: int) -> LaurentMatrix:
    """m with one entry plus one."""
    return LaurentMatrix(m.rows, m.cols, {**m.nonzeros, (i, j): m[i, j] + LaurentPoly.one()})


SNF_INPUT = mat([["t - 1", "t"], ["1", "t + 2"]])


def _fire_reconstruction(monkeypatch):
    res = smith_normal_form(SNF_INPUT)
    _certify(SNF_INPUT, dataclasses.replace(res, left=_with_entry_changed(res.left, 0, 1)))


def _fire_divisibility(monkeypatch):
    # A diagonal matrix is its own factorization, but t - 2 does not divide t - 1.
    m = mat([["t - 2", "0"], ["0", "t - 1"]])
    eye = LaurentMatrix.identity(2)
    _certify(m, SnfResult(left=eye, diag=[m[0, 0], m[1, 1]], right=eye, rank=2, left_inv=eye, right_inv=eye))


def _fire_inverse(monkeypatch):
    res = smith_normal_form(SNF_INPUT)
    _certify(SNF_INPUT, dataclasses.replace(res, right_inv=_with_entry_changed(res.right_inv, 1, 0)))


def _fire_roots(monkeypatch):
    decompose = endex.spectral.squarefree_decomposition
    monkeypatch.setattr(endex.spectral, "squarefree_decomposition", lambda p: decompose(p)[:-1])
    find_roots(from_roots([1, 2, 2]), 0)


def _fire_squarefree(monkeypatch):
    # t^2 + 1 leaves remainder 2 on division by t + 1.
    _exact_quo([1, 0, 1], [1, 1])


FIRING = {
    ("polymatrix", "_certify", "snf", "left * M * right does not reconstruct the diagonal"): _fire_reconstruction,
    ("polymatrix", "_certify", "snf", "diagonal divisibility chain is broken"): _fire_divisibility,
    ("polymatrix", "_certify", "snf", "a transform times its inverse is not the identity"): _fire_inverse,
    ("spectral", "find_roots", "roots", "root multiplicities do not sum to the degree span {}"): _fire_roots,
    ("laurent", "_exact_quo", "squarefree", "inexact integer division"): _fire_squarefree,
}


@pytest.mark.parametrize("site", sorted(FIRING), ids=lambda site: f"{site[0]}.{site[1]}:{site[3]}")
def test_each_check_fires(site, monkeypatch):
    module, function, stage, check = site
    with pytest.raises(CertificationError) as info:
        FIRING[site](monkeypatch)
    assert info.value.stage == stage
    assert re.fullmatch(".+".join(map(re.escape, check.split("{}"))), info.value.check)
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    assert (os.path.basename(code.co_filename), code.co_name) == (module + ".py", function)


def _text(node):
    """A string literal, with {} for each replacement field of an f-string."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


class _RaiseSites(ast.NodeVisitor):
    """(module, innermost function, stage, check) of each raise of a
    CertificationError call; None where a part is not a literal."""

    def __init__(self, module):
        self.module, self.functions, self.sites = module, [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        exc = node.exc
        call = exc if isinstance(exc, ast.Call) else None
        name = exc.func if call else exc
        if getattr(name, "id", getattr(name, "attr", None)) == "CertificationError":
            args = [_text(a) for a in call.args] if call else []
            stage, check = (args + [None, None])[:2]
            self.sites.append((self.module, self.functions[-1] if self.functions else None, stage, check))
        self.generic_visit(node)


def raise_sites():
    sites = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                visitor = _RaiseSites(name[:-3])
                visitor.visit(ast.parse(fh.read(), name))
            sites.extend(visitor.sites)
    return sites


def test_every_raise_site_has_a_firing_test():
    assert set(raise_sites()) == set(FIRING)


def test_raise_site_finder_sees_through_the_forms_of_raise():
    visitor = _RaiseSites("m")
    visitor.visit(ast.parse(
        "def f(k):\n"
        "    def g():\n"
        "        raise errors.CertificationError('s', f'c {k}')\n"
        "    raise CertificationError\n"
        "raise CertificationError('t', name)\n"
    ))
    assert visitor.sites == [("m", "g", "s", "c {}"), ("m", "f", None, None), ("m", None, "t", None)]


def test_a_failed_check_is_reported_on_the_command_line(capsys, monkeypatch, tmp_path):
    doc = tmp_path / "torus.json"
    doc.write_text(json.dumps(simplicial_json(grid_torus(3))))
    assert main(["alexander", "--input", str(doc)]) == 0
    capsys.readouterr()
    # An addition now "undoes" itself by acting again on the inverse
    # transform, which only the SNF certificate's inverse check can see.
    inverse = endex.polymatrix._inverse
    monkeypatch.setattr(endex.polymatrix, "_inverse", lambda op: op if op[0] == "add" else inverse(op))
    code = main(["alexander", "--input", str(doc)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "endex: error: internal check failed in snf: a transform times its inverse is not the identity\n"
