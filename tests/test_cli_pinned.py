"""Command outputs pinned byte for byte, and how much of the chain each
command computes.

`golden/cli/cases.json` lists each case's argv (with `{data}` for the
shipped example documents and `{svg}` for an SVG path), its exit code and
its stderr; `<case>.out` holds its stdout and `<case>.svg` the SVG it
writes.  Error paths are cases too.
"""

import importlib
import json
import os
import sys

import pytest

from endex.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
PINNED = os.path.join(os.path.dirname(__file__), "golden", "cli")

with open(os.path.join(PINNED, "cases.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)


def pinned_bytes(name):
    with open(os.path.join(PINNED, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_output(name, capsys, tmp_path, monkeypatch):
    case = CASES[name]
    monkeypatch.setenv("COLUMNS", "80")  # as tests/pin_cli.py pins a usage line
    svg = tmp_path / "plot.svg"
    try:
        code = main([a.format(data=DATA, svg=svg) for a in case["argv"]])
    except SystemExit as e:  # a usage error
        code = e.code
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case["stderr"])
    assert out.encode("utf-8") == pinned_bytes(name + ".out")
    if "{svg}" in case["argv"]:
        assert svg.read_bytes() == pinned_bytes(name + ".svg")


COUNTED = [
    ("homology", "homology"),
    ("cup", "cup_product_check"),
    ("indexfn", "duality_check"),
    ("indexfn", "excision_index"),
]


@pytest.fixture
def calls(monkeypatch):
    """Calls of each COUNTED function, wherever an endex module binds it."""
    counts = {}
    modules = [m for k, m in sys.modules.items() if k == "endex" or k.startswith("endex.")]
    for module, attr in COUNTED:
        original = getattr(importlib.import_module("endex." + module), attr)
        counts[attr] = 0

        def counted(*args, _attr=attr, _fn=original, **kwargs):
            counts[_attr] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, counted)
    return counts


INPUTS = {
    "circle": ["--input", os.path.join(DATA, "circle.json"), "--chi", "1"],
    "circle_trivial": ["--input", os.path.join(DATA, "circle_trivial.json"), "--chi", "0"],
    "s1s2": ["--input", os.path.join(DATA, "s1s2.json")],
    "fox": ["--input", os.path.join(DATA, "fox.json")],
}
COMMANDS = [
    ["analyze"], ["alexander"], ["index"], ["twisted", "--z", "1/2"],
    ["fredholm", "--delta", "0.5"], ["cup-check"], ["duality"], ["plotdata"],
]


@pytest.mark.parametrize("doc", sorted(INPUTS))
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_each_stage_computed_once(doc, command, calls, capsys):
    argv = command + INPUTS[doc]
    if command[0] in ("alexander", "twisted", "fredholm", "cup-check"):
        argv = command + INPUTS[doc][:2]  # these take no --chi
    main(argv)
    capsys.readouterr()
    assert calls["homology"] <= 1
    if command[0] in ("index", "plotdata"):
        checks = ("cup_product_check", "duality_check", "excision_index")
        assert {k: calls[k] for k in checks} == dict.fromkeys(checks, 0)
