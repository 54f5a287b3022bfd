"""Write the pinned command outputs that tests/test_cli_pinned.py checks.

Run from the repository root with the endex to pin on the path:

    PYTHONPATH=src python tests/pin_cli.py

Each case's argv, exit code and stderr go to tests/golden/cli/cases.json,
its stdout to <case>.out and any SVG it writes to <case>.svg.  Only an
intended change of output should be re-pinned.
"""
import contextlib
import io
import json
import os
import tempfile

from endex.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "golden", "cli")
DOCS = ["circle", "circle_trivial", "fox", "s1s2"]
COMMANDS = [
    ("index", ["index"]),
    ("duality", ["duality"]),
    ("alexander", ["alexander"]),
    ("plotdata-text", ["plotdata", "--format", "text"]),
    ("twisted-1_2", ["twisted", "--z", "1/2"]),
    ("fredholm-0.5", ["fredholm", "--delta", "0.5"]),
    ("analyze", ["analyze"]),
    ("analyze-text", ["analyze", "--format", "text"]),
]
cases = {}
for doc in DOCS:
    for slug, argv in COMMANDS:
        cases[f"{doc}-{slug}"] = {"argv": argv + ["--input", "{data}/%s.json" % doc]}
# Index paths of a simplicial input with chi, and the free-homology errors.
for doc, chi in (("circle", "1"), ("circle_trivial", "0")):
    for slug, argv in (("index", ["index"]), ("plotdata-text", ["plotdata", "--format", "text"]),
                       ("duality", ["duality"])):
        cases[f"{doc}-chi{chi}-{slug}"] = {"argv": argv + ["--input", "{data}/%s.json" % doc, "--chi", chi]}
# An undecidable wall: reported before a missing chi, except by duality.
for slug, argv in (("analyze", ["analyze"]), ("index", ["index"]), ("duality", ["duality"]),
                   ("plotdata-text", ["plotdata", "--format", "text"])):
    cases[f"two_quadratics-{slug}"] = {"argv": argv + ["--input", "{data}/two_quadratics.json"]}
    cases[f"two_quadratics-chi0-{slug}"] = {"argv": argv + ["--input", "{data}/two_quadratics.json", "--chi", "0"]}
# The shift-kernel oracle: one point, an on-wall refusal, lambda = 0, a weight
# too close for the widest window, the grid.
cases["l2-oracle-2"] = {"argv": ["l2-oracle", "--lam", "2"]}
cases["l2-oracle-1+i-m2"] = {"argv": ["l2-oracle", "--lam", "1+i", "--mult", "2", "--delta1", "0.5", "--delta2", "-1"]}
cases["l2-oracle-on-wall"] = {"argv": ["l2-oracle", "--lam", "1", "--delta1", "0", "--delta2", "-1"]}
cases["l2-oracle-lam0"] = {"argv": ["l2-oracle", "--lam", "0"]}
cases["l2-oracle-too-close"] = {"argv": ["l2-oracle", "--lam", "2", "--delta1", "0.7", "--delta2", "0.5"]}
cases["l2-oracle-grid"] = {"argv": ["l2-oracle"]}
# Fredholm on a wall: the symbolic verdict names the degree.
for doc in ("circle", "s1s2"):
    cases[f"{doc}-fredholm-0"] = {"argv": ["fredholm", "--delta", "0", "--input", "{data}/%s.json" % doc]}
# SVG renderings.
for doc in ("fox", "s1s2"):
    cases[f"{doc}-plotdata-svg"] = {"argv": ["plotdata", "--input", "{data}/%s.json" % doc, "--svg", "{svg}"]}
cases["fox-analyze-svg"] = {"argv": ["analyze", "--input", "{data}/fox.json", "--svg", "{svg}"]}

data = os.path.join(HERE, "data")
os.makedirs(OUT, exist_ok=True)
with tempfile.TemporaryDirectory() as tmp:
    for name, case in cases.items():
        svg = os.path.join(tmp, name + ".svg")
        argv = [a.format(data=data, svg=svg) for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        case["exit"] = code
        case["stderr"] = err.getvalue()
        with open(os.path.join(OUT, name + ".out"), "w", encoding="utf-8", newline="") as fh:
            fh.write(out.getvalue())
        if "{svg}" in case["argv"]:
            with open(svg, encoding="utf-8") as src, open(os.path.join(OUT, name + ".svg"), "w", encoding="utf-8", newline="") as dst:
                dst.write(src.read())
with open(os.path.join(OUT, "cases.json"), "w", encoding="utf-8") as fh:
    json.dump(cases, fh, indent=1, sort_keys=True)
    fh.write("\n")
print(f"{len(cases)} cases written to {OUT}")
