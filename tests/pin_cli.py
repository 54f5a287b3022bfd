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
# Floats the numeric routes cannot use, and a Jordan block above MAX_MULT:
# each is refused with one error line.
for slug, delta in (("800", "800"), ("1e308", "1e308"), ("minus800", "-800"),
                    ("minus-inf", "-inf"), ("nan", "nan")):
    cases[f"s1s2-fredholm-{slug}"] = {"argv": ["fredholm", f"--delta={delta}", "--input", "{data}/s1s2.json"]}
cases["sextic-fredholm-150"] = {"argv": ["fredholm", "--delta=150", "--input", "{data}/sextic.json"]}
# Floats that overflow on the way: t^2000 at |z| >= e^0.5, a 401-digit
# coefficient, and a characteristic polynomial with one.
for slug, argv in (("fredholm-0.5", ["fredholm", "--delta", "0.5"]), ("twisted-2+0.5j", ["twisted", "--z", "(2+0.5j)"])):
    cases[f"circle_cocycle2000-{slug}"] = {"argv": argv + ["--input", "{data}/circle_cocycle2000.json"]}
for slug, argv in (("twisted-0.5+0.1j", ["twisted", "--z", "(0.5+0.1j)"]), ("fredholm-0.1", ["fredholm", "--delta", "0.1"])):
    cases[f"wide_entry-{slug}"] = {"argv": argv + ["--input", "{data}/wide_entry.json"]}
for slug in ("analyze", "index", "duality"):
    cases[f"alexander_wide-{slug}"] = {"argv": [slug, "--input", "{data}/alexander_wide.json"]}
# Coefficients inside float range whose roots' powers overflow in the root
# finder: t^3 + 10^307 and t^2 + 3t + 10^307.
for doc in ("alexander_overflow_cubic", "alexander_overflow_quadratic"):
    for slug in ("analyze", "index"):
        cases[f"{doc}-{slug}"] = {"argv": [slug, "--input", "{data}/%s.json" % doc]}
cases["s1s2-twisted-nan"] = {"argv": ["twisted", "--z=nan", "--input", "{data}/s1s2.json"]}
cases["s1s2-twisted-inf"] = {"argv": ["twisted", "--z=inf", "--input", "{data}/s1s2.json"]}
cases["l2-oracle-lam1e400"] = {"argv": ["l2-oracle", "--lam", "1e400"]}
cases["l2-oracle-lam-nan"] = {"argv": ["l2-oracle", "--lam", "nan"]}
cases["l2-oracle-delta1-nan"] = {"argv": ["l2-oracle", "--lam", "2", "--delta1=nan"]}
cases["l2-oracle-delta1-inf"] = {"argv": ["l2-oracle", "--lam", "2", "--delta1=inf"]}
cases["l2-oracle-m8"] = {"argv": ["l2-oracle", "--lam", "1/2", "--mult", "8", "--delta1", "-1", "--delta2", "-2"]}
# A Jordan block whose kernel vectors need a window wider than the m = 1 decay.
cases["l2-oracle-lam0.35-m6"] = {"argv": ["l2-oracle", "--lam", "0.35", "--mult", "6", "--delta1", "-1", "--delta2", "-2"]}
cases["l2-oracle-m1000"] = {"argv": ["l2-oracle", "--lam", "1/2", "--mult", "1000"]}
cases["l2-oracle-lam1e-400"] = {"argv": ["l2-oracle", "--lam", "1e-400"]}
# A Jordan block flag without --lam is a usage error (exit code 2).
cases["l2-oracle-block-without-lam"] = {"argv": ["l2-oracle", "--mult", "1000", "--delta1=nan"]}
# SVG renderings.
for doc in ("fox", "s1s2"):
    cases[f"{doc}-plotdata-svg"] = {"argv": ["plotdata", "--input", "{data}/%s.json" % doc, "--svg", "{svg}"]}
cases["fox-analyze-svg"] = {"argv": ["analyze", "--input", "{data}/fox.json", "--svg", "{svg}"]}
# Exact ranks over Lambda/(g): twisted dimensions at rational and Gaussian
# points, roots among them, and the cup check (a refusal on fox).
for doc in ("circle", "circle_trivial", "s1s2", "sextic"):
    for slug, z in (("1", "1"), ("minus1", "-1"), ("1+2i", "1+2i"), ("i", "i")):
        cases[f"{doc}-twisted-{slug}"] = {"argv": ["twisted", "--z", z, "--input", "{data}/%s.json" % doc]}
# Boundaries whose composite is nonzero at (0, 1) and (1, 0): the refusal
# names the first in row-major order.
cases["not_a_complex-analyze"] = {"argv": ["analyze", "--input", "{data}/not_a_complex.json"]}
for doc in DOCS:
    cases[f"{doc}-cup-check"] = {"argv": ["cup-check", "--input", "{data}/%s.json" % doc]}

data = os.path.join(HERE, "data")
os.environ["COLUMNS"] = "80"  # argparse wraps a usage line to the terminal width
os.makedirs(OUT, exist_ok=True)
with tempfile.TemporaryDirectory() as tmp:
    for name, case in cases.items():
        svg = os.path.join(tmp, name + ".svg")
        argv = [a.format(data=data, svg=svg) for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # a usage error
                code = e.code
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
