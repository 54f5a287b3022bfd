import ast
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import endex
from endex import FloatRangeError
from endex.cli import build_parser, main

DATA = os.path.join(os.path.dirname(__file__), "data")
PINNED = os.path.join(os.path.dirname(__file__), "golden", "cli")
# Child interpreters import endex from the tree under test, whether the
# path came from PYTHONPATH or from pytest's own pythonpath setting.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(endex.__file__)), os.environ.get("PYTHONPATH")])
    ),
)


def path(name):
    return os.path.join(DATA, name)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_fox_values(capsys):
    code, out, err = run_cli(["analyze", "--input", path("fox.json")], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["values"] == [2, 1, 1, 2]
    assert [w["delta_exact"] for w in report["walls"]] == ["ln(1/2)", "ln(1)", "ln(2)"]
    assert report["duality"]["ok"]
    assert all(s["agree"] for s in report["excision_samples"])


def test_analyze_s1s2_values(capsys):
    code, out, err = run_cli(["analyze", "--input", path("s1s2.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["values"] == [1, -1]
    assert len(report["walls"]) == 1 and report["walls"][0]["delta"] == 0.0
    assert report["euler_x"] == 0
    assert report["finiteness"]["finite"]


def test_analyze_simplicial_circle_without_chi(capsys):
    code, out, err = run_cli(["analyze", "--input", path("circle.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["alexander"]["polys"][0] == {"lowest": 0, "coeffs": ["-1", "1"]}
    assert len(report["walls"]) == 1
    assert "values" not in report
    assert any("index section omitted" in n for n in report["notices"])
    assert report["cup_check"]["exact"]


def test_isolated_vertices_stay_small(tmp_path, capsys):
    # Without edges only the top degree is left, and homology runs no
    # Smith normal form there, so nothing is quadratic in the vertices.
    # Traced peak at 4000 vertices: 0.5 MB; at 200 it was 3.3 MB while
    # the zero map still got dense 200 x 200 identity transforms.
    doc = tmp_path / "vertices.json"
    doc.write_text('{"vertices": 4000}')
    tracemalloc.start()
    try:
        code, out, err = run_cli(["analyze", "--input", str(doc)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["homology"]["degrees"][0]["free_rank"] == 4000
    assert peak < 2_000_000


@pytest.mark.parametrize("doc, argv, match", [
    ("circle_cocycle2000", ["fredholm", "--delta", "0.5"], r"evaluated at z = \(1\.6487\d*\+0j\)"),
    ("circle_cocycle2000", ["twisted", "--z", "(2+0.5j)"], r"evaluated at z = \(2\+0\.5j\)"),
    ("wide_entry", ["twisted", "--z", "(0.5+0.1j)"], r"evaluated at z = \(0\.5\+0\.1j\)"),
    ("wide_entry", ["fredholm", "--delta", "0.1"], r"evaluated at z = \(1\.1051\d*\+0j\)"),
    ("alexander_wide", ["analyze"], "degree-0 characteristic polynomial has a coefficient beyond float range"),
    ("alexander_wide", ["index"], "degree-0 characteristic polynomial has a coefficient beyond float range"),
    ("alexander_wide", ["duality"], "degree-0 characteristic polynomial has a coefficient beyond float range"),
])
def test_a_float_overflow_is_refused(doc, argv, match):
    # An entry t^2000 at |z| >= e^0.5 (a power of z beyond float range), an
    # entry with a 401-digit coefficient, and a characteristic polynomial
    # with one: each is refused with FloatRangeError, not an OverflowError.
    args = build_parser().parse_args(argv + ["--input", path(doc + ".json")])
    with pytest.raises(FloatRangeError, match=match):
        args.func(args)


def test_fredholm_and_index_refuse_an_ambiguous_wall(tmp_path, capsys):
    # test_spectral's ambiguous pair in one 1 x 1 complex: the quartic has
    # four roots of modulus sqrt(2), t^2 - 2 the double roots +-sqrt(2), and
    # the two square-free factors differ, so neither route can decide the
    # wall, at any weight.
    from endex.laurent import poly

    entry = poly("t^4 - 2*t^2 + 4") * poly("t^2 - 2") * poly("t^2 - 2")
    doc = tmp_path / "ambiguous.json"
    doc.write_text(json.dumps({"ranks": [1, 1], "boundaries": [
        {"rows": 1, "cols": 1, "entries": [[entry.to_json()]]}]}))
    refusal = "overlap but cannot be certified equal\n"
    for argv in (["fredholm", "--delta", "0"], ["fredholm", "--delta", "0.34657"],
                 ["index", "--chi", "0"]):
        code, out, err = run_cli(argv + ["--input", str(doc)], capsys)
        assert (code, out) == (1, "") and err.endswith(refusal), argv


def test_analyze_trivial_cocycle_reports_infinite(capsys):
    code, out, err = run_cli(["analyze", "--input", path("circle_trivial.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["finiteness"] == {"finite": False, "infinite_degrees": [0, 1]}
    assert "alexander" not in report
    assert not report["cup_check"]["exact"]


def test_analyze_text_format(capsys):
    code, out, err = run_cli(["analyze", "--input", path("fox.json"), "--format", "text"], capsys)
    assert code == 0
    assert "index values: [2, 1, 1, 2]" in out
    assert "duality: ok" in out


def test_chi_dim_flags_override(capsys):
    code, out, _ = run_cli(
        ["analyze", "--input", path("circle.json"), "--chi", "1", "--dim", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    # Rightmost interval carries (-1)^1 * 1; crossing the wall at 0 leftward
    # adds back the root count of the degree-0 polynomial.
    assert report["values"] == [0, -1]


def test_context_flags_only_where_read(capsys):
    # fredholm, twisted, cup-check and l2-oracle never read chi or dim, so
    # they do not take the flags: argparse refuses them with exit code 2.
    s1s2, circle = path("s1s2.json"), path("circle.json")
    for argv in (["fredholm", "--input", s1s2, "--delta", "0", "--dim", "1"],
                 ["twisted", "--input", s1s2, "--z", "1", "--chi", "9"],
                 ["cup-check", "--input", circle, "--dim", "7"],
                 ["l2-oracle", "--lam", "2", "--chi", "1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_rank_tolerances_are_not_options(capsys):
    # Every rank decision uses a fixed relative tolerance, so the oracles
    # refuse --tol with exit code 2.
    s1s2 = path("s1s2.json")
    for argv in (["twisted", "--input", s1s2, "--z", "0.7", "--tol", "1e-3"],
                 ["fredholm", "--input", s1s2, "--delta", "0.5", "--tol", "1e-3"],
                 ["l2-oracle", "--lam", "2", "--tol", "1e-3"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_dim_below_top_degree_is_refused(capsys, tmp_path):
    # A smaller dimension would drop the homology above it (s1s2 has
    # H2 = Lambda/(t - 1)), from --dim or from the manifold block alike.
    s1s2 = path("s1s2.json")
    low = tmp_path / "low.json"
    with open(s1s2, encoding="utf-8") as fh:
        doc = json.load(fh)
    low.write_text(json.dumps(dict(doc, manifold={"dim": 2, "chi": 1})))
    circle = tmp_path / "circle0.json"
    with open(path("circle.json"), encoding="utf-8") as fh:
        circle.write_text(json.dumps(dict(json.load(fh), manifold={"dim": 0})))
    for argv, dims in ((["alexander", "--input", s1s2, "--dim", "1"], (1, 3)),
                       (["analyze", "--input", s1s2, "--dim", "1"], (1, 3)),
                       (["analyze", "--input", str(low)], (2, 3)),
                       (["alexander", "--input", str(circle)], (0, 1))):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "", argv
        assert err == f"endex: error: manifold dimension {dims[0]} is below the complex's top degree {dims[1]}\n"
    for dim in ("3", "4"):
        code, _, err = run_cli(["analyze", "--input", s1s2, "--dim", dim], capsys)
        assert code == 0 and err == ""


def test_a_negative_dimension_is_refused(capsys, tmp_path):
    # (-1) ** n is a float at n < 0: the empty alexander document of
    # dimension -1 printed the index values [-3.0] and an odd duality
    # parity.  A negative dimension is refused from the manifold block and
    # from --dim alike, before the polynomial count is checked.
    doc = tmp_path / "negative.json"
    doc.write_text(json.dumps({"alexander": [], "manifold": {"dim": -1, "chi": 3}}))
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"alexander": [{"lowest": 0, "coeffs": ["-2", "1"]}], "manifold": {"dim": -1}}))
    for argv, dim in ((["index", "--input", str(doc)], -1),
                      (["duality", "--input", str(doc)], -1),
                      (["index", "--input", str(one)], -1),
                      (["index", "--input", path("fox.json"), "--dim", "-1"], -1),
                      (["analyze", "--input", path("circle.json"), "--dim", "-2"], -2)):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err == f"endex: error: manifold dimension {dim} is negative\n", argv


def test_alexander_refuses_chi(capsys):
    # alexander reads --dim (how many polynomials to report) but never chi.
    with pytest.raises(SystemExit) as info:
        main(["alexander", "--input", path("s1s2.json"), "--chi", "7"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_format_only_where_text_is_rendered(capsys):
    # Only analyze and plotdata have a text renderer; the other commands
    # print JSON alone and refuse --format with exit code 2.
    s1s2, circle, fox = path("s1s2.json"), path("circle.json"), path("fox.json")
    for argv in (["alexander", "--input", s1s2],
                 ["index", "--input", fox],
                 ["twisted", "--input", s1s2, "--z", "1"],
                 ["fredholm", "--input", s1s2, "--delta", "0"],
                 ["l2-oracle", "--lam", "2"],
                 ["cup-check", "--input", circle],
                 ["duality", "--input", fox]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--format", "json"])
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    for argv in (["analyze", "--input", fox], ["plotdata", "--input", fox]):
        assert main(argv + ["--format", "text"]) == 0
        capsys.readouterr()


def test_alexander_command(capsys):
    code, out, _ = run_cli(["alexander", "--input", path("s1s2.json")], capsys)
    assert code == 0
    report = json.loads(out)
    polys = report["alexander"]["polys"]
    assert polys[0]["coeffs"] == ["-1", "1"] and polys[2]["coeffs"] == ["-1", "1"]


def test_alexander_command_infinite_homology(capsys):
    code, out, err = run_cli(["alexander", "--input", path("circle_trivial.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["finiteness"]["infinite_degrees"] == [0, 1]
    assert "alexander" not in report


def test_index_command(capsys):
    code, out, _ = run_cli(["index", "--input", path("fox.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["values"] == [2, 1, 1, 2]
    assert len(report["intervals"]) == 4


def test_twisted_command_exact_point(capsys):
    code, out, _ = run_cli(["twisted", "--input", path("s1s2.json"), "--z", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [1, 1, 1, 1]
    assert report["exact"] and report["uct_crosscheck"]


def test_twisted_command_decimal_point_is_exact(capsys):
    # Decimal strings parse as exact rationals (7/10 + 1/10 i here).
    code, out, _ = run_cli(["twisted", "--input", path("s1s2.json"), "--z", "0.7+0.1i"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [0, 0, 0, 0] and report["exact"]


def test_twisted_command_float_point(capsys):
    code, out, _ = run_cli(["twisted", "--input", path("s1s2.json"), "--z", "(0.7+0.1j)"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [0, 0, 0, 0] and not report["exact"]


def test_fredholm_command(capsys):
    code, out, _ = run_cli(
        ["fredholm", "--input", path("s1s2.json"), "--delta", str(math.log(2))],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["fredholm"] is True and report["agree"]


@pytest.mark.parametrize("argv", [
    ["fredholm", "--input", path("s1s2.json"), "--delta", "0.5", "--samples", "8"],
    ["l2-oracle", "--window", "200"],
], ids=["samples", "window"])
def test_removed_size_flags_are_unknown(argv, capsys):
    # The oracles size themselves: 16 circle samples, and the window the
    # kernel tolerance needs.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_oracle_sizes_are_bounded(capsys, monkeypatch):
    # A weight whose window would pass MAX_WINDOW is refused before the band
    # is built.
    from endex import twisted

    def unreachable(*args, **kwargs):
        raise AssertionError("the oracle ran past its size bound")

    monkeypatch.setattr(twisted, "_shift_band", unreachable)
    code, out, err = run_cli(["l2-oracle", "--lam", "2", "--delta1", "0.7", "--delta2", "0.5"], capsys)
    assert (code, out, err) == (
        1, "", "endex: error: weight within 0.00685 of ln|lambda| needs a window of about 2018, above 500\n")


def test_l2_oracle_single(capsys):
    code, out, _ = run_cli(
        ["l2-oracle", "--lam", "2", "--mult", "1", "--delta1", "1.0", "--delta2", "0.5"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["analytic"] == 1 and report["truncated"] == 1 and report["agree"]


def test_l2_oracle_block_flags_need_lam(capsys):
    # Without --lam the grid runs its own blocks, so a block flag is a
    # usage error rather than ignored; with --lam, a left-out flag takes
    # its default (m = 1, weights 1 and 0.5).
    for argv, given in ((["--mult", "1000", "--delta1=nan"], "--mult, --delta1"),
                        (["--delta2", "0.5"], "--delta2"), (["--mult", "1"], "--mult")):
        with pytest.raises(SystemExit) as info:
            main(["l2-oracle"] + argv)
        assert info.value.code == 2, argv
        assert capsys.readouterr().err.endswith(f"endex l2-oracle: error: {given}: only allowed with --lam\n")
    code, out, err = run_cli(["l2-oracle", "--lam", "2", "--delta2", "0.25"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out) == {"lambda": "2", "m": 1, "delta1": 1.0, "delta2": 0.25,
                               "analytic": 1, "truncated": 1, "agree": True}


def test_the_shared_parser_keeps_no_state_between_calls(capsys, tmp_path):
    # main builds its parser on the first call in a process and reuses it, so
    # no flag, default or --output of one call may reach the next.
    assert build_parser() is build_parser()
    code, out, err = run_cli(["l2-oracle", "--lam", "1+i", "--mult", "2", "--delta1", "0.5", "--delta2", "-1"],
                             capsys)
    assert code == 0 and err == "" and json.loads(out)["m"] == 2
    with pytest.raises(SystemExit) as info:
        main(["l2-oracle", "--mult", "2"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("endex l2-oracle: error: --mult: only allowed with --lam\n")
    # The block flags are argparse.SUPPRESS: none given before may carry over.
    with open(os.path.join(PINNED, "l2-oracle-2.out"), encoding="utf-8") as fh:
        assert run_cli(["l2-oracle", "--lam", "2"], capsys) == (0, fh.read(), "")
    code, out, _ = run_cli(["analyze", "--input", path("fox.json"), "--format", "text"], capsys)
    assert code == 0 and out.startswith("input: ")
    code, out, _ = run_cli(["analyze", "--input", path("fox.json")], capsys)
    assert code == 0 and json.loads(out)["values"] == [2, 1, 1, 2]
    written = tmp_path / "plot.json"
    assert run_cli(["plotdata", "--input", path("fox.json"), "--output", str(written)], capsys) == (0, "", "")
    code, out, _ = run_cli(["plotdata", "--input", path("fox.json")], capsys)
    assert code == 0 and out == written.read_text(encoding="utf-8")


def test_l2_oracle_at_a_wide_derived_window(capsys):
    # These weights need a half-width of 458, where |delta| * N passes the
    # 709 at which a plain e^(-delta k) column weight overflows a float.
    code, out, err = run_cli(["l2-oracle", "--lam", "0.1313", "--mult", "2",
                              "--delta1", "-1", "--delta2", "-2"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out) == {"lambda": "0.1313", "m": 2, "delta1": -1.0, "delta2": -2.0,
                               "analytic": 0, "truncated": 0, "agree": True}


def test_cup_check_command(capsys):
    code, out, _ = run_cli(["cup-check", "--input", path("circle.json")], capsys)
    assert code == 0
    assert json.loads(out)["exact"]


def test_cup_check_rejects_matrix_input(capsys):
    code, out, err = run_cli(["cup-check", "--input", path("s1s2.json")], capsys)
    assert code == 1 and "simplicial" in err and out == ""


def test_duality_command(capsys):
    code, out, _ = run_cli(["duality", "--input", path("fox.json")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["parity"]["ok"]


def test_plotdata_fox(capsys, tmp_path):
    svg = tmp_path / "fox.svg"
    code, out, _ = run_cli(
        ["plotdata", "--input", path("fox.json"), "--svg", str(svg)], capsys
    )
    assert code == 0
    data = json.loads(out)
    values = [v for _, v in data["samples"]]
    assert values == [2, 2, 1, 1, 1, 1, 1, 1, 2, 2]
    assert len(data["walls"]) == 3
    body = svg.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_plotdata_no_walls(capsys, tmp_path):
    doc = {
        "alexander": [{"lowest": 0, "coeffs": ["1"]}, {"lowest": 0, "coeffs": ["1"]}],
        "manifold": {"dim": 2, "chi": 3},
    }
    p = tmp_path / "const.json"
    p.write_text(json.dumps(doc))
    svg = tmp_path / "const.svg"
    code, out, _ = run_cli(["plotdata", "--input", str(p), "--svg", str(svg)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["samples"]) == 2 and data["walls"] == []
    # One horizontal step across the plot, at mid height, and no wall marker.
    body = svg.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
    assert '<line x1="40.00" y1="180.00" x2="600.00" y2="180.00"' in body
    assert "stroke-dasharray" not in body


def test_plotdata_single_wall(capsys, tmp_path):
    doc = {"alexander": [{"lowest": 0, "coeffs": ["-1", "1"]}], "manifold": {"dim": 1, "chi": 0}}
    p = tmp_path / "one.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["plotdata", "--input", str(p)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["samples"]) == 4 and len(data["walls"]) == 1


def test_errors_use_stderr_and_exit_code(capsys, tmp_path):
    code, out, err = run_cli(["analyze", "--input", str(tmp_path / "nope.json")], capsys)
    assert code == 1 and out == "" and err.startswith("endex: error:")
    bad = tmp_path / "bad.json"
    bad.write_text('{"ranks": [1, 1], "boundaries": []}')
    code, out, err = run_cli(["analyze", "--input", str(bad)], capsys)
    assert code == 1 and "boundary" in err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    code, out, err = run_cli(["analyze", "--input", str(notjson)], capsys)
    assert code == 1 and "line" in err


def _edited(name, edit):
    with open(path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    return doc


# Valid JSON of the wrong shape, integer fields with fractional values that
# int() would truncate, and one document (or --z value) for each refusal of
# a value the schema allows.  A message ending in ": " is the prefix of one
# that quotes a built-in error.
MALFORMED = {
    "simplices-list": (_edited("circle.json", lambda d: d.update(simplices=[[0, 1]])),
                       "malformed input document: "),
    "manifold-number": (_edited("s1s2.json", lambda d: d.update(manifold=5)), "malformed input document: "),
    "boundary-list": (_edited("s1s2.json", lambda d: d.update(boundaries=[[1]])), "malformed input document: "),
    "coeffs-number": (_edited("fox.json", lambda d: d["alexander"][0].update(coeffs=5)),
                      "malformed input document: "),
    "alexander-number": (_edited("fox.json", lambda d: d.update(alexander=5)), "malformed input document: "),
    "boundary-without-rows": (_edited("s1s2.json", lambda d: d["boundaries"][0].pop("rows")),
                              "malformed input document: "),
    "fractional-dim": (_edited("circle.json", lambda d: d.update(manifold={"dim": 1.9})),
                       "malformed input document: not an integer: 1.9"),
    "fractional-chi": (_edited("circle.json", lambda d: d.update(manifold={"dim": 1, "chi": 0.5})),
                       "malformed input document: not an integer: 0.5"),
    "fractional-cocycle": (_edited("circle.json", lambda d: d["cocycle"].update({"0,2": 1.7})),
                           "malformed input document: not an integer: 1.7"),
    "not-an-object": ([], "input document must be a JSON object"),
    "no-schema": ({"manifold": {"dim": 1}},
                  "unrecognized input: expected 'alexander', 'vertices'/'simplices', or 'ranks'/'boundaries'"),
    "negative-rank": (_edited("s1s2.json", lambda d: d.update(ranks=[1, 1, 1, -1])), "negative rank"),
    "ranks-without-boundaries": (_edited("s1s2.json", lambda d: d.pop("boundaries")),
                                 "complex object needs 'ranks' and 'boundaries'"),
    "wrong-top-degree": (_edited("s1s2.json", lambda d: d.update(n=2)), "declared top degree 2 but ranks give 3"),
    "matrix-shape": (_edited("s1s2.json", lambda d: d["boundaries"][0].update(rows=2)),
                     "malformed input document: entry grid does not match declared shape"),
    "negative-vertices": (_edited("circle.json", lambda d: d.update(vertices=-1)), "negative vertex count"),
    "simplex-dimension-0": (_edited("circle.json", lambda d: d["simplices"].update({"0": [[0]]})),
                            "explicit simplices start at dimension 1"),
    "simplex-too-long": (_edited("circle.json", lambda d: d["simplices"]["1"].append([0, 1, 2])),
                         "(0, 1, 2) is not a 1-simplex"),
    "vertex-out-of-range": (_edited("circle.json", lambda d: d["simplices"]["1"].append([0, 3])),
                            "simplex (0, 3) has a vertex out of range"),
    "simplex-decreasing": (_edited("circle.json", lambda d: d["simplices"]["1"].append([2, 1])),
                           "simplex (2, 1) is not strictly increasing"),
    "simplex-duplicate": (_edited("circle.json", lambda d: d["simplices"]["1"].append([0, 1])),
                          "duplicate simplex (0, 1)"),
    "cocycle-edge-order": (_edited("circle.json", lambda d: d["cocycle"].update({"2,0": 1})),
                           "cocycle edge (2,0) must have u < v"),
    "alexander-count": (_edited("fox.json", lambda d: d.update(manifold={"dim": 1})),
                        "malformed input document: need polynomials for degrees 0..1 (or 0..0), got 4"),
    "poly-string": (_edited("fox.json", lambda d: d["alexander"].append("t - 1")),
                    "malformed input document: not a Laurent polynomial object: 't - 1'"),
    "float-coefficient": (_edited("fox.json", lambda d: d["alexander"][0].update(coeffs=[0.5, 1])),
                          "malformed input document: not an exact rational: 0.5"),
    "unparsable-point": (_edited("s1s2.json", lambda d: None), "cannot parse evaluation point '1/2+x'",
                         "twisted", "--z", "1/2+x"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_refused(case, capsys, tmp_path):
    doc, message, *command = MALFORMED[case]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli([*(command[:1] or ["analyze"]), "--input", str(p), *command[1:]], capsys)
    assert (code, out) == (1, "") and "Traceback" not in err
    if message.endswith(": "):
        assert err.startswith(f"endex: error: {message}")
    else:
        assert err == f"endex: error: {message}\n"


@pytest.mark.parametrize("z", ["0", "0.0", "0+0i"])
def test_twisted_refuses_zero(z, capsys):
    code, out, err = run_cli(["twisted", "--input", path("s1s2.json"), "--z", z], capsys)
    assert (code, out, err) == (1, "", "endex: error: twisted dimensions need a nonzero point z\n")


def test_failed_internal_check_is_reported_not_raised(capsys, monkeypatch):
    # Dropping the last square-free factor breaks the multiplicity count
    # that find_roots certifies.
    import endex.spectral

    decompose = endex.spectral.squarefree_decomposition
    monkeypatch.setattr(endex.spectral, "squarefree_decomposition", lambda p: decompose(p)[:-1])
    code, out, err = run_cli(["analyze", "--input", path("fox.json")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("endex: error: internal check failed in roots:") and "Traceback" not in err


def test_composite_error_reports_degree(capsys, tmp_path):
    doc = {
        "ranks": [1, 1, 1],
        "boundaries": [
            {"rows": 1, "cols": 1, "entries": [[{"lowest": 0, "coeffs": ["-1", "1"]}]]},
            {"rows": 1, "cols": 1, "entries": [[{"lowest": 0, "coeffs": ["1"]}]]},
        ],
    }
    p = tmp_path / "composite.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(["analyze", "--input", str(p)], capsys)
    assert code == 1 and "degree 2" in err and "(0, 0)" in err


def test_roundtrip_reingest_complex(capsys, tmp_path):
    code, out, _ = run_cli(["analyze", "--input", path("circle.json")], capsys)
    assert code == 0
    report = json.loads(out)
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(report["complex"]))
    code, out, _ = run_cli(["analyze", "--input", str(echo)], capsys)
    assert code == 0
    again = json.loads(out)
    assert again["homology"] == report["homology"]


def test_golden_byte_stability(tmp_path):
    for name, golden in (("fox.json", "fox-analyze.out"), ("s1s2.json", "s1s2-analyze.out")):
        outs = []
        for run in range(2):
            out_path = tmp_path / f"{golden}.{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "endex.cli", "analyze", "--input", path(name),
                 "--output", str(out_path)],
                capture_output=True,
                env=CHILD_ENV,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        with open(os.path.join(PINNED, golden), "rb") as fh:
            assert outs[0] == fh.read()


def test_golden_plotdata_text(tmp_path):
    out_path = tmp_path / "plot.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "endex.cli", "plotdata", "--input", path("fox.json"),
         "--format", "text", "--output", str(out_path)],
        capture_output=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    with open(os.path.join(PINNED, "fox-plotdata-text.out"), "rb") as fh:
        assert out_path.read_bytes() == fh.read()


def test_report_is_plain_json():
    from endex.inputs import load_input
    from endex.pipeline import analyze

    for name in ("fox.json", "s1s2.json", "circle.json", "circle_trivial.json"):
        report = analyze(load_input(path(name)))
        assert json.loads(json.dumps(report)) == report
        assert [k for k in report if k.startswith("_")] == []


def test_every_export_resolves():
    missing = [name for name in endex.__all__ if not hasattr(endex, name)]
    assert missing == []


def test_public_values_are_immutable():
    # One instance of every exported value type (and of Analysis): no
    # attribute can be rebound, and no attribute holds a mutable container.
    from fractions import Fraction

    from endex.inputs import load_input
    from endex.pipeline import Analysis

    fox, s1s2 = load_input(path("fox.json")), load_input(path("s1s2.json"))
    with open(path("circle.json"), encoding="utf-8") as fh:
        simplicial = endex.SimplicialInput.from_json(json.load(fh))
    cc = s1s2.complex
    values = [endex.poly("t - 1"), cc.boundary(1), endex.GaussianRational(1, 2),
              endex.smith_normal_form(cc.boundary(1)), cc, simplicial, s1s2.homology, fox.alexander,
              fox.walls[0].contributions[0], fox.walls[0], fox.index,
              endex.twisted_dims(cc, Fraction(2)), s1s2]
    exported = {getattr(endex, name) for name in endex.__all__}
    exported = {t for t in exported if isinstance(t, type) and not issubclass(t, Exception)}
    assert exported | {Analysis} == {type(v) for v in values}
    for value in values:
        names = ([f.name for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value)
                 else type(value).__slots__)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            assert not isinstance(getattr(value, name), (list, dict, set)), (type(value), name)
    with pytest.raises(TypeError):
        simplicial.simplices[1] = ()
    with pytest.raises(TypeError):
        simplicial.cocycle[(0, 1)] = 5


def _perfbench_spans():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    # perfbench/spans.py wraps these by name; look each up the way
    # Tracer.install does, so a rename in endex cannot break the traced run.
    spans = _perfbench_spans()
    missing = []
    for module, attr in spans.TRACED:
        owner = importlib.import_module("endex." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(owner, cls_name).__dict__
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append((module, attr))
    assert missing == []


def test_no_test_only_functions():
    # Every function and method in src/endex is named somewhere in src/
    # (called, passed or looked up), unless it is a dunder, public API
    # (endex.__all__) or wrapped by perfbench/spans.py's traced run.
    src = os.path.dirname(endex.__file__)
    defined, named = [], set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((name, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    named |= set(endex.__all__) | {attr.split(".")[-1] for _, attr in _perfbench_spans().TRACED}
    unnamed = [(module, fn) for module, fn in defined
               if fn not in named and not (fn.startswith("__") and fn.endswith("__"))]
    assert unnamed == []


def test_no_module_imports_private_names():
    # A name that starts with an underscore is private to its module:
    # src/endex imports only the public names of its own modules.
    src = os.path.dirname(endex.__file__)
    private = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        private += [(name, node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("endex"))
                    for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_snf_replay_runs():
    # The traced run times elimination alone through smith_normal_form's
    # certify=False, so the parameter must stay while the replay uses it.
    from endex.polymatrix import LaurentMatrix, smith_normal_form

    m = LaurentMatrix.from_rows([["t - 1", "t"], ["1", "t + 2"]])
    eliminate, certify = _perfbench_spans().replay_snf(smith_normal_form, [m])
    assert eliminate > 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "endex.cli", "--help"], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0
    for cmd in ("analyze", "alexander", "index", "twisted", "fredholm", "l2-oracle",
                "cup-check", "duality", "plotdata"):
        assert cmd in proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    # No module of endex imports numpy (about 14 MB of resident memory): not
    # the import, not any command on the shipped documents, exact or at a
    # float point (the complete-pivoting ranks of twisted and fredholm),
    # whether it answers or refuses, nor l2-oracle at a point or on its grid.
    # Every run returns from main, and the runs that name no document answer.
    runs = [[cmd, "--input", path(name)] + extra
            for name in sorted(os.listdir(DATA))
            for cmd, extra in (("analyze", []), ("alexander", []), ("index", ["--chi", "0"]),
                               ("duality", []), ("plotdata", []), ("twisted", ["--z", "(0.7+0.1j)"]),
                               ("fredholm", ["--delta", "0.5"]))]
    answering = [["twisted", "--input", path("s1s2.json"), f"--z={z}"] for z in ("1/2", "1", "1+2i")]
    answering += [["l2-oracle", "--lam", "1/2"],
                  ["l2-oracle", "--lam", "0.35", "--mult", "6", "--delta1", "-1", "--delta2", "-2"],
                  ["l2-oracle", "--lam", "1+i", "--mult", "2"],
                  ["l2-oracle"]]
    script = (
        "import contextlib, io, sys, endex.cli\n"
        "codes = []\n"
        f"for argv in {runs + answering!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(endex.cli.main(argv))\n"
        "    if 'numpy' in sys.modules:\n"
        "        sys.exit('numpy loaded by ' + ' '.join(argv))\n"
        "print(*codes)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    codes = [int(c) for c in proc.stdout.split()]
    assert len(codes) == len(runs) + len(answering) and set(codes) <= {0, 1}
    assert codes[len(runs):] == [0] * len(answering)
