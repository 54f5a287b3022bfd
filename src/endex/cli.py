"""Command line front end.

Subcommands cover the full pipeline (analyze) and the individual stages
and verification oracles.  Structured (JSON) output is the stable
contract; the text format is for human eyes.  Diagnostics go to stderr and
the exit code is zero exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .cup import cup_product_check
from .errors import EndexError, NotFiniteError, UnsupportedInputError
from .indexfn import duality_check
from .inputs import load_input, parse_point
from .laurent import LaurentPoly
from .pipeline import Analysis, analyze
from .rationals import GaussianRational
from .svgplot import plot_data, plot_text, render_svg
from .twisted import fredholm_check, l2_hom_dim_analytic, l2_kernel_truncated, twisted_dims, uct_dims

_L2_GRID_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2), 1 + 1j)
_L2_GRID_WEIGHTS = ((1.0, 0.5), (0.5, 1.0), (1.0, -1.0), (-1.0, -2.0))


def _emit(args, payload, text_renderer=None):
    # Only the commands with a text renderer take --format.
    if text_renderer and args.format == "text":
        body = text_renderer(payload)
    else:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _analyze_text(report) -> str:
    lines = [f"input: {report['input_kind']} (n={report['n']}, chi={report['chi']})"]
    if "euler_x" in report:
        lines.append(f"euler characteristic of X: {report['euler_x']}")
    if "homology" in report:
        lines.append("homology:")
        for deg in report["homology"]["degrees"]:
            facs = ", ".join(_poly_text(q) for q in deg["invariant_factors"]) or "-"
            lines.append(
                f"  H{deg['degree']}: free rank {deg['free_rank']}, factors [{facs}]"
            )
    if "finiteness" in report:
        v = report["finiteness"]
        lines.append(
            "finiteness: finite" if v["finite"] else f"finiteness: infinite in degrees {v['infinite_degrees']}"
        )
    if "alexander" in report:
        polys = report["alexander"]["polys"]
        lines.append("characteristic polynomials: " + ", ".join(_poly_text(p) for p in polys))
    for w in report.get("walls", ()):
        label = w["delta_exact"] or f"{w['delta']:.6g}"
        contribs = "; ".join(
            f"k={c['k']} lambda={c['lambda']} mult={c['mult']}" for c in w["contributions"]
        )
        lines.append(f"wall at {label} (delta={w['delta']:.6g}): jump {w['jump']:+d}  [{contribs}]")
    if "values" in report:
        lines.append(f"index values: {report['values']}")
    if "duality" in report:
        lines.append("duality: " + ("ok" if report["duality"]["ok"] else "FAILED"))
    if "cup_check" in report:
        c = report["cup_check"]
        lines.append(
            "cup sequence: " + ("exact" if c["exact"] else f"not exact, defects {c['defects']}")
        )
    for w in report.get("warnings", ()):
        lines.append(f"warning: {w}")
    for n in report.get("notices", ()):
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


def _poly_text(pj) -> str:
    return LaurentPoly.from_json(pj).pretty()


def _analysis(args) -> Analysis:
    return load_input(args.input, args.dim, args.chi)


def _write_svg(args, f):
    if args.svg and f is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(f))


def _cmd_analyze(args):
    analysis = _analysis(args)
    report = analyze(analysis)
    _write_svg(args, analysis.index)
    _emit(args, report, _analyze_text)


def _cmd_alexander(args):
    analysis = _analysis(args)
    payload = {}
    if analysis.complex is not None:
        payload["homology"] = analysis.homology.to_json()
        payload["finiteness"] = analysis.finiteness_json()
    if analysis.finite:
        payload["alexander"] = analysis.alexander.to_json()
    _emit(args, payload)


def _cmd_index(args):
    analysis = _analysis(args)
    if analysis.chi is None:
        raise EndexError("the index needs --chi (or a manifold block with chi)")
    if not analysis.finite:
        raise NotFiniteError(analysis.homology.infinite_degrees)
    _emit(args, analysis.index.to_json())


def _cmd_twisted(args):
    analysis = _analysis(args)
    if analysis.complex is None:
        raise UnsupportedInputError("twisted dimensions need a chain complex input")
    z = parse_point(args.z)
    if z in (0, GaussianRational(0, 0)):
        raise EndexError("twisted dimensions need a nonzero point z")
    fiber = twisted_dims(analysis.complex, z)
    payload = fiber.to_json()
    if fiber.exact and analysis.finite:
        predicted = uct_dims(analysis.homology, z)
        payload["uct_dims"] = predicted
        n = len(fiber.dims)
        payload["uct_crosscheck"] = list(fiber.dims) == predicted[:n] and not any(predicted[n:])
    _emit(args, payload)


def _cmd_fredholm(args):
    analysis = _analysis(args)
    if analysis.complex is None:
        raise UnsupportedInputError("the Fredholm check needs a chain complex input")
    _emit(args, fredholm_check(analysis, args.delta))


def _l2_row(label, lam, mult=1, delta1=1.0, delta2=0.5):
    analytic = l2_hom_dim_analytic(lam, mult, delta1, delta2)
    truncated = l2_kernel_truncated(lam, mult, delta1, delta2)
    return {"lambda": label, "m": mult, "delta1": delta1, "delta2": delta2,
            "analytic": analytic, "truncated": truncated, "agree": analytic == truncated}


def _cmd_l2_oracle(args):
    # The Jordan block flags are set only when given (argparse.SUPPRESS).
    block = {k: v for k, v in vars(args).items() if k in ("mult", "delta1", "delta2")}
    if args.lam is not None:
        payload = _l2_row(args.lam, parse_point(args.lam), **block)
    elif block:
        args.usage_error(f"{', '.join('--' + k for k in block)}: only allowed with --lam")
    else:
        rows = [_l2_row(str(lam), lam, m, d1, d2)
                for lam in _L2_GRID_POINTS for m in (1, 2) for d1, d2 in _L2_GRID_WEIGHTS]
        payload = {"grid": rows, "all_agree": all(r["agree"] for r in rows)}
    _emit(args, payload)


def _cmd_cup_check(args):
    analysis = _analysis(args)
    if analysis.kind != "simplicial":
        raise UnsupportedInputError("the cup check needs a simplicial input")
    _emit(args, cup_product_check(analysis.complex))


def _cmd_duality(args):
    analysis = _analysis(args)
    f = analysis.index if analysis.chi is not None else None
    _emit(args, duality_check(analysis.alexander, f))


def _cmd_plotdata(args):
    f = _analysis(args).index
    if f is None:
        raise EndexError("plot data needs a computable index (finite homology and chi)")
    _write_svg(args, f)
    _emit(args, plot_data(f), plot_text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one, so
    no caller may change it; parse_args leaves it as it is and returns a
    fresh Namespace."""
    top = argparse.ArgumentParser(
        prog="endex",
        description="Index step functions of weighted complexes on end-periodic manifolds",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *flags, needs_input=True):
        """--input and --output, then each of the optional flags named:
        "format" for the commands with a text renderer, "chi" and "dim"
        for the commands that override the manifold block (None if not)."""
        if needs_input:
            p.add_argument("--input", required=True, help="path to a JSON input document")
        if "format" in flags:
            p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")
        if "chi" in flags:
            p.add_argument("--chi", type=int, default=None, help="euler characteristic override")
        if "dim" in flags:
            p.add_argument("--dim", type=int, default=None, help="manifold dimension override")
        p.set_defaults(**{f: None for f in ("chi", "dim") if f not in flags})

    p = sub.add_parser("analyze", help="full pipeline report")
    common(p, "format", "chi", "dim")
    p.add_argument("--svg", help="also render the step function to this SVG file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("alexander", help="homology and characteristic polynomials")
    common(p, "dim")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("index", help="walls and index values")
    common(p, "chi", "dim")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("twisted", help="twisted cohomology dimensions at a point")
    common(p)
    p.add_argument("--z", required=True, help="evaluation point, e.g. '1/2', '1+2i', '0.7'")
    p.set_defaults(func=_cmd_twisted)

    p = sub.add_parser("fredholm", help="Fredholm verdict at a weight")
    common(p)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_fredholm)

    p = sub.add_parser("l2-oracle", help="weighted shift kernel oracle vs analytic count")
    common(p, needs_input=False)
    p.add_argument("--lam", help="eigenvalue; omit to run the standard grid")
    p.add_argument("--mult", type=int, default=argparse.SUPPRESS, help="Jordan block size (with --lam; default 1)")
    p.add_argument("--delta1", type=float, default=argparse.SUPPRESS, help="weight (with --lam; default 1)")
    p.add_argument("--delta2", type=float, default=argparse.SUPPRESS, help="weight (with --lam; default 0.5)")
    p.set_defaults(func=_cmd_l2_oracle, usage_error=p.error)

    p = sub.add_parser("cup-check", help="cup multiplication exactness on cohomology")
    common(p)
    p.set_defaults(func=_cmd_cup_check)

    p = sub.add_parser("duality", help="polynomial reversal symmetry and index parity")
    common(p, "chi", "dim")
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("plotdata", help="step function samples and wall markers")
    common(p, "format", "chi", "dim")
    p.add_argument("--svg", help="render a self-contained SVG here")
    p.set_defaults(func=_cmd_plotdata)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (EndexError, ValueError, OSError) as e:
        print(f"endex: error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
