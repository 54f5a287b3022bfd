"""Input document parsing for the command line and the pipeline.

Three top-level schemas are accepted, distinguished by their keys:

* complex:     {"ranks": [...], "boundaries": [matrix...], "n": optional}
* simplicial:  {"vertices": V, "simplices": {"1": [[u,v],...]}, "cocycle": {...}}
* alexander:   {"alexander": [poly...]}  (direct polynomial injection)

Any of them may carry a "manifold": {"dim": n, "chi": c} block; command
line flags override it.
"""

from __future__ import annotations

import cmath
import json
import re

from .complexes import SimplicialInput, from_boundary_matrices, lift_simplicial
from .errors import ComplexValidationError, FloatRangeError
from .homology import AlexanderData
from .laurent import LaurentPoly
from .pipeline import Analysis
from .rationals import GaussianRational, parse_int, parse_rational


def parse_document(doc, dim_override: int | None = None, chi_override: int | None = None) -> Analysis:
    """Classify and validate one input document, as the `Analysis` of it.

    The decoders index and iterate the document as the schema says, so a
    value of the wrong JSON type, a missing field or a non-integral integer
    surfaces as one of four built-in errors; each is reported as a
    ComplexValidationError.
    """
    if not isinstance(doc, dict):
        raise ComplexValidationError("input document must be a JSON object")
    try:
        return _parse(doc, dim_override, chi_override)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        detail = f"missing field {e}" if isinstance(e, KeyError) else str(e)
        raise ComplexValidationError(f"malformed input document: {detail}") from e


def _parse(doc, dim_override, chi_override) -> Analysis:
    manifold = doc.get("manifold") or {}
    dim = dim_override if dim_override is not None else (
        parse_int(manifold["dim"]) if "dim" in manifold else None
    )
    chi = chi_override if chi_override is not None else (
        parse_int(manifold["chi"]) if "chi" in manifold and manifold["chi"] is not None else None
    )
    if dim is not None and dim < 0:
        raise ComplexValidationError(f"manifold dimension {dim} is negative")

    if "alexander" in doc:
        polys = [LaurentPoly.from_json(p) for p in doc["alexander"]]
        n = dim if dim is not None else len(polys)
        return Analysis("alexander", None, AlexanderData(n, polys), n, chi)
    if "vertices" in doc or "simplices" in doc:
        kind, cc = "simplicial", lift_simplicial(SimplicialInput.from_json(doc))
    elif "ranks" in doc or "boundaries" in doc:
        kind, cc = "complex", from_boundary_matrices(doc)
    else:
        raise ComplexValidationError(
            "unrecognized input: expected 'alexander', 'vertices'/'simplices', or 'ranks'/'boundaries'"
        )
    # A dimension below the top degree would drop the homology above it.
    if dim is not None and dim < cc.n:
        raise ComplexValidationError(f"manifold dimension {dim} is below the complex's top degree {cc.n}")
    return Analysis(kind, cc, None, cc.n if dim is None else dim, chi)


def load_input(path: str, dim_override: int | None = None, chi_override: int | None = None) -> Analysis:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ComplexValidationError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    return parse_document(doc, dim_override, chi_override)


def parse_point(text: str):
    """An evaluation point: exact rational, exact a+bi, or complex float.

    Examples: "1/2", "-3", "1/2+1/3i", "2-i", "0.7", "0.5+0.25j".  A float
    point that is not finite ("nan", "-inf", "(1e400+0.5j)") raises FloatRangeError.
    """
    s = text.strip().replace(" ", "")
    try:
        return parse_rational(s)
    except (ValueError, ZeroDivisionError):
        pass
    if s.endswith("i") or s.endswith("j"):
        body = s[:-1]
        split = max(body.rfind("+", 1), body.rfind("-", 1))
        if split == -1:
            re_part, im_part = "0", body or "1"
        else:
            re_part, im_part = body[:split], body[split:] or "1"
        if im_part in ("", "+", "-"):
            im_part += "1"
        try:
            return GaussianRational(parse_rational(re_part), parse_rational(im_part))
        except (ValueError, ZeroDivisionError):
            pass
    try:
        z = complex(re.sub(r"i(\)?)$", r"j\1", s))  # only a trailing unit: "inf" stays
    except ValueError:
        raise ComplexValidationError(f"cannot parse evaluation point {text!r}")
    if not cmath.isfinite(z):
        raise FloatRangeError(f"evaluation point {text!r} is not a finite complex number")
    return z
