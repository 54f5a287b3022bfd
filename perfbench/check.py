"""Output checks: compare what endex printed with the expected answer.

Each check takes the request's stdout and returns None when it is right,
or a one-line reason when it is not.  Exact data (polynomials, ranks,
jumps, index values) must match exactly; floats that endex computes
(wall weights, complex roots) must match within a stated tolerance.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from gen import Answer, fmt, ljson, reverse

DELTA_ABS = 1e-12  # wall weights: absolute slack ...
DELTA_REL = 1e-9  # ... plus relative slack
ROOT_TOL = 1e-8  # complex roots, relative to their modulus


class Mismatch(Exception):
    pass


def expect(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DELTA_ABS + DELTA_REL * max(abs(a), abs(b))


def _lambda_ok(got, want) -> bool:
    if isinstance(want, Fraction):
        return got == fmt(want)
    z = complex(*got) if isinstance(got, list) else None
    return z is not None and abs(z - want) <= ROOT_TOL * max(1.0, abs(want))


def _walls(got, ans: Answer):
    want = ans.walls()
    expect(len(got) == len(want), f"{len(got)} walls, expected {len(want)}")
    for g, w in zip(got, want):
        expect(g["jump"] == w.jump, f"wall jump {g['jump']}, expected {w.jump}")
        expect(g["delta_exact"] == w.delta_exact,
               f"wall {g['delta_exact']}, expected {w.delta_exact}")
        expect(_close(g["delta"], w.delta), f"wall at {g['delta']}, expected {w.delta}")
        cs = sorted(g["contributions"], key=lambda c: (c["k"], c["mult"], str(c["lambda"])))
        expect(len(cs) == len(w.contributions), f"wall at {w.delta}: contribution count")
        remaining = list(w.contributions)
        for c in cs:
            hit = next((x for x in remaining
                        if x[0] == c["k"] and x[1] == c["mult"] and _lambda_ok(c["lambda"], x[2])),
                       None)
            expect(hit is not None, f"wall at {w.delta}: unexpected contribution {c}")
            remaining.remove(hit)


def _intervals(got, ans: Answer):
    want = ans.values()
    deltas = [w.delta for w in ans.walls()]
    expect(len(got) == len(want), "interval count")
    for i, (g, v) in enumerate(zip(got, want)):
        expect(g["value"] == v, f"interval {i} value {g['value']}, expected {v}")
        lo = deltas[i - 1] if i else None
        hi = deltas[i] if i < len(deltas) else None
        for end, target in ((g["lo"], lo), (g["hi"], hi)):
            expect((end is None) == (target is None) and (end is None or _close(end, target)),
                   f"interval {i} ends")


def _duality(got, ans: Answer, with_parity: bool):
    n = ans.n
    pairs_ok = True
    for g, k in zip(got["pairs"], range((n + 1) // 2)):
        partner = n - 1 - k
        ok = reverse(ans.polys[partner]) == ans.polys[k]
        if k != partner:
            ok = ok and reverse(ans.polys[k]) == ans.polys[partner]
        expect(g == {"k": k, "partner": partner, "ok": ok}, f"duality pair {k}: {g}")
        pairs_ok = pairs_ok and ok
    expect(len(got["pairs"]) == (n + 1) // 2, "duality pair count")
    all_ok = pairs_ok
    if with_parity:
        par = got["parity"]
        expect(par["n_parity"] == ("even" if n % 2 == 0 else "odd"), "parity label")
        expect(len(par["samples"]) > 0, "no parity samples")
        parity_ok = True
        for s in par["samples"]:
            neg, pos = ans.index_at(-s["delta"]), ans.index_at(s["delta"])
            ok = neg == (-1) ** n * pos
            expect(s == {"delta": s["delta"], "ind_neg": neg, "ind_pos": pos, "ok": ok},
                   f"parity sample {s}")
            parity_ok = parity_ok and ok
        expect(par["ok"] == parity_ok, "parity verdict")
        all_ok = all_ok and parity_ok
    else:
        expect("parity" not in got, "parity without chi")
    expect(got["ok"] == all_ok, f"duality verdict {got['ok']}, expected {all_ok}")


def _homology(got, ans: Answer):
    degrees = got["degrees"]
    expect(len(degrees) == ans.n + 1, "homology degree count")
    for k, d in enumerate(degrees):
        want = [ljson(q) for q in ans.factors[k]]
        expect(d["free_rank"] == 0, f"H{k} free rank {d['free_rank']}")
        expect(d["invariant_factors"] == want, f"H{k} factors {d['invariant_factors']}, expected {want}")
        expect(d["dim"] == sum(len(q[1]) - 1 for q in ans.factors[k]), f"H{k} dim")


def _polys(got, ans: Answer):
    expect(got["n"] == ans.n, "alexander n")
    expect(got["polys"] == [ljson(p) for p in ans.polys], "characteristic polynomials")


def analyze(out: str, ans: Answer):
    r = json.loads(out)
    expect(r["n"] == ans.n and r["chi"] == ans.chi, "n/chi")
    expect(r["warnings"] == [], f"warnings {r['warnings']}")
    if ans.factors is not None:
        _homology(r["homology"], ans)
        expect(r["finiteness"] == {"finite": True, "infinite_degrees": []}, "finiteness")
        expect(r["euler_x"] == 0, "euler characteristic")
        expect(r["complex"]["ranks"] == ans.ranks, "chain ranks")
    if ans.cup is not None:
        expect(r["cup_check"] == ans.cup, f"cup check {r['cup_check']}")
    _polys(r["alexander"], ans)
    _walls(r["walls"], ans)
    expect(r["values"] == ans.values(), f"index values {r['values']}, expected {ans.values()}")
    _intervals(r["intervals"], ans)
    _duality(r["duality"], ans, with_parity=True)
    for s in r["excision_samples"]:
        want = ans.index_at(s["delta2"]) - ans.index_at(s["delta1"])
        expect(s["index_difference"] == want and s["agree"], f"excision sample {s}")


def index(out: str, ans: Answer):
    r = json.loads(out)
    expect(sorted(r) == ["chi", "intervals", "n", "values", "walls"], "index keys")
    expect(r["n"] == ans.n and r["chi"] == ans.chi, "n/chi")
    _walls(r["walls"], ans)
    expect(r["values"] == ans.values(), f"index values {r['values']}, expected {ans.values()}")
    _intervals(r["intervals"], ans)


def duality(out: str, ans: Answer):
    _duality(json.loads(out), ans, with_parity=ans.chi is not None)


def alexander(out: str, ans: Answer):
    r = json.loads(out)
    if ans.factors is not None:
        _homology(r["homology"], ans)
        expect(r["finiteness"] == {"finite": True, "infinite_degrees": []}, "finiteness")
    _polys(r["alexander"], ans)


def plotdata(out: str, ans: Answer, svg_path: str):
    r = json.loads(out)
    deltas = [w.delta for w in ans.walls()]
    expect(len(r["walls"]) == len(deltas) and all(map(_close, r["walls"], deltas)), "plot walls")
    xs = [d for d, _ in r["samples"]]
    expect(xs == sorted(xs) and len(xs) >= 2 * len(deltas) + 1, "plot sample layout")
    for d, v in r["samples"]:
        expect(v == ans.index_at(d), f"plot sample ({d}, {v})")
    with open(svg_path, encoding="utf-8") as fh:
        svg = fh.read()
    expect(svg.startswith("<svg ") and svg.endswith("</svg>\n"), "svg framing")
    expect(svg.count('stroke-dasharray="4 3"') == len(deltas), "svg wall markers")
    expect(svg.count('stroke="#1f4e9c"') == len(ans.values()), "svg steps")


def _vanishes(q, z) -> bool:
    """Does q vanish at z?  Exact for Fraction and (re, im) Fraction pairs,
    a 1e-9 relative test for floats."""
    if isinstance(z, tuple):
        re, im = Fraction(0), Fraction(0)
        for c in reversed(q[1]):
            re, im = re * z[0] - im * z[1] + c, re * z[1] + im * z[0]
        return re == 0 and im == 0
    if isinstance(z, complex):
        scale = sum(abs(float(c)) * abs(z) ** i for i, c in enumerate(q[1]))
        acc = 0j
        for c in reversed(q[1]):
            acc = acc * z + float(c)
        return abs(acc) <= 1e-9 * scale
    acc = Fraction(0)
    for c in reversed(q[1]):
        acc = acc * z + c
    return acc == 0


def twisted_dims(ans: Answer, z, degrees: int):
    """Coefficient splitting: degree k gains one dimension per invariant
    factor of H_k and of H_(k-1) that vanishes at z."""
    vanish = [sum(1 for q in ans.factors[k] if _vanishes(q, z)) if k <= ans.n else 0
              for k in range(degrees)]
    return [vanish[k] + (vanish[k - 1] if k else 0) for k in range(degrees)]


def twisted(out: str, ans: Answer, z):
    r = json.loads(out)
    exact = not isinstance(z, complex)
    expect(r["exact"] == exact, "exactness flag")
    want = twisted_dims(ans, z, ans.n + 1)
    expect(r["dims"] == want, f"twisted dims {r['dims']}, expected {want}")
    if exact:
        uct = twisted_dims(ans, z, ans.n + 2)
        expect(r["uct_dims"] == uct and r["uct_crosscheck"] is True, "coefficient splitting")
    else:
        expect("uct_dims" not in r, "float point carries a splitting")


def fredholm(out: str, ans: Answer, delta: float, samples: int):
    r = json.loads(out)
    on_wall = any(abs(w.delta - delta) <= 1e-9 for w in ans.walls())
    expect(r["fredholm"] == r["symbolic_fredholm"] == (not on_wall),
           f"fredholm verdict {r['fredholm']} at {delta}")
    expect(r["numeric_fredholm"] == (not on_wall) and r["agree"] is True, "numeric verdict")
    expect(r["delta"] == delta and r["samples"] == samples, "echoed parameters")


def cup_check(out: str, ans: Answer):
    expect(json.loads(out) == ans.cup, "cup check report")


def l2_point(out: str, lam: complex, m: int, d1: float, d2: float):
    """The analytic count is m exactly when the modulus of lambda lies
    strictly between the two weight circles, in that order; the truncated
    kernel must find the same."""
    r = json.loads(out)
    want = m if d2 < math.log(abs(lam)) < d1 else 0
    expect(r["analytic"] == want and r["truncated"] == want and r["agree"] is True,
           f"l2 kernel {r['analytic']}/{r['truncated']}, expected {want}")
    expect((r["m"], r["delta1"], r["delta2"]) == (m, d1, d2), "echoed parameters")


def run_check(check, args, out: str):
    """None when the output passes check(out, *args), else the reason it
    does not."""
    try:
        check(out, *args)
    except Mismatch as e:
        return str(e)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
    return None
