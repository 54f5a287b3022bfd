"""The three workloads: seeded documents plus the request list of one pass.

A request is the argv of one `endex` command line and the check its
stdout must pass.  Documents are written to a work directory; endex sees
only those files.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import check
import gen


@dataclass(frozen=True)
class Request:
    label: str
    argv: tuple
    check: object  # callable(stdout) -> None or a reason


@dataclass(frozen=True)
class Probe:
    """A request that exposes a known defect of today's endex.  It is run
    once per run, outside the measured passes; `known` is the outcome
    today's code gives: "wrong", "refused", or "right" for a right answer
    that is far too slow to measure in every pass."""

    request: Request
    known: str


@dataclass
class Workload:
    name: str
    requests: list
    probes: list


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _req(label, argv, fn, *args):
    return Request(label, tuple(argv), functools.partial(check.run_check, fn, args))


def simplicial_ladder(seed: int, workdir: str) -> Workload:
    """`analyze` on grid tori and a staircase S^1 x S^1: boundary entries
    are all +-t^w, so the time is Smith normal forms and the cup check."""
    rng = random.Random(seed)
    members = [
        ("torus3x3", gen.grid_torus(3, 3, rng.randrange(2), rng.choice((1, -1)))),
        ("s1xs1", gen.circle_product(gen.CIRCLE, 3, [1, 1], rng.randrange(3), rng.choice((1, -1)))),
        ("torus3x4", gen.grid_torus(3, 4, rng.randrange(2), rng.choice((1, -1)))),
    ]
    requests = []
    for name, (doc, ans) in members:
        path = _write(workdir, name, doc)
        requests.append(_req(f"analyze {name}", ["analyze", "--input", path], check.analyze, ans))
    return Workload("simplicial-ladder", requests, [])


# Fixed shapes, so that every seed asks for the same amount of work: (n,
# degree of each polynomial, which carry a quadratic, root-reversal symmetric).
ALEXANDER_SHAPES = [
    (3, (8, 8, 8), (True, False, True), False),
    (4, (10, 6, 10, 6), (False, True, False, True), True),
    (5, (12, 4, 8, 4, 12), (True, False, False, False, True), True),
    (3, (14, 10, 6), (True, True, False), False),
    (4, (16, 8, 16, 8), (True, False, True, False), False),
    (5, (18, 6, 10, 6, 18), (False, True, True, True, False), True),
    (3, (20, 12, 20), (True, True, True), True),
    (4, (22, 10, 6, 14), (False, False, True, True), False),
    (5, (24, 8, 8, 8, 24), (True, False, True, False, True), True),
    (3, (24, 16, 24), (False, True, False), False),
]

# c t^5 + t^3 + c has no rational root, so endex tries every pair of divisors
# of c.  720720 = 2^4 3^2 5 7 11 13 (240 divisors) is measured in every pass;
# 735134400 = 2^6 3^3 5^2 7 11 13 17 (1344 divisors, 31 times the pairs)
# takes seconds a request, too long for a pass, so it runs as a probe.
CLIFF = (720720, 0, 0, 1, 0, 720720)
FULL_CLIFF = (735134400, 0, 0, 1, 0, 735134400)


def alexander_batch(seed: int, workdir: str) -> Workload:
    """`analyze`, `index` and `duality` on planted characteristic
    polynomials: no Smith normal form, all time in root finding."""
    rng = random.Random(seed)
    requests = []
    for i, (n, degrees, quads, symmetric) in enumerate(ALEXANDER_SHAPES):
        doc, ans = gen.alexander_doc(random.Random(f"alexander-{i}"), rng, n, degrees, quads,
                                     symmetric, rng.randint(-3, 3))
        path = _write(workdir, f"alex{i}", doc)
        requests += [
            _req(f"analyze alex{i}", ["analyze", "--input", path], check.analyze, ans),
            _req(f"index alex{i}", ["index", "--input", path], check.index, ans),
            _req(f"duality alex{i}", ["duality", "--input", path], check.duality, ans),
        ]
    rng.shuffle(requests)
    doc, ans = gen.numeric_alexander_doc(CLIFF, chi=0)
    path = _write(workdir, "cliff", doc)
    requests.insert(rng.randrange(len(requests) + 1),
                    _req("analyze cliff", ["analyze", "--input", path], check.analyze, ans))

    probes = []
    for name, (doc, ans), known in _defect_documents() + [
            ("cost-cliff", gen.numeric_alexander_doc(FULL_CLIFF, chi=0), "right")]:
        path = _write(workdir, name, doc)
        probes.append(Probe(_req(f"analyze {name}", ["analyze", "--input", path],
                                 check.analyze, ans), known))
    return Workload("alexander-batch", requests, probes)


def _defect_documents():
    """Inputs on which today's wall grouping is known to go wrong."""
    def alex(polys, roots, n, chi=0):
        doc = {"alexander": [gen.ljson(p) for p in polys], "manifold": {"dim": n, "chi": chi}}
        ans = gen.Answer(n=n, chi=chi, polys=[gen.canon(p) for p in polys] + [gen.ONE], roots=roots)
        return doc, ans

    one, two = Fraction(1), Fraction(2)
    # (t^2+1)(t^2+t+1+1e-13): moduli 1 and sqrt(1+1e-13) are merged into one wall.
    c = 1 + Fraction(1, 10**13)
    merged = alex(
        [gen.lmul(gen.lp(0, (1, 0, 1)), gen.lp(0, (c, 1, 1)))],
        [gen.Root(0, 1, z, one) for z in (1j, -1j)]
        + [gen.Root(0, 1, z, c) for z in gen.quadratic_roots(one, c)],
        n=1,
    )
    # Two distinct quadratics in one square-free factor lose their exact
    # moduli; the +-i of degree 0 then meets the exact +-i of degree 1.
    two_quads = alex(
        [gen.lmul(gen.lp(0, (1, 0, 1)), gen.lp(0, (2, 1, 1))), gen.lp(0, (1, 0, 1))],
        [gen.Root(0, 1, z, one) for z in (1j, -1j)]
        + [gen.Root(0, 1, z, two) for z in gen.quadratic_roots(one, two)]
        + [gen.Root(1, 1, z, one) for z in (1j, -1j)],
        n=2,
    )
    # End coefficient 2 * 1000003 * 1000033 is past the 10^12 cap, so the
    # rational root 2 of degree 0 is only located numerically.
    big = [Fraction(2), Fraction(1000003), Fraction(1000033)]
    capped = alex(
        [gen.lprod(gen.linear(r) for r in big), gen.linear(2)],
        [gen.Root(0, 1, r, r * r) for r in big] + [gen.Root(1, 1, two, two * two)],
        n=2,
    )
    return [("defect-merge", merged, "wrong"),
            ("defect-two-quadratics", two_quads, "refused"),
            ("defect-cap", capped, "refused")]


# Invariant factor chains of the planted complexes, per degree (each entry is
# the number of roots a factor adds to the one before it), and how many
# elementary operations disguise each chain module.
PLANTED_SHAPES = [
    ([[1, 1, 1], [1, 2], [2, 1]], 8),
    ([[2, 1], [1, 1, 1], [1, 1]], 8),
    ([[1, 2], [2, 1], [1, 1, 1]], 8),
]
# Points and weight pairs of endex's standard l2 grid (32 kernels, seconds
# of SVD); a pass asks for one weight pair per point instead.
L2_POINTS = (("1/2", 0.5), ("1", 1.0), ("2", 2.0), ("1+i", 1 + 1j))
L2_WEIGHTS = ((1.0, 0.5), (0.5, 1.0), (1.0, -1.0), (-1.0, -2.0))
FLOAT_POINT = "(0.7+0.1j)"
GAUSSIAN_POINT = "1+2i"
DATA_DIR = os.path.join("tests", "data")  # the examples endex ships, relative to the repository


def oracle_mix(seed: int, workdir: str) -> Workload:
    """Every subcommand but `analyze`, on dense planted complexes, the
    3 x 3 torus and the two shipped example documents."""
    rng = random.Random(seed)
    requests = []
    for i, (chains, ops) in enumerate(PLANTED_SHAPES):
        doc, ans = gen.planted_complex(random.Random(f"planted-{i}"), rng, 3, chains + [[]], ops,
                                       rng.randint(-2, 2))
        path = _write(workdir, f"planted{i}", doc)
        svg = os.path.join(workdir, f"planted{i}.svg")
        root = rng.choice([r.value for r in ans.roots])
        walls = [w.delta for w in ans.walls()]
        off_wall = (walls[0] + walls[1]) / 2 if len(walls) > 1 else walls[0] + 0.5
        requests += [
            _req(f"alexander planted{i}", ["alexander", "--input", path], check.alexander, ans),
            _req(f"index planted{i}", ["index", "--input", path], check.index, ans),
            _req(f"plotdata planted{i}", ["plotdata", "--input", path, "--svg", svg],
                 check.plotdata, ans, svg),
            _req(f"duality planted{i}", ["duality", "--input", path], check.duality, ans),
            _req(f"twisted planted{i} rational", ["twisted", "--input", path, f"--z={gen.fmt(root)}"],
                 check.twisted, ans, root),
            _req(f"twisted planted{i} gaussian", ["twisted", "--input", path, f"--z={GAUSSIAN_POINT}"],
                 check.twisted, ans, (Fraction(1), Fraction(2))),
            _req(f"twisted planted{i} float", ["twisted", "--input", path, f"--z={FLOAT_POINT}"],
                 check.twisted, ans, complex(FLOAT_POINT)),
            _req(f"fredholm planted{i}", ["fredholm", "--input", path, f"--delta={off_wall!r}"],
                 check.fredholm, ans, off_wall, 16),
        ]

    doc, ans = gen.grid_torus(3, 3, rng.randrange(2), rng.choice((1, -1)))
    path = _write(workdir, "torus3x3", doc)
    requests += [
        _req("cup-check torus3x3", ["cup-check", "--input", path], check.cup_check, ans),
        _req("index torus3x3", ["index", "--input", path], check.index, ans),
        _req("twisted torus3x3", ["twisted", "--input", path, "--z=1"],
             check.twisted, ans, Fraction(1)),
        _req("fredholm torus3x3", ["fredholm", "--input", path, "--delta=0.5"],
             check.fredholm, ans, 0.5, 16),
    ]

    fox, s1s2 = os.path.join(DATA_DIR, "fox.json"), os.path.join(DATA_DIR, "s1s2.json")
    fox_ans, s1s2_ans = gen.fox_answer(), gen.s1s2_answer()
    svg = os.path.join(workdir, "fox.svg")
    requests += [
        _req("index fox", ["index", "--input", fox], check.index, fox_ans),
        _req("duality fox", ["duality", "--input", fox], check.duality, fox_ans),
        _req("plotdata fox", ["plotdata", "--input", fox, "--svg", svg], check.plotdata, fox_ans, svg),
        _req("alexander s1s2", ["alexander", "--input", s1s2], check.alexander, s1s2_ans),
        _req("twisted s1s2 float", ["twisted", "--input", s1s2, "--z=(1+0j)"],
             check.twisted, s1s2_ans, 1 + 0j),
        _req("fredholm s1s2", ["fredholm", "--input", s1s2, "--delta=0.0"],
             check.fredholm, s1s2_ans, 0.0, 16),
    ]
    for lam, value in L2_POINTS:
        m, (d1, d2) = rng.choice((1, 2)), rng.choice(L2_WEIGHTS)
        requests.append(_req(f"l2-oracle {lam}", ["l2-oracle", f"--lam={lam}", f"--mult={m}",
                                                  f"--delta1={d1}", f"--delta2={d2}"],
                             check.l2_point, value, m, d1, d2))
    rng.shuffle(requests)

    probes = []
    for name, (seed_, shape, ops, delta) in NUMERIC_DEFECTS.items():
        doc, ans = gen.planted_complex(random.Random(seed_), random.Random(seed_), 3,
                                       PLANTED_SHAPES[shape][0] + [[]], ops, 0)
        path = _write(workdir, name, doc)
        probes.append(Probe(_req(f"fredholm {name}", ["fredholm", "--input", path, f"--delta={delta!r}"],
                                 check.fredholm, ans, delta, 16), "wrong"))
    return Workload("oracle-mix", requests, probes)


# Planted complexes on which the numeric Fredholm verdict (SVD ranks at the
# shared 1e-9 cutoff) disagrees with the symbolic one: (generator seed,
# shape, disguise operations, weight).  On the wall ln(1/2) the samples miss
# the rank drop; off every wall, heavier disguise makes a full-rank boundary
# look rank-deficient.
NUMERIC_DEFECTS = {
    "defect-fredholm-on-wall": (0, 0, 8, math.log(1 / 2)),
    "defect-fredholm-off-wall": (17, 2, 20, 0.5493061443340548),
}


WORKLOADS = {
    "simplicial-ladder": simplicial_ladder,
    "alexander-batch": alexander_batch,
    "oracle-mix": oracle_mix,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
