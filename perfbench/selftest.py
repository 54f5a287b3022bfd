"""Quick self-test of the benchmark (about half a minute; not part of the
repository's test suite).

    python3 perfbench/selftest.py

Checks that every generated document parses, that the expected answers
agree with endex on the smallest member of each generator, that one
request of each workload passes, and that BENCHMARK.json names exactly
the metrics the runs print.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from endex.inputs import parse_document  # noqa: E402


def documents_parse(workdir):
    for name in workloads.WORKLOADS:
        built = workloads.build(name, 1, os.path.join(workdir, name))
        paths = {a for r in built.requests + [p.request for p in built.probes]
                 for a in r.argv if a.endswith(".json")}
        for path in sorted(paths):
            with open(path, encoding="utf-8") as fh:
                parse_document(json.load(fh))
        print(f"ok: {len(paths)} {name} documents parse")


def smallest_members(workdir):
    client = run.Client()
    rng = random.Random(0)
    cases = [
        ("grid torus 3x3", gen.grid_torus(3, 3, 0, 1), check.analyze, "analyze"),
        ("S^1 x S^1", gen.circle_product(gen.CIRCLE, 3, [1, 1], 0, 1), check.analyze, "analyze"),
        ("planted alexander", gen.alexander_doc(rng, rng, 3, (2, 1, 2), (True, False, False), True, 1),
         check.analyze, "analyze"),
        ("planted complex", gen.planted_complex(rng, rng, 2, [[1], [1], []], 2, 0), check.analyze, "analyze"),
    ]
    for label, (doc, ans), fn, command in cases:
        path = os.path.join(workdir, "member.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err, _ = client.send(workloads.Request(label, (command, "--input", path), None))
        assert code == 0, f"{label}: exit {code}: {err}"
        reason = check.run_check(fn, (ans,), out)
        assert reason is None, f"{label}: {reason}"
        print(f"ok: expected answer of the smallest {label} matches endex")


def smoke(workdir):
    client = run.Client()
    for name in workloads.WORKLOADS:
        built = workloads.build(name, 2, os.path.join(workdir, name))
        first = min(built.requests, key=lambda r: "torus3x4" in r.label)
        p = run.run_pass(client, [first])
        assert p.codes == [0], f"{name}: {first.label} failed"
        reason = first.check(p.outputs[0])
        assert reason is None, f"{name}: {first.label}: {reason}"
        print(f"ok: one-request pass of {name} ({first.label})")


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    want = [m["name"] for m in spec["end_to_end"]]
    assert sorted(want) == sorted(run.END_TO_END), (want, run.END_TO_END)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(run.per_layer_names())
    print("ok: BENCHMARK.json names the metrics the runs print")


def main():
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        documents_parse(workdir)
        smallest_members(workdir)
        smoke(workdir)
    metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())
