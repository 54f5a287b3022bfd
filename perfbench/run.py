"""Closed-loop benchmark of the endex command line.

    python3 perfbench/run.py --workload simplicial-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 30

One client in one process sends each request only after the previous one
returned.  A request is an in-process call to endex.cli.main(argv) with
stdout captured; its output is checked against an answer the benchmark
computed itself.  A run repeats passes over the workload's request list
for --seconds and prints, as its last line, one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
--report runs every workload untraced and prints one row per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
SETUP_TRIALS = 7
CPUS = sorted(os.sched_getaffinity(0))  # the CPUs this process may run on

# endex's numpy calls would otherwise start one BLAS thread per CPU, all on
# the one CPU the benchmark is pinned to; set before endex imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, HERE)

import gen  # noqa: E402
import workloads  # noqa: E402

# The shared host slows each virtual CPU by up to 2x, independently of the
# other and in spells from a tenth of a second to tens of minutes, often
# longer than a run.  The benchmark times a probe, a fixed slice of its own
# Fraction arithmetic (gen.py, never endex) under a millisecond long, on each
# CPU before a request, sends the request on the CPU that ran it fastest, and
# times it again every SAMPLE_INTERVAL seconds while the request runs.
# Latencies are reported in units of the probe time ("probe"), which the same
# spells slow alike.
SAMPLE_INTERVAL = 0.02
# Set-up time is reported in seconds at this probe time, the probe's time in
# a fast spell on the machine the benchmark was built on (Intel Xeon, 2 vCPU).
NOMINAL_PROBE_S = 0.00035
PROBE_A = gen.lprod(gen.linear(Fraction(p, q)) for p, q in ((1, 2), (3, 7), (5, 3), (2, 5), (7, 4)))
PROBE_B = gen.lprod(gen.linear(Fraction(p, q)) for p, q in ((2, 3), (5, 7), (1, 6), (3, 4)))


def probe_seconds() -> float:
    start = time.perf_counter()
    gen.lmul(gen.lmul(PROBE_A, PROBE_B), PROBE_A)
    return time.perf_counter() - start


def probe_here() -> float:
    return min(probe_seconds() for _ in range(2))


def pin_fastest_cpu() -> float:
    """Pin this process to the allowed CPU that runs the probe fastest now;
    returns that probe time in seconds."""
    timed = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timed.append((probe_here(), cpu))
    os.sched_setaffinity(0, {min(timed)[1]})
    return min(timed)[0]


class Sampler:
    """Times the probe from a SIGALRM handler every SAMPLE_INTERVAL seconds
    while a request runs; `spent` is the time the handler took, which is
    not the request's."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def setup(workload: str, seed: int, workdir: str):
    """Import endex and write the workload's documents; returns the
    workload and the seconds that took."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import endex.cli  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import endex from {os.path.join(ROOT, 'src')}: {e}")

    built = workloads.build(workload, seed, workdir)
    return built, time.perf_counter() - start


def setup_seconds(workload: str, seed: int, first: float, first_probe: float):
    """Median set-up time of this process's own set-up and fresh processes:
    in seconds at NOMINAL_PROBE_S, each trial scaled by the mean probe time
    before and after it, and as measured."""
    times, scaled = [first], [first * NOMINAL_PROBE_S / first_probe]
    for i in range(SETUP_TRIALS - 1):
        workdir = os.path.join(WORK, f"setup-{os.getpid()}-{i}")
        before = pin_fastest_cpu()  # the set-up process inherits the CPU
        try:
            out = subprocess.run(
                [sys.executable, __file__, "--setup-only", "--workload", workload,
                 "--seed", str(seed), "--workdir", workdir],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            ).stdout
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(out.split()[-1]))
        scaled.append(times[-1] * NOMINAL_PROBE_S / ((before + probe_here()) / 2))
    return statistics.median(scaled), statistics.median(times)


class Client:
    """Sends requests to endex.cli.main and records what came back."""

    def __init__(self):
        import endex.cli

        self.cli = endex.cli

    def send(self, request, sampler=None):
        """Returns (exit code, stdout, stderr, seconds); a traceback counts
        as a failed request with code -1.  A sampler's handler time is
        left out of the seconds."""
        out, err = io.StringIO(), io.StringIO()
        # Each request starts from a collected heap, as a fresh `endex`
        # process would, not from the previous request's garbage.
        gc.collect()
        start = time.perf_counter()
        try:
            with sampler or contextlib.nullcontext(), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(request.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a result to report
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start - (sampler.spent if sampler else 0.0)
        return code, out.getvalue(), err.getvalue(), elapsed


class Pass:
    """Outcome of one pass over the request list."""

    def __init__(self, wall, latencies, codes, outputs, probe_times):
        self.wall = wall
        self.latencies = latencies
        self.codes = codes
        self.outputs = outputs
        self.probe_times = probe_times  # seconds, before and during the requests

    def unit(self) -> float:
        """The pass's probe unit in seconds: its median probe time."""
        return statistics.median(self.probe_times)


def run_pass(client, requests, tracer=None) -> Pass:
    """One pass.  A traced pass does not sample the probe during requests,
    so that no probe time lands in a span."""
    latencies, codes, outputs, probe_times = [], [], [], []
    start = time.perf_counter()
    for r in requests:
        probe_times.append(pin_fastest_cpu())
        sampler = Sampler() if tracer is None else None
        if tracer is not None:
            tracer.request = r.label
        code, out, err, elapsed = client.send(r, sampler)
        if sampler is not None:
            probe_times += sampler.samples
        if code != 0:
            print(f"# failed: {r.label}: exit {code}: {err.strip()[-300:]}", file=sys.stderr)
        latencies.append(elapsed)
        codes.append(code)
        outputs.append(out)
    return Pass(time.perf_counter() - start, latencies, codes, outputs, probe_times)


class Verdicts:
    """Failed and wrong requests over every pass; outputs identical to an
    output already checked are not checked again."""

    def __init__(self, requests):
        self.requests = requests
        self.checked = [None] * len(requests)  # (stdout, reason) of the first success
        self.attempted = self.failed = self.wrong = 0

    def add(self, p: Pass):
        for i, (code, out) in enumerate(zip(p.codes, p.outputs)):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                continue
            if self.checked[i] is None or self.checked[i][0] != out:
                self.checked[i] = (out, self.requests[i].check(out))
            reason = self.checked[i][1]
            if reason is not None:
                self.wrong += 1
                print(f"# wrong: {self.requests[i].label}: {reason}", file=sys.stderr)


def run_probes(client, probes):
    """Known-defect probes: (label, outcome today, known outcome, ok, seconds)."""
    rows = []
    for probe in probes:
        code, out, _, elapsed = client.send(probe.request)
        if code != 0:
            outcome = "refused"
        else:
            outcome = "wrong" if probe.request.check(out) is not None else "right"
        rows.append((probe.request.label, outcome, probe.known,
                     outcome in (probe.known, "right"), elapsed))
    return rows


def tail_latency(passes):
    """The highest of p99 and p90 of all the run's request latencies with
    at least ten samples beyond it; None below 20 requests a pass."""
    latencies = [x for p in passes for x in p.latencies]
    if len(passes[0].latencies) < 20:
        return None
    pct = 99 if len(latencies) >= 1000 else 90
    return {"seconds": statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1],
            "percentile": pct, "samples": len(latencies)}


def passes_for(seconds: float, run):
    """Run passes until the next one would end past the time budget."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(run(len(done)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) > seconds:
            return done


def machine():
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "nproc": os.cpu_count(),
        "affinity": CPUS,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": rev,
    }


def end_to_end(name: str, seed: int, seconds: float):
    workdir = os.path.join(WORK, name)
    before = pin_fastest_cpu()
    built, first_setup = setup(name, seed, workdir)
    setup_s, setup_measured = setup_seconds(name, seed, first_setup, (before + probe_here()) / 2)
    client = Client()
    verdicts = Verdicts(built.requests)
    verdicts.add(run_pass(client, built.requests))  # warm-up, untimed

    def one(_):
        p = run_pass(client, built.requests)
        verdicts.add(p)
        return p

    passes = passes_for(seconds, one)
    probes = run_probes(client, built.probes)
    # A request's latency is its median over the passes, in its pass's
    # probe unit for the metrics and in seconds for the metadata.
    n = range(len(built.requests))
    typical = [statistics.median(p.latencies[i] / p.unit() for p in passes) for i in n]
    in_seconds = [statistics.median(p.latencies[i] for p in passes) for i in n]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_norm": (sum(typical), "probe"),
        "req_p50_norm": (statistics.median(typical), "probe"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "workload": name,
        "seed": seed,
        "requests_per_pass": len(built.requests),
        "setup_measured_s": setup_measured,
        "wall_s": sum(in_seconds),
        "req_p50_s": statistics.median(in_seconds),
        "probe_units_s": [p.unit() for p in passes],
        "pass_walls": [p.wall for p in passes],
        "req_tail_s": tail_latency(passes),
        "failed_ratio": verdicts.failed / verdicts.attempted,
        "wrong_ratio": verdicts.wrong / verdicts.attempted,
        "known_defects": [
            {"request": label, "today": outcome, "known": known, "seconds": elapsed}
            for label, outcome, known, _, elapsed in probes
        ],
    }
    correct = verdicts.failed == 0 and verdicts.wrong == 0 and all(row[3] for row in probes)
    return metrics, info, verdicts, correct


END_TO_END = ["setup_s", "wall_norm", "req_p50_norm", "peak_rss_mb"]
LAYER_MODULES = ["cli", "inputs", "complexes", "pipeline", "homology", "polymatrix", "laurent",
                 "spectral", "indexfn", "cup", "twisted", "linalg", "svgplot"]
CALL_METRICS = [
    "pipeline.analyze", "homology.homology", "polymatrix.smith_normal_form",
    "polymatrix.LaurentMatrix.mul", "laurent.LaurentPoly.mul", "laurent.LaurentPoly.divmod",
    "laurent.laurent_gcd", "spectral.find_roots", "indexfn.excision_index",
    "cup.cup_product_check", "linalg.exact_rank", "linalg.numeric_rank",
]
SELF_METRICS = [
    "cli.main", "inputs.parse_document", "complexes.lift_simplicial",
    "complexes.ChainComplexOverLambda", "pipeline.analyze", "homology.homology",
    "homology.alexander_polynomials", "polymatrix.smith_normal_form",
    "polymatrix.LaurentMatrix.mul", "laurent.LaurentPoly.mul", "laurent.LaurentPoly.divmod",
    "laurent.squarefree_decomposition", "spectral.find_roots", "spectral.exceptional_weights",
    "indexfn.index_function", "indexfn.duality_check", "indexfn.excision_index",
    "cup.cup_product_check", "twisted.twisted_dims", "twisted.uct_dims", "twisted.fredholm_check",
    "twisted.l2_kernel_truncated", "linalg.exact_rank", "linalg.exact_kernel",
    "linalg.numeric_rank", "svgplot.plot_data", "svgplot.render_svg",
]


SNF_METRICS = ["polymatrix.snf_entries", "polymatrix.snf_nnz_ratio", "polymatrix.snf_eliminate_s",
               "polymatrix.snf_certify_s", "bench.trace_overhead_ratio"]


def per_layer_names():
    return ([f"{n}.calls" for n in CALL_METRICS] + [f"{n}.self_s" for n in SELF_METRICS]
            + [f"{m}.self_share" for m in LAYER_MODULES] + [f"{m}.incl_share" for m in LAYER_MODULES]
            + SNF_METRICS)


def traced(name: str, seed: int, seconds: float):
    """Alternate untraced and traced passes; per-layer numbers are
    medians over the traced passes."""
    import spans

    workdir = os.path.join(WORK, name)
    built, _ = setup(name, seed, workdir)
    client = Client()
    verdicts = Verdicts(built.requests)
    tracer = spans.Tracer()
    plain, deltas = [], []

    def one(i):
        if i % 2 == 0:
            p = run_pass(client, built.requests)
            plain.append(sum(p.latencies))  # without probe time
        else:
            tracer.capture = i == 1
            entries, nonzero = tracer.snf_entries, tracer.snf_nonzero
            before = tracer.snapshot()
            tracer.install()
            try:
                p = run_pass(client, built.requests, tracer)
            finally:
                tracer.uninstall()
            after = tracer.snapshot()
            delta = {k: (v[0] - before.get(k, (0, 0.0))[0], v[1] - before.get(k, (0, 0.0))[1])
                     for k, v in after.items()}
            deltas.append((sum(p.latencies), delta, tracer.snf_entries - entries, tracer.snf_nonzero - nonzero))
        verdicts.add(p)
        return p

    passes = passes_for(seconds, one)
    if not deltas:
        passes.append(one(1))
    import endex.polymatrix

    eliminate, certify = spans.replay_snf(endex.polymatrix.smith_normal_form, list(tracer.snf_inputs))
    tracer.write(os.path.join(workdir, "spans.jsonl"))

    def med(fn):
        return statistics.median(fn(d) for d in deltas)

    metrics = {}
    for n in CALL_METRICS:
        metrics[f"{n}.calls"] = (med(lambda d: d[1].get(n, (0, 0.0))[0]), "count")
    for n in SELF_METRICS:
        metrics[f"{n}.self_s"] = (med(lambda d: d[1].get(n, (0, 0.0))[1]), "s")
    total = med(lambda d: sum(v[1] for k, v in d[1].items() if "." in k))
    for module in LAYER_MODULES:
        share = med(lambda d: sum(v[1] for k, v in d[1].items() if k.split(".")[0] == module and "." in k))
        metrics[f"{module}.self_share"] = (share / total if total else 0.0, "1")
    for module in LAYER_MODULES:
        share = med(lambda d: d[1].get(module, (0, 0.0))[1])
        metrics[f"{module}.incl_share"] = (share / total if total else 0.0, "1")
    entries = deltas[0][2]
    metrics["polymatrix.snf_entries"] = (entries, "count")
    metrics["polymatrix.snf_nnz_ratio"] = (deltas[0][3] / entries if entries else 0.0, "1")
    metrics["polymatrix.snf_eliminate_s"] = (eliminate, "s")
    metrics["polymatrix.snf_certify_s"] = (certify, "s")
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(d[0] for d in deltas) / statistics.median(plain), "1")
    info = {"workload": name, "seed": seed, "requests_per_pass": len(built.requests),
            "untraced_passes": len(plain), "traced_passes": len(deltas),
            "distinct_snf_inputs": len(tracer.snf_inputs),
            "spans": os.path.relpath(os.path.join(workdir, "spans.jsonl"), ROOT),
            "failed_ratio": verdicts.failed / verdicts.attempted,
            "wrong_ratio": verdicts.wrong / verdicts.attempted}
    correct = verdicts.failed == 0 and verdicts.wrong == 0
    return metrics, info, verdicts, correct


def result_line(metrics, verdicts, correct):
    return json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


REPORT_COLUMNS = [("wall_norm", "probe"), ("req_p50_norm", "probe"), ("wall_s", "s"), ("req_p50_s", "s"),
                  ("req_tail_s", "s"), ("failed_ratio", "1"), ("wrong_ratio", "1"), ("peak_rss_mb", "MB"),
                  ("setup_s", "s")]



def report(seed: int, seconds: float):
    """Every workload untraced, in a fresh process each; one row each."""
    print("# " + json.dumps(machine()))
    header = f"{'workload':20s}" + "".join(f"{f'{m} [{u}]':>22s}" for m, u in REPORT_COLUMNS)
    print(header + "   tail")
    all_correct = True
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            print(f"{name:20s} failed: {out.stderr.strip()[-500:]}")
            all_correct = False
            continue
        lines = out.stdout.strip().splitlines()
        result, info = json.loads(lines[-1]), json.loads(lines[-2][2:])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        tail = info["req_tail_s"]
        values.update(wall_s=info["wall_s"], req_p50_s=info["req_p50_s"], failed_ratio=info["failed_ratio"],
                      wrong_ratio=info["wrong_ratio"], req_tail_s=tail["seconds"] if tail else None)
        print(f"{name:20s}" + "".join(f"{values[m]:22.6g}" if values[m] is not None else f"{'-':>22s}"
                                      for m, _ in REPORT_COLUMNS)
              + (f"   p{tail['percentile']} of {tail['samples']}" if tail else "   (under 20 requests a pass)"))
        for d in info["known_defects"]:
            print(f"{'':20s}known defect: {d['request']}: {d['today']} (known: {d['known']}),"
                  f" {d['seconds']:.3g} s")
        all_correct = all_correct and result["correct"]
    print("outputs checked: " + ("all correct" if all_correct else "SOME WRONG OR FAILED"))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="every workload, one row each")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed, args.workdir)
        print(seconds)
        return 0
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    run = traced if args.trace else end_to_end
    metrics, info, verdicts, correct = run(args.workload, args.seed, args.seconds)
    info["machine"] = machine()
    print("# " + json.dumps(info))
    print(result_line(metrics, verdicts, correct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
