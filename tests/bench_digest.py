"""Print a digest of every benchmark request and probe, to compare two trees.

Run from the repository root with the endex to digest on the path:

    PYTHONPATH=src python tests/bench_digest.py > digest.txt

Each workload of perfbench/workloads.py is built at seeds 1 to 3, and
each of its requests and probes goes through endex.cli.main in this
process.  One line per run gives the workload, the seed, the label and the
md5 of the exit code, stdout, stderr and the bytes of any SVG it wrote.
Work-directory paths are replaced by a placeholder first, so the output of
two checkouts (say a change and its parent, each on PYTHONPATH in turn)
can be compared with diff.  The workloads are imported, not edited.

tests/golden/bench_digest.txt holds the digest of the committed tree; an
intended change of output regenerates it with

    PYTHONPATH=src python tests/bench_digest.py > tests/golden/bench_digest.txt
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

from endex.cli import main  # noqa: E402

SEEDS = (1, 2, 3)


def digest(argv, workdir: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # noqa: BLE001 - a crash is an outcome to digest
            code = "raised"
            err.write(f"{type(e).__name__}: {e}")
    svgs = []
    for path in (a.split("=", 1)[-1] for a in argv if a.endswith(".svg")):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                svgs.append(fh.read())
            os.remove(path)
    text = repr((code, out.getvalue(), err.getvalue())).replace(workdir, "{work}")
    h = hashlib.md5(text.encode("utf-8"))
    for svg in svgs:
        h.update(svg.replace(workdir.encode("utf-8"), b"{work}"))
    return h.hexdigest()


def run() -> int:
    count = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                built = workloads.build(name, seed, workdir)
                runs = list(built.requests) + [p.request for p in built.probes]
                for request in runs:
                    print(f"{name}\t{seed}\t{request.label}\t{digest(request.argv, workdir)}", flush=True)
                    count += 1
    print(f"{count} requests and probes", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
