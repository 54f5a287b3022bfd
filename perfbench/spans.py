"""Spans recorded from outside endex, for the traced run only.

`Tracer.install` wraps the public functions listed in TRACED in every
`endex.*` namespace that binds them (the CLI imports names directly), so
the program itself is not changed.  Each wrapper keeps, per function, the
call count and the self time: the span's duration minus the time covered
by the spans it encloses.  Per module it also keeps the inclusive time,
spent inside the module's outermost spans, callees from other modules
included.  Spans are also kept one by one (request, name,
start, end, parent) and written out when the run ends, except for the
arithmetic operators, which run millions of times a pass and are only
aggregated.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) for module functions, (module, "Class.method") for
# methods; the metric name drops dunder markers: LaurentPoly.__mul__ is
# "laurent.LaurentPoly.mul", a constructor is named after its class.
TRACED = [
    ("cli", "main"),
    ("inputs", "parse_document"),
    ("complexes", "lift_simplicial"),
    ("complexes", "ChainComplexOverLambda.__init__"),
    ("pipeline", "analyze"),
    ("homology", "homology"),
    ("homology", "alexander_polynomials"),
    ("polymatrix", "smith_normal_form"),
    ("polymatrix", "LaurentMatrix.__mul__"),
    ("laurent", "LaurentPoly.__mul__"),
    ("laurent", "LaurentPoly.__rmul__"),
    ("laurent", "LaurentPoly.__divmod__"),
    ("laurent", "squarefree_decomposition"),
    ("laurent", "laurent_gcd"),
    ("spectral", "find_roots"),
    ("spectral", "exceptional_weights"),
    ("indexfn", "index_function"),
    ("indexfn", "duality_check"),
    ("indexfn", "excision_index"),
    ("cup", "cup_product_check"),
    ("twisted", "twisted_dims"),
    ("twisted", "uct_dims"),
    ("twisted", "fredholm_check"),
    ("twisted", "l2_kernel_truncated"),
    ("linalg", "exact_rank"),
    ("linalg", "exact_kernel"),
    ("linalg", "numeric_rank"),
    ("svgplot", "plot_data"),
    ("svgplot", "render_svg"),
]
# Aggregated only: called too often to keep every span.
HOT = {
    "laurent.LaurentPoly.mul", "laurent.LaurentPoly.divmod", "laurent.laurent_gcd",
    "polymatrix.LaurentMatrix.mul", "linalg.exact_rank", "linalg.numeric_rank",
}


def metric_name(module: str, attr: str) -> str:
    parts = attr.split(".")
    if parts[-1] == "__init__":
        parts.pop()
    parts = [p.strip("_") for p in parts]
    if parts[-1] == "rmul":
        parts[-1] = "mul"
    return ".".join([module] + parts)


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [time covered by children, span index]
        self.spans = []  # (request, name, start, end, parent span index)
        self.totals = {}  # name -> [calls, self seconds]
        self.inclusive = {}  # module -> [open spans, seconds inside its outermost spans]
        self.request = None  # label of the request being run
        self.capture = False  # keep distinct smith_normal_form inputs
        self.snf_inputs = {}
        self.snf_entries = 0
        self.snf_nonzero = 0
        self._undo = []

    def _wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0.0])
        inside = self.inclusive.setdefault(name.split(".")[0], [0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        keep = name not in HOT
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            index = len(spans) if keep else parent
            if keep:
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            inside[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inside[0] -= 1
                if not inside[0]:
                    inside[1] += end - start
                totals[0] += 1
                totals[1] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if keep:
                    spans[index] = (tracer.request, name, start, end, parent)

        return traced

    def _count_snf(self, fn):
        """Outside the span, so that counting does not add to SNF time."""
        @functools.wraps(fn)
        def counted(m, *args, **kwargs):
            self.snf_entries += m.rows * m.cols
            self.snf_nonzero += sum(1 for e in m.entries if e.coeffs)
            if self.capture:
                self.snf_inputs.setdefault(m, None)
            return fn(m, *args, **kwargs)

        return counted

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "endex" or k.startswith("endex.")]
        for module, attr in TRACED:
            name = metric_name(module, attr)
            owner = sys.modules["endex." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if name == "polymatrix.smith_normal_form":
                wrapped = self._count_snf(wrapped)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def snapshot(self):
        """Per function (calls, self seconds); per module (0, inclusive seconds)."""
        out = {name: tuple(v) for name, v in self.totals.items()}
        out.update((module, (0, v[1])) for module, v in self.inclusive.items())
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for request, name, start, end, parent in self.spans:
                fh.write(json.dumps({"request": request, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def replay_snf(snf, matrices):
    """Time elimination alone (certify=False) and the full certified form
    on each matrix; the difference is the certification."""
    eliminate = certify = 0.0
    clock = time.perf_counter
    for m in matrices:
        t0 = clock()
        snf(m, certify=False)
        t1 = clock()
        snf(m)
        t2 = clock()
        eliminate += t1 - t0
        certify += (t2 - t1) - (t1 - t0)
    return eliminate, certify
