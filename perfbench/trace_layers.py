"""Per-layer tracing from outside the program.

Spans: the tracer replaces the program's layer entry points (module
functions in every dickson module that holds a reference to them, and two
methods) with wrappers that record (parent, name, start, end).  Each
question is a span too, so every span leads back to the question that
caused it.  Counts and self times of the scalar layers come from the
standard profiler, and collector pauses from gc.callbacks.  Nothing in the
program changes; everything is undone by stop().

A layer's "_ms" is the time covered by its spans that are not nested in
a span of the same name; cli.self_ms is the time of each question not
covered by any span it caused.
"""

import contextlib
import cProfile
import gc
import json
import os
import pstats
import sys
import time

# span name -> entry points, as (module, attribute) or (module, class, method)
ENTRY_POINTS = {
    "parsing.build": [("parsing", "algebra_from_document")],
    "analysis.division": [("analysis", "division_decide")],
    "analysis.census": [("analysis", "census")],
    "analysis.iso": [("analysis", "iso_test")],
    "analysis.autgroup": [("analysis", "enumerate_automorphisms"),
                          ("analysis", "group_structure"),
                          ("analysis", "subgroups")],
    "analysis.verify_aut": [("analysis", "verify_automorphism")],
    "doubling.scan": [("doubling", "zero_divisor_search")],
    "doubling.grid": [("doubling", "_field_grid")],
    "doubling.tables": [("doubling", "FieldCoefficients", "tables")],
    "doubling.critical": [("doubling", "critical_constants")],
    "doubling.mul": [("doubling", "DicksonAlgebra", "mul")],
    "doubling.nuclei": [("doubling", "compute_nuclei")],
    "doubling.structure_constants": [("doubling", "structure_constants")],
    "doubling.constants_mul": [("doubling", "mul_by_constants")],
    "doubling.witness": [("doubling", "theorem_zero_divisor_witness")],
    "linalg.rref": [("linalg", "rref")],
    "linalg.kernel": [("linalg", "kernel_basis")],
}

SPAN_MS = ("parsing.build", "analysis.division", "analysis.census",
           "analysis.iso", "analysis.autgroup", "doubling.scan",
           "doubling.tables", "doubling.critical", "doubling.mul",
           "doubling.nuclei", "doubling.structure_constants",
           "doubling.constants_mul", "linalg.rref", "linalg.kernel")
SPAN_CALLS = ("analysis.iso", "analysis.verify_aut", "doubling.grid",
              "doubling.tables", "doubling.mul", "linalg.rref",
              "linalg.kernel")


class Tracer:
    def __init__(self):
        self.spans = []          # [parent index or None, name, start, end]
        self.stack = [None]
        self.grid_bytes = 0
        self.gc_pauses = []
        self._gc_start = None
        self._undo = []
        self.profile = cProfile.Profile()

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([self.stack[-1], name, time.perf_counter(), None])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def question(self):
        idx = self._open("cli.question")
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "doubling.grid":
                tracer.grid_bytes += sum(a.nbytes for a in result)
            return result
        return traced

    def _patch(self):
        mods = {m: sys.modules["dickson." + m]
                for m in ("parsing", "analysis", "doubling", "linalg")}
        loaded = [m for n, m in sys.modules.items()
                  if n == "dickson" or n.startswith("dickson.")]
        for name, points in ENTRY_POINTS.items():
            for point in points:
                if len(point) == 3:
                    cls = getattr(mods[point[0]], point[1])
                    orig = cls.__dict__[point[2]]
                    setattr(cls, point[2], self._wrap(orig, name))
                    self._undo.append((cls, point[2], orig))
                    continue
                orig = getattr(mods[point[0]], point[1])
                wrapped = self._wrap(orig, name)
                for mod in loaded:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))

    # -- collector ----------------------------------------------------------

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)
            self._gc_start = None

    # -- lifetime -----------------------------------------------------------

    def start(self):
        self._patch()
        gc.callbacks.append(self._gc)
        self.profile.enable()

    def stop(self):
        self.profile.disable()
        gc.callbacks.remove(self._gc)
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- metrics ------------------------------------------------------------

    def _span_metrics(self):
        spans = self.spans
        covered = {}
        calls = {}
        child_time = [0.0] * len(spans)
        for parent, name, t0, t1 in spans:
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                child_time[parent] += t1 - t0
            up = parent
            while up is not None and spans[up][1] != name:
                up = spans[up][0]
            if up is None:
                covered[name] = covered.get(name, 0.0) + (t1 - t0)
        cli_self = sum(t1 - t0 - child_time[i]
                       for i, (_, name, t0, t1) in enumerate(spans)
                       if name == "cli.question")
        out = {"cli.self_ms": (cli_self * 1e3, "ms"),
               "doubling.grid_mb": (self.grid_bytes / 2 ** 20, "MB")}
        for name in SPAN_MS:
            out[name + "_ms"] = (covered.get(name, 0.0) * 1e3, "ms")
        for name in SPAN_CALLS:
            out[name + "_calls"] = (calls.get(name, 0), "count")
        return out

    def _profile_metrics(self):
        import dickson.fields as fields
        import dickson.linalg as linalg
        import dickson.padics as padics
        import dickson.quadratic as quadratic
        import dickson.quaternions as quaternions
        import fractions
        stats = pstats.Stats(self.profile).stats

        def key(fn):
            code = fn.__code__
            return (code.co_filename, code.co_firstlineno, code.co_name)

        def ncalls(*fns):
            return sum(stats[key(f)][1] for f in fns if key(f) in stats)

        def self_ms(module):
            path = module.__file__
            return 1e3 * sum(v[2] for k, v in stats.items() if k[0] == path)

        scalar_ops = [f for cls in (linalg.FpOps, linalg.QOps, padics.PadicOps)
                      for n, f in vars(cls).items()
                      if callable(f) and not n.startswith("__")]
        return {
            "linalg.scalar_calls": (ncalls(*scalar_ops), "count"),
            "fields.mul_calls": (ncalls(fields.FieldElement.__mul__), "count"),
            "fields.self_ms": (self_ms(fields), "ms"),
            "fractions.new_calls": (ncalls(fractions.Fraction.__new__),
                                    "count"),
            "fractions.self_ms": (self_ms(fractions), "ms"),
            "quaternions.mul_calls": (ncalls(quaternions.Quaternion.__mul__),
                                      "count"),
            "quaternions.sigma_calls": (ncalls(quaternions.InnerAut.__call__),
                                        "count"),
            "quaternions.self_ms": (self_ms(quaternions), "ms"),
            "quadratic.self_ms": (self_ms(quadratic), "ms"),
            "padics.mul_calls": (ncalls(padics.PadicNumber.__mul__), "count"),
            "padics.coerce_calls": (ncalls(padics.PadicNumber._coerce),
                                    "count"),
            "padics.ctx_eq_calls": (ncalls(padics.PadicContext.__eq__),
                                    "count"),
            "padics.self_ms": (self_ms(padics), "ms"),
        }

    def metrics(self):
        out = self._span_metrics()
        out.update(self._profile_metrics())
        out["gc.collections"] = (len(self.gc_pauses), "count")
        out["gc.pause_ms"] = (sum(self.gc_pauses) * 1e3, "ms")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
