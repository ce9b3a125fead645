"""Span tracer for the germforge benchmark.

The tracer rebinds germforge's public functions to wrappers that record a
span per call: name, start, end, parent span and job id.  A function
imported elsewhere with ``from .series import jet_mul`` is a separate
module attribute, so every germforge module whose attribute is the
original function gets the wrapper.  Methods are rebound on their class.

Spans stay in flat arrays in memory while the run lasts; ``summary`` turns
them into per-function calls and self time (span duration minus the time
covered by its child spans) and ``write`` saves them when the run ends.
Recording happens only while ``active`` is set, which the runner does for
the timed part of each job, so checks and input generation leave no spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from germforge import blowup, catalog, germ, hirzebruch, mr, numflow, onedim
from germforge import parser, report, scalars, series
from jobs import coeff_bits

# label -> (owner, attribute names).  The labels are the per-layer metric
# prefixes; a label may cover several functions (hirzebruch.flow is
# phi_flow and psi_flow, catalog.make is make_normal_form and make_pair).
TARGETS = {
    "series.jet_mul": (series, ("jet_mul",)),
    "series.jet_add": (series.Jet2, ("__add__",)),
    "series.jet_compose1": (series, ("jet_compose1",)),
    "series.jet_compose2": (series, ("jet_compose2",)),
    "series.jet_reciprocal": (series, ("jet_reciprocal",)),
    "series.series_ode_solve": (series, ("series_ode_solve",)),
    "series.exact_divide": (series, ("exact_divide",)),
    "germ.lie_bracket": (germ, ("lie_bracket",)),
    "germ.decompose": (germ, ("decompose",)),
    "germ.pullback": (germ, ("pullback",)),
    "germ.inverse": (germ.CoordinateChange, ("inverse",)),
    "germ.compose": (germ.CoordinateChange, ("compose",)),
    "catalog.classify": (catalog, ("classify_with_reasons",)),
    "catalog.make": (catalog, ("make_normal_form", "make_pair")),
    "onedim.siegel_regular_test": (onedim, ("siegel_regular_test",)),
    "onedim.onedim_check": (onedim, ("onedim_check",)),
    "mr.linearize": (mr, ("linearize",)),
    "mr.mr_leaf_period": (mr, ("mr_leaf_period",)),
    "mr.mr_formal_vf": (mr, ("mr_formal_vf",)),
    "numflow.leaf_period": (numflow, ("leaf_period",)),
    "numflow.track_leaf": (numflow, ("track_leaf",)),
    "numflow.integrate_flow_1d": (numflow, ("integrate_flow_1d",)),
    "numflow.homothety_period_ratio": (numflow, ("homothety_period_ratio",)),
    "blowup.blowup_vf": (blowup, ("blowup_vf",)),
    "blowup.divisor_singularities": (blowup, ("divisor_singularities",)),
    "hirzebruch.flow": (hirzebruch, ("phi_flow", "psi_flow")),
    "parser.parse": (parser, ("parse_vector_field",)),
    "report.to_json": (report, ("germ_to_json",)),
}
LABELS = tuple(TARGETS)
MODULES = tuple(dict.fromkeys(label.split(".")[0] for label in LABELS))

# solvers whose jet_compose2 passes are counted (Picard: one per degree)
SOLVERS = ("series.series_ode_solve", "germ.inverse")
GR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__")

JOB = "job"
_INF = float("inf")


class Tracer:
    """Installs the wrappers, records spans and counters, summarizes them."""

    def __init__(self):
        self.names = [JOB] + list(LABELS)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.job = -1
        self.active = False
        self.errors = {m: 0 for m in MODULES}
        self._counted_exc = set()
        self.gr_ops = 0
        self.coeff_bits_max = 0
        self.term_pairs = 0
        self.kept_pairs = 0
        self.nested_compose2 = {s: 0 for s in SOLVERS}
        self._solver_ids = {self._ids[s]: s for s in SOLVERS}
        self._undo = []

    # -- installation ---------------------------------------------------
    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "germforge" or name.startswith("germforge."))]
        for label, (owner, attrs) in TARGETS.items():
            for attr in attrs:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, label)
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapper)
                    continue
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
        for attr in GR_OPS:
            self._rebind(scalars.GaussianRational, attr,
                         self._count_gr(getattr(scalars.GaussianRational, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording --------------------------------------------------------
    def open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_job(self, job_id: int) -> int:
        self.job = job_id
        self._counted_exc.clear()
        self.active = True
        return self.open(0)

    def end_job(self, idx: int):
        self.close(idx)
        self.active = False
        del self.stack[1:]

    def _wrap(self, fn, label):
        tracer = self
        name_id = self._ids[label]
        module = label.split(".")[0]
        is_mul = label == "series.jet_mul"
        is_compose2 = label == "series.jet_compose2"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_compose2:
                tracer._note_compose2()
            idx = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in tracer._counted_exc:
                    tracer._counted_exc.add(id(exc))
                    tracer.errors[module] += 1
                raise
            finally:
                tracer.close(idx)
            if is_mul:
                tracer._note_mul(args[0], args[1], out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def _count_gr(self, fn):
        tracer = self

        def op(a, b=None):
            if tracer.active:
                tracer.gr_ops += 1
            return fn(a) if b is None else fn(a, b)

        return op

    def _note_compose2(self):
        for idx in self.stack[1:]:
            solver = self._solver_ids.get(self.span_name[idx])
            if solver is not None:
                self.nested_compose2[solver] += 1

    def _note_mul(self, a, b, out):
        pairs = len(a.coeffs) * len(b.coeffs)
        self.term_pairs += pairs
        valid = out.valid_through
        if valid == _INF:
            self.kept_pairs += pairs
        else:
            hist_a = _degree_hist(a)
            hist_b = _degree_hist(b)
            self.kept_pairs += sum(ca * cb for da, ca in hist_a.items()
                                   for db, cb in hist_b.items() if da + db <= valid)
        if out.mode == scalars.EXACT:
            self.coeff_bits_max = max(self.coeff_bits_max, coeff_bits(out.coeffs.values()))

    # -- results ------------------------------------------------------------
    def summary(self, jobs: int, speed: float = 1.0) -> dict:
        """Per-layer metrics, per attempted job where they count work.

        Self times are scaled by *speed*, the run's median factor to the
        reference speed (see Speed in run.py)."""
        n = len(self.span_start)
        child = [0.0] * n
        parent = self.span_parent
        start = self.span_start
        end = self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name = self.span_name
        for i in range(n):
            k = name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        per_job = max(jobs, 1)
        metrics = {}
        for label in LABELS:
            k = self._ids[label]
            metrics[f"{label}.calls"] = (calls[k] / per_job, "calls/job")
            metrics[f"{label}.self_s"] = (self_s[k] * speed / per_job, "s/job")
        for module in MODULES:
            metrics[f"{module}.errors"] = (self.errors[module], "count")
        metrics["scalars.gr_ops"] = (self.gr_ops / per_job, "ops/job")
        metrics["scalars.coeff_bits_max"] = (self.coeff_bits_max, "bits")
        metrics["series.jet_mul.term_pairs"] = (self.term_pairs / per_job, "pairs/job")
        metrics["series.jet_mul.kept_ratio"] = (
            self.kept_pairs / self.term_pairs if self.term_pairs else 0.0, "ratio")
        for solver in SOLVERS:
            k = self._ids[solver]
            metrics[f"{solver}.compose2_per_call"] = (
                self.nested_compose2[solver] / calls[k] if calls[k] else 0.0, "calls/call")
        job_time = sum(end[i] - start[i] for i in range(n) if name[i] == 0)
        layer_time = sum(self_s[1:])
        by_module = {}
        for label in LABELS:
            module = label.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + self_s[self._ids[label]]
        return {
            "metrics": metrics,
            "layer_share": layer_time / job_time if job_time else 0.0,
            "module_share": {m: t / job_time if job_time else 0.0
                             for m, t in by_module.items()},
            "spans": n,
        }

    def write(self, path):
        """Save the spans: a JSON header naming the span ids, then one line
        per span with name id, start, end, parent span and job id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_name[i]} {self.span_start[i]:.9f} "
                         f"{self.span_end[i]:.9f} {self.span_parent[i]} {self.span_job[i]}\n")


def _degree_hist(jet) -> dict:
    hist = {}
    for i, j in jet.coeffs:
        hist[i + j] = hist.get(i + j, 0) + 1
    return hist
