"""In-memory span tracing of helmlab's layers, installed from the outside.

`Tracer.installed()` replaces the public functions and methods listed in
`TRACE_POINTS` with wrappers that record one span per call (name, start,
end, parent span, item id) and a few counts taken at the same boundary, and
puts the originals back on exit.  Nothing inside the package changes: a
call is traced when it goes through the patched module or class attribute.
Names bound with `from .x import y` inside the package keep the original,
which is why HelmholtzProblem construction includes
`coeffs.on_common_partition` and `stability.build_q` includes its own
partition work.  Coefficient construction (`PiecewiseCoefficient` and its
segment validation) has its own span wherever it happens.

A layer's self time is its span's duration minus the time its child spans
cover.  The benchmark opens one root span per item, so the self times of
all spans add up to the time spent inside items; `trace.coverage` is the
share of that time which the named layers account for.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from helmlab import coeffs, experiments, fem, oracle, problem, stability


def _xp_name(args, kwargs) -> str:
    xp = kwargs.get("extended_precision", args[1] if len(args) > 1 else False)
    return "oracle.solve_analytic_xp" if xp else "oracle.solve_analytic"


def _count_nodes(counts, result, args, kwargs):
    counts["fem.nodes"] += result.n_nodes


def _count_points(counts, result, args, kwargs):
    counts["oracle.eval.points"] += int(np.size(args[1]))


def _count_solve(counts, result, args, kwargs):
    counts["oracle.solve_analytic.calls"] += 1
    counts["oracle.flagged"] += int(result.flagged)


def _count_solve_vector(counts, result, args, kwargs):
    counts["fem.solve_vector.calls"] += 1


def _count_verify(counts, result, args, kwargs):
    counts["stability.verify_failed"] += int(not result.passed)


# (owner, attribute, span name or callable naming the span, count hook).
# A span name of None records no span, only the hook's counts.
TRACE_POINTS = (
    (experiments, "run_cells", "experiments.run_cells", None),
    (experiments, "family", "experiments.family", None),
    (experiments, "refine_to_convergence", "experiments.refine_to_convergence", None),
    (experiments, "quasiopt_probe", "experiments.quasiopt_probe", None),
    (experiments, "bound_comparison", "experiments.bound_comparison", None),
    (fem, "build_mesh", "fem.build_mesh", _count_nodes),
    (fem, "solve_problem", "fem.solve_problem", None),
    (fem, "assemble", "fem.assemble", None),
    (fem, "solve", "fem.solve", None),
    (fem, "norms", "fem.norms", None),
    (fem, "condition_estimate", "fem.condition_estimate", None),
    (fem.BandedComplexSystem, "factorize", "fem.factorize", None),
    (fem.BandedComplexSystem, "solve_vector", None, _count_solve_vector),
    (oracle, "solve_analytic", _xp_name, _count_solve),
    (oracle, "exact_norms", "oracle.exact_norms", None),
    (oracle.WaveAmplitudes, "eval", "oracle.eval", _count_points),
    (oracle.WaveAmplitudes, "deriv", "oracle.deriv", _count_points),
    (problem.HelmholtzProblem, "__post_init__", "problem.construct", None),
    (problem.HelmholtzProblem, "boundary_norm", "problem.boundary_norm", None),
    (coeffs, "piecewise_constant", "coeffs.construct", None),
    (coeffs.PiecewiseCoefficient, "__post_init__", "coeffs.construct", None),
    (coeffs.PiecewiseCoefficient, "tilde", "coeffs.tilde", None),
    (stability, "build_q", "stability.build_q", None),
    (stability, "verify_q_properties", "stability.verify_q_properties", _count_verify),
    (stability, "stability_report", "stability.stability_report", None),
    (stability, "q_bound", "stability.q_bound", None),
    (stability, "q_sup", "stability.q_sup", None),
    (stability, "q_product_bound", "stability.q_product_bound", None),
    (stability, "jump_factors", "stability.jump_factors", None),
    (stability, "stability_constants", "stability.stability_constants", None),
)

ITEM_SPAN = "bench.item"

# per-layer metric -> span whose self time it reports (seconds per pass)
SELF_TIME_METRICS = {
    "fem.build_mesh.s": "fem.build_mesh",
    "fem.assemble.s": "fem.assemble",
    "fem.factorize.s": "fem.factorize",
    "fem.solve.s": "fem.solve",
    "fem.norms.s": "fem.norms",
    "fem.condition_estimate.s": "fem.condition_estimate",
    "oracle.eval.s": "oracle.eval",
    "oracle.deriv.s": "oracle.deriv",
    "experiments.quasiopt_probe.self_s": "experiments.quasiopt_probe",
    "experiments.refine_to_convergence.self_s": "experiments.refine_to_convergence",
    "oracle.solve_analytic.s": "oracle.solve_analytic",
    "oracle.solve_analytic_xp.s": "oracle.solve_analytic_xp",
    "oracle.exact_norms.s": "oracle.exact_norms",
    "problem.construct.s": "problem.construct",
    "coeffs.construct.s": "coeffs.construct",
    "coeffs.tilde.s": "coeffs.tilde",
    "stability.build_q.s": "stability.build_q",
    "stability.verify_q_properties.s": "stability.verify_q_properties",
    "stability.stability_report.s": "stability.stability_report",
    "stability.q_bound.s": "stability.q_bound",
    "stability.q_product_bound.s": "stability.q_product_bound",
    "stability.jump_factors.s": "stability.jump_factors",
    "experiments.family.self_s": "experiments.family",
    "bench.item.s": ITEM_SPAN,
}

# per-layer metric -> count recorded at a trace point (count per pass)
COUNT_METRICS = ("fem.solve_vector.calls", "fem.nodes", "oracle.eval.points",
                 "oracle.solve_analytic.calls", "oracle.flagged",
                 "stability.verify_failed")


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, item id]
        self.counts = defaultdict(Counter)  # item id -> count name -> count
        self._stack = []
        self._item = None

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                label = name(args, kwargs) if callable(name) else name
                index = len(spans)
                span = [label, clock(), 0.0, stack[-1] if stack else -1, self._item]
                spans.append(span)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if hook is not None:
                hook(counts[self._item], result, args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in TRACE_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def item(self, item_id: str):
        """Root span of one benchmark item; nested spans carry its id."""
        self._item = item_id
        index = len(self.spans)
        span = [ITEM_SPAN, time.perf_counter(), 0.0, -1, item_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._item = None

    def _item_self_times(self) -> dict:
        """Self seconds per (item id, span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _parent, item) in enumerate(self.spans):
            totals[item, name] += (end - start) - child[i]
        return totals

    def self_times(self) -> dict:
        """Total self seconds per span name."""
        totals = defaultdict(float)
        for (_item, name), seconds in self._item_self_times().items():
            totals[name] += seconds
        return dict(totals)

    def layer_metrics(self) -> dict:
        """Named per-layer values per pass, `other.s` for the self time of
        every traced span without a metric of its own, and `trace.coverage`.

        A value per pass is the sum over items of the item's total divided
        by its number of traced runs, since items need not all run equally
        often.  Coverage is the named layers' share of the traced pass time,
        without `bench.item.s` and `other.s`.
        """
        runs = Counter(item for name, _, _, _, item in self.spans
                       if name == ITEM_SPAN)
        per_pass = defaultdict(float)
        for (item, name), seconds in self._item_self_times().items():
            per_pass[name] += seconds / runs[item]
        out = {metric: per_pass.get(span, 0.0)
               for metric, span in SELF_TIME_METRICS.items()}
        named = set(SELF_TIME_METRICS.values())
        out["other.s"] = sum(v for k, v in per_pass.items() if k not in named)
        for metric in COUNT_METRICS:
            out[metric] = sum(self.counts[item][metric] / n
                              for item, n in runs.items())
        layers = sum(out[metric] for metric, span in SELF_TIME_METRICS.items()
                     if span != ITEM_SPAN)
        out["trace.coverage"] = layers / sum(per_pass.values())
        return out

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: `header`, then one line per span with times
        relative to the first span and `parent` as a line index (-1 for a
        root)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "item": item}) + "\n")
