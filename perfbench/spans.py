"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: each traced public function is
replaced by a wrapper that notes its name, start, end, parent span and the
exception type it raised, if any.  Spans stay in memory until the run ends,
when :func:`layer_metrics` reduces them to per-layer counts and self times.

fkspline modules bind each other's functions with ``from .x import y``, so a
function lives under several names (``fkspline.smoother.eval_design`` is the
same object as ``fkspline.basis.eval_design``), and so do the benchmark's
own modules.  A wrapper is installed under every module-level name that
holds the original, and all of them are restored when tracing stops.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Traced functions: span name -> (module, attribute).  A dotted attribute
# names a method.  Span names are "<layer>.<function>", the layer being the
# fkspline module.
TRACED = {
    "basis.eval_design": ("fkspline.basis", "eval_design"),
    "penalty.penalty_matrix": ("fkspline.penalty", "penalty_matrix"),
    "penalty.gram_matrix": ("fkspline.penalty", "gram_matrix"),
    "smoother.assemble_system": ("fkspline.smoother", "assemble_system"),
    "smoother.fit_coefficients": ("fkspline.smoother", "fit_coefficients"),
    "smoother.predict": ("fkspline.smoother", "FitModel.predict"),
    "freeknot.add_knots_gradually": ("fkspline.freeknot", "add_knots_gradually"),
    "freeknot.objective_f": ("fkspline.freeknot", "objective_f"),
    "freeknot.gauss_newton_refine": ("fkspline.freeknot", "gauss_newton_refine"),
    "lambda_select.gcv_grid_search": ("fkspline.lambda_select", "gcv_grid_search"),
    "cluster.elbow_curve": ("fkspline.cluster", "elbow_curve"),
    "cluster.functional_kmeans": ("fkspline.cluster", "functional_kmeans"),
    "cluster.hierarchical_cluster": ("fkspline.cluster", "hierarchical_cluster"),
    "metrics.model_isse": ("fkspline.metrics", "model_isse"),
    "simulate.generate_scenario": ("fkspline.simulate", "generate_scenario"),
    "cli.main": ("fkspline.cli", "main"),
}

# Small facts taken from a span's return value (the result itself is not
# kept, so that thousands of fits do not stay alive until the end).
_SUMMARIZE = {
    "lambda_select.gcv_grid_search": lambda r: (int(r.scores.size), len(r.failures)),
}


class Recorder:
    """In-memory span list.  Each span is [name, start, end, parent, error, summary]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        summarize = _SUMMARIZE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent, None, None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if summarize is not None:
                span[5] = summarize(result)
            return result

        return traced


@contextmanager
def tracing(recorder: Recorder):
    """Install a wrapper for every traced function; restore all on exit."""
    installed = []  # (namespace, attribute, original), restored in reverse
    try:
        for name, (module_name, attr) in TRACED.items():
            owner = sys.modules[module_name]
            if "." in attr:  # a method: one class attribute
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                installed.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = recorder.wrap(name, original)
            for module in [m for m in list(sys.modules.values()) if m is not None]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        installed.append((module, key, original))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for namespace, attr, original in reversed(installed):
            setattr(namespace, attr, original)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer counts, self times and ratios from one traced operation.

    Self time is a span's duration minus the time its child spans cover;
    the run is single-threaded, so children never overlap and their
    durations add up.  Shares are percentages of ``wall_s``, the traced
    operation's wall time.
    """
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    calls, self_total = {}, {}
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_total[s[0]] = self_total.get(s[0], 0.0) + self_s[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    def count(name, *, parent=None, under=None):
        total = 0
        for i, s in enumerate(spans):
            if s[0] != name:
                continue
            if parent is not None and (s[3] < 0 or spans[s[3]][0] != parent):
                continue
            if under is not None and under not in ancestors(i):
                continue
            total += 1
        return total

    searches = calls.get("freeknot.add_knots_gradually", 0)
    refines = calls.get("freeknot.gauss_newton_refine", 0)
    scan_evals = count("freeknot.objective_f", parent="freeknot.add_knots_gradually")
    stages = count("freeknot.gauss_newton_refine", parent="freeknot.add_knots_gradually")
    refused = sum(1 for s in spans
                  if s[0] == "smoother.assemble_system" and s[4] == "NotPositiveDefiniteError")
    grid = [s[5] for s in spans if s[0] == "lambda_select.gcv_grid_search" and s[5]]

    out = {}
    for layer in (
        "basis.eval_design", "penalty.penalty_matrix", "penalty.gram_matrix",
        "smoother.assemble_system", "smoother.fit_coefficients", "smoother.predict",
        "freeknot.objective_f", "freeknot.gauss_newton_refine", "cluster.functional_kmeans",
    ):
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for layer in (
        "basis.eval_design", "penalty.penalty_matrix", "smoother.assemble_system",
        "smoother.fit_coefficients", "freeknot.add_knots_gradually",
        "freeknot.gauss_newton_refine", "cluster.elbow_curve", "cluster.functional_kmeans",
        "cluster.hierarchical_cluster", "metrics.model_isse", "simulate.generate_scenario",
        "cli.main",
    ):
        seconds = self_total.get(layer, 0.0)
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.self_share"] = (100.0 * _ratio(seconds, wall_s), "%")
    out["smoother.assemble_system.refused_ratio"] = (
        _ratio(refused, calls.get("smoother.assemble_system", 0)), "ratio")
    out["freeknot.refits_per_fit"] = (
        _ratio(count("smoother.fit_coefficients", under="freeknot.add_knots_gradually"),
               searches), "count")
    out["freeknot.scan.useful_ratio"] = (_ratio(stages, scan_evals), "ratio")
    out["freeknot.gn.refits_per_call"] = (
        _ratio(count("smoother.fit_coefficients", under="freeknot.gauss_newton_refine"),
               refines), "count")
    out["lambda_select.cells"] = (sum(g[0] for g in grid), "count")
    out["lambda_select.failed_cells"] = (sum(g[1] for g in grid), "count")
    out["trace.spans"] = (len(spans), "count")
    return out
