"""Outside-in tracing of the imvc layers for the benchmark's traced run.

The program is not edited. Instead, `installed(tracer)` swaps each public
call of the dataset, graph, solver and metrics modules for a wrapper that
records a span, at the place its caller looks the name up (for example
`imvc.harness.fit`, which `_run_trial` calls, or `imvc.graph.auto_sigma`,
which `gaussian_knn_graph` calls). The originals are put back on exit.
A name that no longer exists is skipped, so its span is simply absent.

Spans are kept in memory on a per-thread stack, so trials running on the
harness's thread pool attribute their children to the right trial, and are
written out once at the end. Counts (calls, bytes, nonzeros) are recorded
beside the spans, outside the timed interval of the span they describe.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    trial: Optional[int]
    thread: int
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        rec = Span(
            id=sid,
            name=name,
            parent=parent.id if parent else None,
            trial=sid if name == "harness.trial" else (parent.trial if parent else None),
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(rec)
        return rec

    def end(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(rec)  # list.append is atomic; no lock needed

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def write(self, path) -> None:
        """One JSON object per span, then one line of counts and samples."""
        lines = [json.dumps(dataclasses.asdict(s)) for s in self.spans]
        lines.append(json.dumps({"counts": self.counts, "samples": self.samples}))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def nbytes(obj) -> int:
    """Bytes held by the arrays (dense or scipy.sparse) inside obj."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "tocsr") and hasattr(obj, "data"):  # scipy.sparse
        return sum(getattr(obj, a).nbytes for a in ("data", "indices", "indptr") if hasattr(obj, a))
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(o) for o in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _nnz_frac(w) -> float:
    n_rows, n_cols = w.shape
    nnz = w.nnz if hasattr(w, "nnz") else np.count_nonzero(w)
    return nnz / (n_rows * n_cols)


def _after_indicators(tracer: Tracer, out) -> None:
    tracer.sample("dataset.indicator_bytes", nbytes(out))


def _after_graphs(tracer: Tracer, out) -> None:
    ws = [g.w for g in out if getattr(g, "w", None) is not None]
    tracer.sample("graph.w_bytes", sum(nbytes(w) for w in ws))
    for w in ws:
        tracer.sample("graph.w_nnz_frac", _nnz_frac(w))


def _after_fit(tracer: Tracer, out) -> None:
    tracer.count("solver.iterations", getattr(out, "n_iterations", 0))


# (module, attribute, span name, count name, hook run on the result)
_PATCHES: tuple[tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("imvc.harness", "_run_trial", "harness.trial", None, None),
    ("imvc.harness", "load_dataset", "dataset.load", None, None),
    ("imvc.harness", "apply_mask", "dataset.mask", "dataset.mask_calls", None),
    ("imvc.harness", "build_indicators", "dataset.indicators", None, _after_indicators),
    ("imvc.harness", "build_fused_graphs", "graph.build", None, _after_graphs),
    ("imvc.harness", "fit", "solver.fit", None, _after_fit),
    ("imvc.harness", "evaluate_clustering", "metrics.evaluate", None, None),
    ("imvc.graph", "gaussian_knn_graph", "graph.knn", "graph.builds", None),
    ("imvc.graph", "auto_sigma", "graph.sigma", None, None),
    ("imvc.graph", "fuse_graph", "graph.fuse", None, None),
    ("imvc.solver", "update_consensus", "solver.consensus", None, None),
    ("imvc.solver", "update_basis", "solver.basis", None, None),
    ("imvc.solver", "update_codes", "solver.codes", None, None),
    ("imvc.solver", "view_costs", "solver.costs", None, None),
    ("imvc.solver", "_graph_cost", "solver.graph_cost", None, None),
    ("imvc.solver", "update_weights", "solver.weights", None, None),
    ("imvc.metrics", "_best_kmeans", "metrics.kmeans", None, None),
    ("imvc.metrics", "accuracy", "metrics.score", None, None),
    ("imvc.metrics", "nmi", "metrics.score", None, None),
    ("imvc.metrics", "purity", "metrics.score", None, None),
)


def _traced(tracer: Tracer, fn, name, count_name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if count_name:
            tracer.count(count_name)
        if hook:
            hook(tracer, out)
        return out

    return wrapper


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, count_name, hook in _PATCHES:
            module = _import(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            setattr(module, attr, _traced(tracer, original, name, count_name, hook))
            saved.append((module, attr, original))
        dataset = _import("imvc.dataset")
        cls = getattr(dataset, "IndicatorMatrix", None)
        prop = vars(cls).get("sample_ids") if cls is not None else None
        if isinstance(prop, property):
            getter = _traced(tracer, prop.fget, "dataset.sample_ids", "dataset.sample_ids_calls", None)
            setattr(cls, "sample_ids", property(getter, doc=prop.__doc__))
            saved.append((cls, "sample_ids", prop))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Every per-layer metric with its unit and direction, in report order. Times
# and counts are totals over the traced unit; the bytes are the largest of
# one trial's indicators or fused graphs.
PER_LAYER = {
    "dataset.load_s": ("s", "lower"),
    "dataset.mask_s": ("s", "lower"),
    "dataset.mask_calls": ("count", "lower"),
    "dataset.indicators_s": ("s", "lower"),
    "dataset.indicator_bytes": ("bytes", "lower"),
    "dataset.sample_ids_s": ("s", "lower"),
    "dataset.sample_ids_calls": ("count", "lower"),
    "graph.sigma_s": ("s", "lower"),
    "graph.knn_s": ("s", "lower"),
    "graph.fuse_s": ("s", "lower"),
    "graph.builds": ("count", "lower"),
    "graph.w_bytes": ("bytes", "lower"),
    "graph.w_nnz_frac": ("fraction", "lower"),
    "solver.fit_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.iter_ms_p50": ("ms", "lower"),
    "solver.consensus_s": ("s", "lower"),
    "solver.basis_s": ("s", "lower"),
    "solver.codes_s": ("s", "lower"),
    "solver.costs_s": ("s", "lower"),
    "solver.graph_cost_s": ("s", "lower"),
    "solver.weights_s": ("s", "lower"),
    "solver.loop_s": ("s", "lower"),
    "metrics.kmeans_s": ("s", "lower"),
    "metrics.score_s": ("s", "lower"),
    "harness.trial_self_s": ("s", "lower"),
    "harness.write_s": ("s", "lower"),
    "harness.busy_ratio": ("fraction", "higher"),
    "tracing.overhead_s": ("s", "lower"),
}

# time metric -> (how, span names): "self" sums self time (duration minus
# direct children), "total" sums whole durations
_TIMES = {
    "dataset.load_s": ("total", ("dataset.load",)),
    "dataset.mask_s": ("self", ("dataset.mask",)),
    "dataset.indicators_s": ("self", ("dataset.indicators",)),
    "dataset.sample_ids_s": ("self", ("dataset.sample_ids",)),
    "graph.sigma_s": ("self", ("graph.sigma",)),
    "graph.knn_s": ("self", ("graph.knn",)),
    "graph.fuse_s": ("self", ("graph.fuse",)),
    "solver.fit_s": ("total", ("solver.fit",)),
    "solver.consensus_s": ("self", ("solver.consensus",)),
    "solver.basis_s": ("self", ("solver.basis",)),
    "solver.codes_s": ("self", ("solver.codes",)),
    # view_costs together with the _graph_cost calls it makes
    "solver.costs_s": ("self", ("solver.costs", "solver.graph_cost")),
    "solver.graph_cost_s": ("total", ("solver.graph_cost",)),
    "solver.weights_s": ("self", ("solver.weights",)),
    "solver.loop_s": ("self", ("solver.fit",)),
    "metrics.kmeans_s": ("self", ("metrics.kmeans",)),
    "metrics.score_s": ("total", ("metrics.score",)),
    "harness.trial_self_s": ("self", ("harness.trial",)),
    "harness.write_s": ("total", ("harness.write",)),
}


def _iteration_ms(spans: list[Span], by_parent: dict) -> list[float]:
    """Per-iteration wall time of every fit: from one consensus update to the
    next, the last one running to the end of the fit."""
    out = []
    for fit in (s for s in spans if s.name == "solver.fit"):
        starts = sorted(c.start for c in by_parent[fit.id] if c.name == "solver.consensus")
        ends = starts[1:] + [fit.end]
        out.extend(1e3 * (b - a) for a, b in zip(starts, ends))
    return out


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Reduce the spans and counts of a traced unit to the PER_LAYER metrics.

    A layer whose spans are absent (its wrapped name no longer exists) reads
    0. tracing.overhead_s needs an untraced run and is left to the caller.
    """
    spans = tracer.spans
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s.parent].append(s)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for s in spans:
        duration = s.end - s.start
        total[s.name] += duration
        self_time[s.name] += duration - sum(c.end - c.start for c in by_parent[s.id])

    metrics = {name: 0.0 for name in PER_LAYER if name != "tracing.overhead_s"}
    for metric, (how, names) in _TIMES.items():
        source = self_time if how == "self" else total
        metrics[metric] = sum(source.get(n, 0.0) for n in names)
    for name in ("dataset.mask_calls", "dataset.sample_ids_calls", "graph.builds", "solver.iterations"):
        metrics[name] = tracer.counts.get(name, 0.0)
    for name in ("dataset.indicator_bytes", "graph.w_bytes"):
        metrics[name] = max(tracer.samples.get(name, [0.0]))
    if tracer.samples.get("graph.w_nnz_frac"):
        metrics["graph.w_nnz_frac"] = statistics.fmean(tracer.samples["graph.w_nnz_frac"])
    iteration_ms = _iteration_ms(spans, by_parent)
    if iteration_ms:
        metrics["solver.iter_ms_p50"] = statistics.median(iteration_ms)
    sweep = total.get("harness.sweep")
    if sweep:
        metrics["harness.busy_ratio"] = total.get("harness.trial", 0.0) / (workers * sweep)
    return metrics
