"""Spans around calls into graphonsp's layers, recorded from outside.

:func:`instrument` wraps the public functions of each layer module (and the
public methods of ``core.Graph``) in the current process only.  A name that
another graphonsp module imported directly (``cutmetric.stretch``,
``sampling.stretched_cut_distance``, ...) is rebound there too, otherwise
its calls would record no span.  Spans and counts stay in memory until the
worker writes them out at the end of the run.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict
from importlib import import_module

LAYERS = ("core", "sampling", "cutmetric", "spectral", "filterfit", "cli")


class Recorder:
    """Spans ``(name, start, end, parent index, job id)`` and named counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []

    def wrap(self, name, fn, count=None):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
            self.counts[name + ".calls"] += 1
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, name, bound.arguments, result)
            return result

        return traced


def _count_sample_graph(counts, name, args, result):
    n = int(args["n"])
    counts[name + ".pairs_probed"] += n * (n - 1) // 2
    counts[name + ".edges_drawn"] += result.graph.edge_count


def _count_eigensolve(counts, name, args, result):
    obj = args["obj"]
    dim = obj.n if hasattr(obj, "n") else obj.shape[0]
    threshold = args.get("dense_threshold",
                         getattr(sys.modules["graphonsp.spectral"], "DENSE_THRESHOLD", None))
    if threshold is not None and dim > threshold:
        counts[name + ".iterative_calls"] += 1


COUNTERS = {
    "sampling.sample_graph": _count_sample_graph,
    "spectral.eigensolve": _count_eigensolve,
}


def instrument(recorder: Recorder) -> None:
    package = [m for n, m in list(sys.modules.items())
               if n == "graphonsp" or n.startswith("graphonsp.")]
    for layer in LAYERS:
        mod = import_module(f"graphonsp.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped = recorder.wrap(name, fn, COUNTERS.get(name))
            for other in package:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)
    graph = import_module("graphonsp.core").Graph
    for attr, fn in list(vars(graph).items()):
        if inspect.isfunction(fn) and not attr.startswith("_"):
            setattr(graph, attr, recorder.wrap(f"core.Graph.{attr}", fn))


def self_times(spans) -> dict:
    """Total self time per span name: duration minus that of child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name] += end - start - child
    return out
