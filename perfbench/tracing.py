"""Spans around calls into mobgraph's layers, recorded from outside the program.

`Tracer.install()` replaces selected module attributes with timing wrappers,
so calls made through the module (``ingest_mod.parse_comments(...)`` in the
pipeline, a module-global call inside the module itself) open a span. Spans
stay in memory and are written once, by `Tracer.write`, when the traced
process ends. Nothing here changes what the wrapped functions return.

A span is ``[id, parent, name, layer, start, end, cpu, counters]``: wall
times on the system-wide monotonic clock (comparable across processes),
``cpu`` the thread CPU seconds spent inside the call, and the work counts
that COUNTERS derives from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time

# (module, function) -> layer. Only functions called across a module
# boundary are wrapped, so per-token helpers add no per-call overhead.
TRACED = {
    ("mobgraph.ingest", "parse_comments"): "ingest",
    ("mobgraph.ingest", "build_co_commenter_graph"): "ingest",
    ("mobgraph.ingest", "channels_in"): "ingest",
    ("mobgraph.gexf", "write_gexf"): "gexf",
    ("mobgraph.gexf", "read_gexf"): "gexf",
    ("mobgraph.wl", "extract_document"): "wl",
    ("mobgraph.embed", "build_vocabulary"): "embed",
    ("mobgraph.embed", "train_embeddings"): "embed",
    ("mobgraph.embed", "write_embeddings_csv"): "embed",
    ("mobgraph.embed", "read_embeddings_csv"): "embed",
    ("mobgraph.reduce", "reduce_embeddings"): "reduce",
    ("mobgraph.reduce", "knn_exact"): "reduce",
    ("mobgraph.reduce", "smooth_knn"): "reduce",
    ("mobgraph.reduce", "fuzzy_union"): "reduce",
    ("mobgraph.reduce", "fit_curve_params"): "reduce",
    ("mobgraph.reduce", "optimize_layout"): "reduce",
    ("mobgraph.reduce", "write_reduced_csv"): "reduce",
    ("mobgraph.reduce", "read_reduced_csv"): "reduce",
    ("mobgraph.cluster", "select_k_by_silhouette"): "cluster",
    ("mobgraph.cluster", "kmeans"): "cluster",
    ("mobgraph.cluster", "single_linkage"): "cluster",
    ("mobgraph.cluster", "silhouette_score"): "cluster",
    ("mobgraph.cluster", "cut_tree"): "cluster",
    ("mobgraph.cluster", "cophenetic_correlation"): "cluster",
    ("mobgraph.cluster", "davies_bouldin"): "cluster",
    ("mobgraph.pipeline", "compute_clustering"): "cluster",
    ("mobgraph.cliques", "clique_census"): "cliques",
    ("mobgraph.cliques", "rank_channels"): "cliques",
    ("mobgraph.cliques", "write_census_csv"): "cliques",
    ("mobgraph.pipeline", "run_pipeline"): "pipeline",
    ("mobgraph.pipeline", "_map_channels"): "pipeline",
    ("mobgraph.cli", "cmd_ingest"): "cli",
    ("mobgraph.cli", "cmd_graphs"): "cli",
    ("mobgraph.cli", "cmd_embed"): "cli",
    ("mobgraph.cli", "cmd_reduce"): "cli",
    ("mobgraph.cli", "cmd_cluster"): "cli",
    ("mobgraph.cli", "cmd_cliques"): "cli",
}

# Modules that import a traced function by name; their binding is replaced too.
REBOUND = {"mobgraph.cli": ("compute_clustering", "run_pipeline")}


def _count_train(args) -> dict:
    vocab = args["vocab"]
    tokens = sum(len(doc.tokens) for doc in args["documents"])
    kept = sum(1 for doc in args["documents"] for t in doc.tokens if t in vocab.index)
    return {"tokens": tokens, "kept": kept, "updates": kept * args["epochs"]}


def _file_size(sink) -> int:
    return os.path.getsize(sink) if isinstance(sink, (str, os.PathLike)) else 0


# function name -> counters from (bound arguments, result). Counted after the
# span closes, so counting costs no traced time.
COUNTERS = {
    "parse_comments": lambda a, r: {"records": len(r)},
    "build_co_commenter_graph": lambda a, r: {"edges": r.n_edges},
    "write_gexf": lambda a, r: {"bytes": _file_size(a["sink"])},
    "extract_document": lambda a, r: {"tokens": len(r.tokens)},
    "train_embeddings": lambda a, r: _count_train(a),
    "optimize_layout": lambda a, r: {
        "edges": int((a["fuzzy"].strengths > 0).sum())
    },
    "clique_census": lambda a, r: {
        "enumerated": sum(r.histogram.values()), "counted": r.count
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list[int] = []  # open spans of the installing thread
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a top-level span timed by the caller, such as an import."""
        self.spans.append([next(self._ids), None, name, layer, start, end, 0.0, {}])

    def wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(fn.__name__)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's first span hangs under the caller's open span.
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
            counters = {}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters = counter(bound.arguments, result)
            self.spans.append([span_id, parent, name, layer, start, end, cpu, counters])
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for (module_name, attr), layer in TRACED.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[1]
            wrapper = self.wrap(getattr(module, attr), f"{short}.{attr}", layer)
            setattr(module, attr, wrapper)
            wrapped[attr] = wrapper
        for module_name, attrs in REBOUND.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                setattr(module, attr, wrapped[attr])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _subtract(interval, holes):
    """Parts of `interval` not covered by the (merged, sorted) `holes`."""
    start, end = interval
    pieces = []
    for a, b in holes:
        if b <= start or a >= end:
            continue
        if a > start:
            pieces.append((start, a))
        start = max(start, b)
    if start < end:
        pieces.append((start, end))
    return pieces


def self_intervals(spans: list[list]) -> dict[int, list[tuple[float, float]]]:
    """Each span's interval minus what its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent, _n, _l, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span[0]: _subtract((span[4], span[5]), _union(children.get(span[0], [])))
        for span in spans
    }


def covered(pieces: list[tuple[float, float]]) -> float:
    """Seconds covered by possibly overlapping intervals (threads overlap)."""
    return float(sum(b - a for a, b in _union(pieces)))


def self_time(spans: list[list], own, keep) -> float:
    """Wall seconds during which some span accepted by `keep` ran its own
    code, outside its child spans; `own` is self_intervals(spans)."""
    return covered([p for span in spans if keep(span) for p in own[span[0]]])


def layer_self_times(spans: list[list]) -> dict[str, float]:
    own = self_intervals(spans)
    layers = sorted({span[3] for span in spans})
    return {layer: self_time(spans, own, lambda s, l=layer: s[3] == l) for layer in layers}
