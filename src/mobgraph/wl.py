"""Weisfeiler-Leman relabeling and token-document extraction.

Each node starts labeled by its degree; every iteration replaces a node's
label with a hash of its own label and the sorted labels of its neighbors.
The tokens of iterations 0..h, nodes in sorted-id order within an iteration,
form the graph's document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import Graph

# FNV-1a, 64-bit: platform-stable and cheap. Pinned; golden tokens in tests.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str) -> str:
    """64-bit FNV-1a of the UTF-8 bytes, as 16 hex digits."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return f"{h:016x}"


@dataclass
class GraphDocument:
    graph_id: str
    tokens: list[str] = field(default_factory=list)


def initial_labels(graph: Graph) -> dict[str, str]:
    """Seed labeling: every node labeled by its decimal degree."""
    return {u: str(graph.degree(u)) for u in graph.nodes()}


def _weight_bucket(weight: float) -> int:
    return int(math.floor(math.log2(weight)))


def wl_iteration(
    graph: Graph, labels: dict[str, str], weight_buckets: bool = False
) -> dict[str, str]:
    """One refinement round: hash own label with sorted neighbor labels.

    weight_buckets appends a log2 bucket of the edge weight to each neighbor
    label before sorting, so weights can enter the refinement when wanted.
    """
    new_labels: dict[str, str] = {}
    for v in graph.nodes():
        if weight_buckets:
            parts = sorted(
                f"{labels[u]}~{_weight_bucket(graph.weight(v, u))}"
                for u in graph.neighbors(v)
            )
        else:
            parts = sorted(labels[u] for u in graph.neighbors(v))
        new_labels[v] = fnv1a64(labels[v] + "|" + ",".join(parts))
    return new_labels


def extract_document(
    graph: Graph, iterations: int = 2, weight_buckets: bool = False
) -> GraphDocument:
    """Token document over iterations 0..iterations; length = n * (h+1).

    Tokens carry an iteration prefix ("0_", "1_", ...) so labels from
    different rounds never collide in the vocabulary.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    nodes = graph.nodes()
    labels = initial_labels(graph)
    tokens = [f"0_{labels[v]}" for v in nodes]
    for t in range(1, iterations + 1):
        labels = wl_iteration(graph, labels, weight_buckets=weight_buckets)
        tokens.extend(f"{t}_{labels[v]}" for v in nodes)
    return GraphDocument(graph_id=graph.name, tokens=tokens)
