"""Shared helpers: random graph construction with a seeded generator."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import mobgraph
from mobgraph.graph import Graph


def random_graph(
    rng: np.random.Generator,
    n: int,
    edge_prob: float,
    name: str = "g",
    max_weight: int = 1,
) -> Graph:
    """Erdos-Renyi graph over nodes n00..n{n-1}; all nodes present."""
    graph = Graph(name)
    ids = [f"n{i:02d}" for i in range(n)]
    for nid in ids:
        graph.add_node(nid)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                weight = 1 if max_weight <= 1 else int(rng.integers(1, max_weight + 1))
                graph.add_edge(ids[i], ids[j], float(weight))
    return graph


def permuted_copy(
    rng: np.random.Generator, graph: Graph, name: str = "perm"
) -> tuple[Graph, dict[str, str]]:
    """Relabeled copy of `graph` under a random node bijection."""
    nodes = graph.nodes()
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    out = Graph(name)
    for u in nodes:
        out.add_node(mapping[u])
    for u, v, w in graph.edges():
        out.add_edge(mapping[u], mapping[v], w)
    return out, mapping


def fresh_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this mobgraph."""
    src = str(Path(mobgraph.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
