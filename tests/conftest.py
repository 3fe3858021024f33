"""Shared helpers: graphs from edge lists, a node's row of a graph by id, and
random graph construction with a seeded generator."""

from __future__ import annotations

import os
from bisect import bisect_left
from pathlib import Path

import numpy as np

import mobgraph
from mobgraph.graph import Graph


def make_graph(edges=(), name: str = "", nodes=()) -> Graph:
    """The graph with these (u, v) or (u, v, weight) edges, weight 1 when
    left out, over their endpoints and any further nodes."""
    edges = [(u, v, rest[0] if rest else 1.0) for u, v, *rest in edges]
    ids = sorted({*nodes, *(u for u, _, _ in edges), *(v for _, v, _ in edges)})
    position = {u: i for i, u in enumerate(ids)}
    rows = sorted((*sorted((position[u], position[v])), w) for u, v, w in edges)
    return Graph(name, ids, *zip(*rows))


def neighbours(graph: Graph, u: str) -> dict[str, float]:
    """u's neighbours, in sorted order, mapped to the edge weights, read from
    the graph's ids, indptr, indices and weights; KeyError when u is not a
    node. Its keys are u's neighbour list, its length u's degree, and
    `v in neighbours(graph, u)` whether the edge u-v is there."""
    i = bisect_left(graph.ids, u)
    if graph.ids[i:i + 1] != (u,):
        raise KeyError(u)
    row = slice(graph.indptr[i], graph.indptr[i + 1])
    return dict(zip([graph.ids[j] for j in graph.indices[row].tolist()],
                    graph.weights[row].tolist()))


def random_graph(
    rng: np.random.Generator,
    n: int,
    edge_prob: float,
    name: str = "g",
    max_weight: int = 1,
) -> Graph:
    """Erdos-Renyi graph over nodes n00..n{n-1}; all nodes present."""
    ids = [f"n{i:02d}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                weight = 1 if max_weight <= 1 else int(rng.integers(1, max_weight + 1))
                edges.append((ids[i], ids[j], float(weight)))
    return make_graph(edges, name, nodes=ids)


def permuted_copy(
    rng: np.random.Generator, graph: Graph, name: str = "perm"
) -> tuple[Graph, dict[str, str]]:
    """Relabeled copy of `graph` under a random node bijection."""
    nodes = graph.nodes()
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    edges = [(mapping[u], mapping[v], w) for u, v, w in graph.edges()]
    return make_graph(edges, name, nodes=shuffled), mapping


def fresh_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this mobgraph."""
    src = str(Path(mobgraph.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
