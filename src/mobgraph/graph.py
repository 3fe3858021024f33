"""Undirected weighted graph used throughout the pipeline.

Nodes are string ids (commenter ids). Edges carry a positive integer-valued
weight (number of shared videos). Self-loops are rejected. Each node maps
its neighbours to the edge weights, so an edge is stored under both of its
endpoints and lookups are orientation-free.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator


class Graph:
    """Mutable undirected graph with weighted edges and string node ids."""

    def __init__(self, name: str = ""):
        self.name = name
        self._adj: dict[str, dict[str, float]] = {}

    # --- construction ---------------------------------------------------

    def add_node(self, u: str) -> None:
        if u not in self._adj:
            self._adj[u] = {}

    def add_edge(self, u: str, v: str, weight: float = 1.0) -> None:
        if u == v:
            raise ValueError(f"self-loop rejected: {u!r}")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = self._adj[v][u] = float(weight)

    # --- queries ----------------------------------------------------------

    def has_node(self, u: str) -> bool:
        return u in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def weight(self, u: str, v: str) -> float:
        return self._adj[u][v]

    def neighbors(self, u: str) -> AbstractSet[str]:
        """A read-only, live set view of u's neighbours."""
        return self._adj[u].keys()

    def degree(self, u: str) -> int:
        return len(self._adj[u])

    def nodes(self) -> list[str]:
        """Node ids in sorted order."""
        return sorted(self._adj)

    def edges(self) -> list[tuple[str, str, float]]:
        """(u, v, weight) triples, u < v, sorted lexicographically."""
        return sorted(
            (u, v, w) for u, nbrs in self._adj.items() for v, w in nbrs.items() if u < v
        )

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    # --- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, nodes={self.n_nodes}, edges={self.n_edges})"

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes())
