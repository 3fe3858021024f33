"""Undirected weighted graph used throughout the pipeline.

Nodes are string ids (commenter ids). Edges carry a positive integer-valued
weight (number of shared videos). Self-loops are rejected. Edge keys are
stored canonically as (min, max) so lookups are orientation-free.
"""

from __future__ import annotations

from typing import Iterator


def canonical_edge(u: str, v: str) -> tuple[str, str]:
    """Order an edge key so (u, v) and (v, u) collide."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Mutable undirected graph with weighted edges and string node ids."""

    def __init__(self, name: str = ""):
        self.name = name
        self._adj: dict[str, set[str]] = {}
        self._weights: dict[tuple[str, str], float] = {}

    # --- construction ---------------------------------------------------

    def add_node(self, u: str) -> None:
        if u not in self._adj:
            self._adj[u] = set()

    def add_edge(self, u: str, v: str, weight: float = 1.0) -> None:
        if u == v:
            raise ValueError(f"self-loop rejected: {u!r}")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._weights[canonical_edge(u, v)] = float(weight)

    # --- queries ----------------------------------------------------------

    def has_node(self, u: str) -> bool:
        return u in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return canonical_edge(u, v) in self._weights

    def weight(self, u: str, v: str) -> float:
        return self._weights[canonical_edge(u, v)]

    def neighbors(self, u: str) -> set[str]:
        return self._adj[u]

    def degree(self, u: str) -> int:
        return len(self._adj[u])

    def nodes(self) -> list[str]:
        """Node ids in sorted order."""
        return sorted(self._adj)

    def edges(self) -> list[tuple[str, str, float]]:
        """(u, v, weight) triples, u < v, sorted lexicographically."""
        return [(u, v, self._weights[(u, v)]) for u, v in sorted(self._weights)]

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return len(self._weights)

    # --- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj.keys() == other._adj.keys() and self._weights == other._weights

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, nodes={self.n_nodes}, edges={self.n_edges})"

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes())
