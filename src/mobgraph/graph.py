"""Undirected weighted graph used throughout the pipeline.

Nodes are string ids (commenter ids) in sorted order; node i is ids[i].
Edges carry a positive, finite weight (number of shared videos). The
adjacency is in CSR form: indices[indptr[i]:indptr[i + 1]] holds the
positions of i's neighbours in ascending order, and the same slice of
weights their edge weights. An edge is stored in the rows of both of its
endpoints. A graph is immutable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Graph:
    """Immutable undirected graph with weighted edges and string node ids."""

    def __init__(self, name: str = "", ids: Sequence[str] = (), u: Sequence[int] = (),
                 v: Sequence[int] = (), weights: Sequence[float] = ()):
        """The graph on ids, distinct and in sorted() order, with an edge
        (ids[u[k]], ids[v[k]]) of weight weights[k] for each k: pairs of
        node positions u < v, in ascending (u, v) order."""
        self.name = name
        self.ids = tuple(ids)
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("node ids must be distinct and in sorted order")
        n = len(self.ids)
        u, v = np.asarray(u, dtype=np.int32), np.asarray(v, dtype=np.int32)
        weights = np.asarray(weights, dtype=np.float64)
        if not u.shape == v.shape == weights.shape == (len(u),):
            raise ValueError("u, v and weights must be 1-D and of one length")
        if len(u) and not (u.min() >= 0 and v.max() < n and (u < v).all()
                           and (np.diff(u.astype(np.int64) * n + v) > 0).all()):
            raise ValueError("edges must be distinct pairs of node positions u < v, "
                             "in ascending order")
        if not (np.isfinite(weights) & (weights > 0)).all():
            raise ValueError("edge weights must be positive and finite")
        # A counting fill: row i holds its earlier neighbours (the u of each
        # edge whose v is i), then its later ones. An edge's slot in a row is
        # its rank in (u, v) order, or in stable v order on the earlier side,
        # shifted by the slots that the rows up to it hold on the other side.
        earlier, later = np.bincount(v, minlength=n), np.bincount(u, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(earlier + later)])
        self.indices = np.empty(2 * len(u), dtype=np.int32)
        self.weights = np.empty(2 * len(u), dtype=np.float64)
        slots = np.cumsum(earlier)[u] + np.arange(len(u))
        self.indices[slots], self.weights[slots] = v, weights
        by_v = np.argsort(v, kind="stable")
        slots = (np.cumsum(later) - later)[v[by_v]] + np.arange(len(u))
        self.indices[slots], self.weights[slots] = u[by_v], weights[by_v]
        for array in (self.indptr, self.indices, self.weights):
            array.flags.writeable = False

    # --- queries ----------------------------------------------------------

    def nodes(self) -> list[str]:
        """Node ids in sorted order."""
        return list(self.ids)

    def edges(self) -> list[tuple[str, str, float]]:
        """(u, v, weight) triples, u < v, sorted lexicographically."""
        rows = np.repeat(np.arange(len(self.ids)), np.diff(self.indptr))
        later = self.indices > rows  # each edge once, from its earlier end
        ids = self.ids
        return [(ids[u], ids[v], w) for u, v, w in zip(
            rows[later].tolist(), self.indices[later].tolist(), self.weights[later].tolist())]

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The degree of each of nodes (an int array of positions), and
        their rows of indices end to end."""
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        offsets = np.cumsum(lengths) - lengths  # where each row starts in the result
        return lengths, self.indices[np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)]

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    # --- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.ids == other.ids and all(map(
            np.array_equal, (self.indptr, self.indices, self.weights),
            (other.indptr, other.indices, other.weights)))

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, nodes={self.n_nodes}, edges={self.n_edges})"
