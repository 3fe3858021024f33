"""Weisfeiler-Leman relabeling and token-document extraction.

Each node starts labeled by its degree; every iteration replaces a node's
label with a hash of its own label and the sorted labels of its neighbors.
The tokens of iterations 0..h, nodes in sorted-id order within an iteration,
form the graph's document.

A round hashes every node at once. FNV-1a over a byte chunk c, started from
any 64-bit state h, equals h * P**len(c) + T_c[h & 255] (mod 2**64): XOR
with a byte touches only the low 8 bits of the state, and P is odd, so the
low byte of every later state depends only on the low byte of h. One
256-entry table per distinct label of the round then folds a whole neighbor
label into the states of all nodes in one numpy step, and gives a node's
start state, after its own label and "|", as
((OFFSET * P**len + T[OFFSET & 255]) ^ ord("|")) * P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

# FNV-1a, 64-bit: platform-stable and cheap. Pinned; golden tokens in tests.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# The same constants as uint64 operands: numpy 1.x turns uint64 mixed with
# a signed integer into float64.
_OFFSET64 = np.uint64(_FNV_OFFSET)
_PRIME64 = np.uint64(_FNV_PRIME)
_LOW_BYTE = np.uint64(0xFF)
_COMMA = np.uint64(ord(","))
_BAR = np.uint64(ord("|"))
_ALL_LOW_BYTES = np.arange(256, dtype=np.uint64)


@dataclass
class GraphDocument:
    graph_id: str
    tokens: list[str] = field(default_factory=list)


def initial_labels(graph: Graph) -> dict[str, str]:
    """Seed labeling: every node labeled by its decimal degree, in node
    order."""
    return dict(zip(graph.ids, map(str, np.diff(graph.indptr).tolist())))


def _length_groups(texts: list[str]):
    """(positions, bytes) for each UTF-8 length, shortest first: where the
    texts of that length sit in texts, and their bytes as a uint64 matrix
    with one row per text."""
    chunks = [t.encode("utf-8") for t in texts]
    positions: dict[int, list[int]] = {}
    for i, chunk in enumerate(chunks):
        positions.setdefault(len(chunk), []).append(i)
    for width, where in sorted(positions.items()):
        text = np.frombuffer(b"".join([chunks[i] for i in where]), dtype=np.uint8)
        yield where, text.reshape(len(where), width).astype(np.uint64)


def _fold(states: np.ndarray, text: np.ndarray) -> None:
    """FNV-1a over row i of text from every state in row i, in place."""
    for j in range(text.shape[1]):
        states ^= text[:, j, None]
        states *= _PRIME64


def _part_tables(parts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per part p: the table T_p[L] = FNV_p(L) - L * P**len(p) for
    every low byte L, and the power P**len(p). Rows run shortest part
    first, so each length fills its rows in place; row_of_rank maps a part's
    position in parts to its row."""
    tables = np.empty((len(parts), 256), dtype=np.uint64)
    powers = np.empty(len(parts), dtype=np.uint64)
    row_of_rank = np.empty(len(parts), dtype=np.int32)
    row = 0
    for where, text in _length_groups(parts):
        rows = slice(row, row + len(where))
        tables[rows] = _ALL_LOW_BYTES
        _fold(tables[rows], text)
        powers[rows] = power = np.uint64(pow(_FNV_PRIME, text.shape[1], 1 << 64))
        tables[rows] -= _ALL_LOW_BYTES * power
        row_of_rank[where] = np.arange(rows.start, rows.stop, dtype=np.int32)
        row = rows.stop
    return tables, powers, row_of_rank


class _NeighbourIndex:
    """The graph's adjacency as flat int32 rows, built once per document.

    Rows run in order of descending degree (ties by node id), so the nodes
    with more than k neighbours are always a prefix of that order."""

    def __init__(self, graph: Graph):
        self.order = np.argsort(-np.diff(graph.indptr), kind="stable")
        self.degrees, self.neighbours = graph.rows(self.order)
        self.starts = np.cumsum(self.degrees) - self.degrees
        # folding[k]: how many nodes have more than k neighbours
        max_degree = self.degrees.max(initial=0)
        self.folding = np.searchsorted(-self.degrees, -np.arange(max_degree), "left")

    def _sort_rows(self, slot_rank: np.ndarray) -> None:
        """Sort every node's row in place: rows of one degree sit side by
        side, so each degree is one 2-D sort."""
        firsts = np.flatnonzero(np.diff(self.degrees, prepend=-1, append=-1)).tolist()
        for first, stop in zip(firsts, firsts[1:]):
            degree = int(self.degrees[first])
            start = int(self.starts[first])
            if degree > 1:
                slot_rank[start:start + (stop - first) * degree].reshape(-1, degree).sort(axis=1)

    def refine(self, labels: list[str]) -> list[str]:
        """One WL round over labels in node order, returning the new ones."""
        distinct = sorted(set(labels))
        rank = {label: i for i, label in enumerate(distinct)}
        label_rank = np.fromiter(map(rank.__getitem__, labels), np.int32, len(labels))
        slot_rank = label_rank[self.neighbours]
        self._sort_rows(slot_rank)
        tables, powers, row_of_rank = _part_tables(distinct)

        start = (_OFFSET64 * powers + tables[:, _FNV_OFFSET & 0xFF]) ^ _BAR
        start *= _PRIME64
        state = start[row_of_rank[label_rank[self.order]]]
        for k, count in enumerate(self.folding.tolist()):
            h = state[:count]
            if k:
                h ^= _COMMA
                h *= _PRIME64
            rows = row_of_rank[slot_rank[self.starts[:count] + k]]
            low = h & _LOW_BYTE
            h *= powers[rows]
            h += tables[rows, low]
        hashes = np.empty_like(state)
        hashes[self.order] = state
        return [f"{h:016x}" for h in hashes.tolist()]


def extract_document(graph: Graph, iterations: int = 2) -> GraphDocument:
    """Token document over iterations 0..iterations; length = n * (h+1).

    Tokens carry an iteration prefix ("0_", "1_", ...) so labels from
    different rounds never collide in the vocabulary.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    index = _NeighbourIndex(graph)
    labels = list(initial_labels(graph).values())
    tokens = [f"0_{label}" for label in labels]
    for t in range(1, iterations + 1):
        labels = index.refine(labels)
        tokens.extend(f"{t}_{label}" for label in labels)
    return GraphDocument(graph_id=graph.name, tokens=tokens)
