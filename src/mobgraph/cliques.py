"""Maximal-clique enumeration, per-channel censuses, and the suspiciousness
ranking built from them. Edge weights play no role here; only connectivity."""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CliqueBudgetExceeded, MissingLabel
from .graph import Graph
from .textio import TextTarget, open_text

DEFAULT_CLIQUE_BUDGET = 10_000_000


@dataclass
class CliqueCensus:
    channel_id: str
    min_size: int
    count: int  # maximal cliques with >= min_size members
    histogram: dict[int, int] = field(default_factory=dict)  # size -> count, all sizes


@dataclass
class SuspiciousnessRanking:
    """(channel, cluster, census count) rows, descending by count with
    lexicographic channel tie-break; per_cluster holds the same ordering
    restricted to each cluster."""

    overall: list[tuple[str, int, int]]
    per_cluster: dict[int, list[tuple[str, int, int]]]


def _degeneracy_order(graph: Graph) -> list[int]:
    """Node positions, repeatedly removing a minimum-degree node (ties toward
    the smaller position, which is the smaller id).

    A heap of (remaining degree, position) with lazy deletion (Matula & Beck
    1983): a removal pushes each neighbour's lowered key, and an entry whose
    degree is no longer its node's current one is skipped when popped.
    """
    indptr = graph.indptr.tolist()
    degree = np.diff(graph.indptr).tolist()  # -1 once removed
    heap = list(zip(degree, range(graph.n_nodes)))
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        d, u = heapq.heappop(heap)
        if degree[u] != d:
            continue  # stale: u is already removed, or its degree has dropped
        order.append(u)
        degree[u] = -1
        for v in graph.indices[indptr[u]:indptr[u + 1]].tolist():
            if degree[v] >= 0:
                degree[v] -= 1
                heapq.heappush(heap, (degree[v], v))
    return order


def _each_maximal_clique(
    graph: Graph, budget: int | None, emit: Callable[[int], object]
) -> None:
    """Call emit(members) once per maximal clique, members a bitset whose bit
    i is node i, graph.ids[i].

    Bron-Kerbosch over a degeneracy ordering with Tomita pivoting, on Python
    ints: each node's neighbourhood and the sets P (candidates), X (excluded)
    and R (the clique so far) are bitsets. The pivot is the member of P|X
    covering the most of P, ties toward the lowest bit (the smaller id), and
    the candidates outside its neighbourhood are taken lowest bit first, so
    the traversal is deterministic. budget caps emissions; None disables the
    cap.
    """
    indptr, n = graph.indptr.tolist(), graph.n_nodes
    adj = [int.from_bytes(np.packbits(np.bincount(graph.indices[start:stop], minlength=n) > 0,
                                      bitorder="little"), "little")
           for start, stop in zip(indptr, indptr[1:])]
    emitted = 0

    def expand(r: int, p: int, x: int) -> None:
        nonlocal emitted
        if not p:
            if not x:
                emitted += 1
                if budget is not None and emitted > budget:
                    raise CliqueBudgetExceeded(budget, graph.name or None)
                emit(r)
            return
        p_size = p.bit_count()
        best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            covered = (p & adj[low.bit_length() - 1]).bit_count()
            if covered > best:
                best, pivot = covered, low
                if covered == p_size:
                    break  # no later member can cover more
        candidates = p & ~adj[pivot.bit_length() - 1]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            neighbours = adj[low.bit_length() - 1]
            expand(r | low, p & neighbours, x & neighbours)
            p ^= low
            x |= low

    done = 0  # nodes whose own search has run: excluded from later ones
    for i in _degeneracy_order(graph):
        expand(1 << i, adj[i] & ~done, adj[i] & done)
        done |= 1 << i


def maximal_cliques(
    graph: Graph, budget: int | None = DEFAULT_CLIQUE_BUDGET
) -> list[frozenset[str]]:
    """Every maximal clique exactly once, as frozensets of node ids.
    budget caps emissions; None disables the cap."""
    found: list[frozenset[str]] = []

    def collect(members: int) -> None:
        found.append(frozenset(u for i, u in enumerate(graph.ids) if members >> i & 1))

    _each_maximal_clique(graph, budget, collect)
    return found


def clique_census(
    graph: Graph, min_size: int = 5, budget: int | None = DEFAULT_CLIQUE_BUDGET
) -> CliqueCensus:
    """Count maximal cliques of size >= min_size; histogram covers all sizes."""
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    by_size = [0] * (graph.n_nodes + 1)

    def tally(members: int) -> None:
        by_size[members.bit_count()] += 1

    _each_maximal_clique(graph, budget, tally)
    histogram = {size: n for size, n in enumerate(by_size) if n}
    return CliqueCensus(
        channel_id=graph.name, min_size=min_size,
        count=sum(n for size, n in histogram.items() if size >= min_size),
        histogram=histogram,
    )


def rank_channels(
    censuses: Iterable[CliqueCensus], cluster_labels: Mapping[str, int]
) -> SuspiciousnessRanking:
    """Order channels by census count, descending, ties by channel id."""
    rows: list[tuple[str, int, int]] = []
    for census in censuses:
        if census.channel_id not in cluster_labels:
            raise MissingLabel(census.channel_id)
        rows.append(
            (census.channel_id, int(cluster_labels[census.channel_id]), census.count)
        )
    rows.sort(key=lambda row: (-row[2], row[0]))
    per_cluster: dict[int, list[tuple[str, int, int]]] = {}
    for row in rows:
        per_cluster.setdefault(row[1], []).append(row)
    return SuspiciousnessRanking(overall=rows, per_cluster=per_cluster)


def write_census_csv(
    censuses: Iterable[CliqueCensus],
    cluster_labels: Mapping[str, int],
    sink: TextTarget,
) -> None:
    """CSV with header channel_id,cluster,min_size,clique_count, sorted by
    channel id. Channels without a label get cluster -1."""
    with open_text(sink, "w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["channel_id", "cluster", "min_size", "clique_count"])
        for census in sorted(censuses, key=lambda c: c.channel_id):
            cluster = cluster_labels.get(census.channel_id, -1)
            writer.writerow(
                [census.channel_id, int(cluster), census.min_size, census.count]
            )
