"""Maximal-clique enumeration, per-channel censuses, and the suspiciousness
ranking built from them. Edge weights play no role here; only connectivity."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

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


def _degeneracy_order(graph: Graph) -> list[str]:
    """Repeatedly remove a minimum-degree node (ties toward the smaller id)."""
    degrees = {u: graph.degree(u) for u in graph.nodes()}
    remaining: dict[str, set[str]] = {u: set(graph.neighbors(u)) for u in degrees}
    order: list[str] = []
    while remaining:
        u = min(remaining, key=lambda x: (len(remaining[x]), x))
        order.append(u)
        for v in remaining[u]:
            remaining[v].discard(u)
        del remaining[u]
    return order


def maximal_cliques(
    graph: Graph, budget: int | None = DEFAULT_CLIQUE_BUDGET
) -> Iterator[frozenset[str]]:
    """Stream every maximal clique exactly once.

    Bron-Kerbosch over a degeneracy ordering with pivoting; the pivot is the
    candidate covering the most of P, ties toward the smaller id, so the
    traversal is deterministic. budget caps emissions; None disables the cap.
    """
    adj = {u: set(graph.neighbors(u)) for u in graph.nodes()}
    emitted = 0

    def expand(r: set[str], p: set[str], x: set[str]) -> Iterator[frozenset[str]]:
        nonlocal emitted
        if not p and not x:
            emitted += 1
            if budget is not None and emitted > budget:
                raise CliqueBudgetExceeded(budget, graph.name or None)
            yield frozenset(r)
            return
        pivot = min(p | x, key=lambda u: (-len(p & adj[u]), u))
        for v in sorted(p - adj[pivot]):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    order = _degeneracy_order(graph)
    rank = {u: i for i, u in enumerate(order)}
    for v in order:
        later = {u for u in adj[v] if rank[u] > rank[v]}
        earlier = {u for u in adj[v] if rank[u] < rank[v]}
        yield from expand({v}, later, earlier)


def clique_census(
    graph: Graph, min_size: int = 5, budget: int | None = DEFAULT_CLIQUE_BUDGET
) -> CliqueCensus:
    """Count maximal cliques of size >= min_size; histogram covers all sizes."""
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    histogram: dict[int, int] = {}
    count = 0
    for clique in maximal_cliques(graph, budget=budget):
        size = len(clique)
        histogram[size] = histogram.get(size, 0) + 1
        if size >= min_size:
            count += 1
    return CliqueCensus(
        channel_id=graph.name, min_size=min_size, count=count,
        histogram=dict(sorted(histogram.items())),
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
