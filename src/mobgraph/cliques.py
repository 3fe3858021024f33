"""Maximal-clique enumeration, per-channel censuses, and the suspiciousness
ranking built from them. Edge weights play no role here; only connectivity."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CliqueBudgetExceeded, MissingLabel
from .graph import Graph
from .textio import TextTarget, write_csv

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
    """Node positions in smallest-last order: when a node is listed, no
    unlisted node has fewer unlisted neighbours.

    Bucket peeling (Batagelj & Zaversnik 2003), O(n + m): `nodes` holds
    the nodes sorted by remaining degree, and start[d] is the first slot of
    degree d among those not yet listed, for every d from the next node's
    degree up. Listing the node in the first unlisted slot moves each
    unlisted neighbour to the first slot of its block, which then becomes
    the last slot of the block one degree lower. Ties start toward the
    smaller position and then follow those moves, so the order depends on
    the graph alone.
    """
    indptr, indices = graph.indptr.tolist(), graph.indices
    degree = np.diff(graph.indptr)
    counts = np.bincount(degree)
    start = (np.cumsum(counts) - counts).tolist()
    nodes = np.argsort(degree, kind="stable")
    slot = np.empty_like(nodes)
    slot[nodes] = np.arange(len(nodes))
    nodes, slot, degree = nodes.tolist(), slot.tolist(), degree.tolist()
    for i, v in enumerate(nodes):  # the loop writes only slots after i
        start[degree[v]] = i + 1
        for u in indices[indptr[v]:indptr[v + 1]].tolist():
            at = slot[u]
            if at > i:
                du = degree[u]
                first = start[du]
                w = nodes[first]
                nodes[at], nodes[first] = w, u
                slot[w], slot[u] = at, first
                start[du] = first + 1
                degree[u] = du - 1
    return nodes


# (rows, universe, r, p, x): the cliques that extend r by members of p and by
# no member of x, on bitsets whose bit i is node universe[i] and has row
# rows[i] (see _search).
_Subproblem = tuple[list[int], Sequence[int], int, int, int]


def _global_rows(graph: Graph, order: list[int]) -> Iterator[_Subproblem]:
    """The subproblems of the outer loop on rows as wide as the graph: bit
    i of every bitset is node i."""
    rows = _int_rows(_packed_rows(graph, np.arange(graph.n_nodes)))
    universe = range(graph.n_nodes)
    done = 0  # nodes whose own subproblem has run: excluded from later ones
    for v in order:
        row = rows[v]
        yield rows, universe, 1 << v, row & ~done, row & done
        done |= 1 << v


def _local_rows(graph: Graph, order: list[int]) -> Iterator[_Subproblem]:
    """The subproblems of the outer loop on rows as wide as one node's
    neighbourhood. Node v's universe is its later neighbours P, its earlier
    neighbours X and v itself, bits in that order; a row of P covers P and
    X, a row of X only P, its column in the rows of P.

    A row of P is its node's neighbour list mapped into the universe, or,
    for a hub, a node of degree above n/8, a look-up of the universe in the
    hub's row of bits over the graph: at most 16m/n such rows, 2m bytes.
    """
    n, indptr, indices = graph.n_nodes, graph.indptr, graph.indices
    degree = np.diff(indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    hubs = np.flatnonzero(8 * degree > n)
    hub = np.full(n, -1, dtype=np.int64)
    hub[hubs] = np.arange(len(hubs))
    hub_bits = _packed_rows(graph, hubs)
    # Each row of indices, rearranged: the later neighbours that are not
    # hubs, the later hubs, then the earlier neighbours.
    owner = np.repeat(np.arange(n), degree)
    key = 3 * owner + np.where(rank[indices] > rank[owner], hub[indices] >= 0, 2)
    arranged = indices[np.argsort(key, kind="stable")]
    # (start, end of light P, end of P, stop) of each row of arranged
    bounds = indptr[:-1, None] + np.cumsum(np.bincount(key, minlength=3 * n).reshape(n, 3), axis=1)
    bounds = np.column_stack([indptr[:-1], bounds])[order].tolist()
    del owner, key
    local = np.full(n, -1, dtype=np.int32)  # position in v's universe, else -1
    positions = np.arange(degree.max(initial=0), dtype=np.int32)
    for v, (start, light_stop, p_stop, stop) in zip(order, bounds):
        universe = arranged[start:stop]
        size, n_light, n_p = stop - start, light_stop - start, p_stop - start
        # One spare column: a neighbour outside the universe maps to -1, the
        # spare column of the row before (of the last row, for row 0).
        block = np.zeros((n_p, size + 1), dtype=bool)
        lengths, members = graph.rows(universe[:n_light])
        local[universe] = positions[:size]
        block.reshape(-1)[np.repeat(np.arange(0, n_light * (size + 1), size + 1), lengths)
                          + local[members]] = True
        local[universe] = -1
        if n_p > n_light:
            bits = hub_bits[hub[universe[n_light:n_p]][:, None], universe >> 3]
            block[n_light:, :size] = bits & np.left_shift(1, universe & 7).astype(np.uint8)
        rows = (_int_rows(np.packbits(block[:, :size], axis=1, bitorder="little"))
                + _int_rows(np.packbits(block[:, n_p:size].T, axis=1, bitorder="little")))
        yield rows, [*universe.tolist(), v], 1 << size, (1 << n_p) - 1, (1 << size) - (1 << n_p)


def _packed_rows(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """The row of each node as bits over the graph, 8 to a byte: bit j of
    row k is byte j // 8's bit j % 8, set when nodes[k] is adjacent to j."""
    lengths, members = graph.rows(nodes)
    packed = np.zeros((len(nodes), (graph.n_nodes + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (np.repeat(np.arange(len(nodes)), lengths), members >> 3),
                     np.left_shift(1, members & 7).astype(np.uint8))
    return packed


def _int_rows(packed: np.ndarray) -> list[int]:
    """Each row of a uint8 matrix as an int, byte j holding bits 8j to 8j + 7."""
    data, width, from_bytes = packed.tobytes(), packed.shape[1], int.from_bytes
    return [from_bytes(data[i * width:(i + 1) * width], "little") for i in range(len(packed))]


def _search(subproblems: Iterable[_Subproblem], budget: int,
            emit: Callable[[int, Sequence[int]], object], name: str) -> None:
    """Call emit(members, universe) once per maximal clique of the
    subproblems' graph, members a bitset whose bit i is node universe[i].

    Bron-Kerbosch with Tomita pivoting on Python ints: the pivot is the
    member of P|X covering the most of P, ties toward the lowest bit, and
    the candidates outside its neighbourhood are taken lowest bit first.
    Exact shortcuts, none of which changes what is emitted:
    - a member of P covers at most |P| - 1 of P, and one that does is in
      every clique of the call: the pivot scan moves it to R and goes on;
    - the scan stops at a member of X covering |P| - 1 or more, and a
      member of X covering all of P ends the call;
    - a branch whose P has at most two members is closed in place,
      without a call;
    - the candidate loop stops once a member moved to X is adjacent to
      all that is left of P, as it would extend every later branch.
    Every clique found goes through one counter, so budget caps emissions
    the same way on every path.
    """
    emitted = 0
    rows: list[int] = []
    universe: Sequence[int] = ()

    def found(members: int) -> None:
        nonlocal emitted
        emitted += 1
        if emitted > budget:
            raise CliqueBudgetExceeded(budget, name)
        emit(members, universe)

    def expand(r: int, p: int, x: int) -> None:
        enough = p.bit_count() - 1
        best, pivot = -1, 0
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            row = rows[low.bit_length() - 1]
            covered = (p & row).bit_count()
            if covered > best:
                if covered == enough and low & p:
                    # Adjacent to the rest of P, so in every clique found
                    # here. Each member scanned before it that stays in
                    # P|X is adjacent to it, and now covers one fewer.
                    r |= low
                    p ^= low
                    x &= row
                    rest &= row
                    enough -= 1
                    best = best - 1 if pivot & (p | x) else -1
                    continue
                best, pivot, pivot_row = covered, low, row
                if covered >= enough:
                    break
        if not p:
            if not x:
                found(r)
            return
        if best > enough:
            return  # a member of X covers P
        if best < 0:  # the pivot left X: any member of P will do
            pivot_row = rows[(p & -p).bit_length() - 1]
        candidates = p & ~pivot_row
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            row = rows[low.bit_length() - 1]
            sub = p & row
            size = sub.bit_count()
            if size > 2:
                expand(r | low, sub, x & row)
            elif size < 2:  # maximal unless a member of X extends it
                if not x & row & (rows[sub.bit_length() - 1] if sub else -1):
                    found(r | low | sub)
            else:
                first = sub & -sub
                first_row, second_row = rows[first.bit_length() - 1], rows[sub.bit_length() - 1]
                if first_row & sub:  # the two are adjacent
                    if not x & row & first_row & second_row:
                        found(r | low | sub)
                else:
                    if not x & row & first_row:
                        found(r | low | first)
                    if not x & row & second_row:
                        found(r | low | sub ^ first)
            p ^= low
            if not p & ~row:
                return
            x |= low

    for rows, universe, r, p, x in subproblems:
        if p:
            expand(r, p, x)
        elif not x:
            found(r)


# Graphs at least this wide search each node's subproblem on rows over its
# neighbourhood; narrower ones on rows over the whole graph, which cost less
# to build. On synthetic paper-shaped channels the two paths take about the
# same time at 2,100-3,000 nodes; at 4,302 nodes the local rows take half.
LOCAL_ROWS_MIN_NODES = 2048


def _each_maximal_clique(
    graph: Graph, budget: int, emit: Callable[[int, Sequence[int]], object]
) -> None:
    """Call emit(members, universe) once per maximal clique, members a
    bitset whose bit i is node universe[i], a position in graph.ids.

    The Eppstein-Loffler-Strash outer loop: each node, in degeneracy order,
    has one subproblem, the cliques of its later neighbours that no earlier
    one extends (see _search). A graph of at least LOCAL_ROWS_MIN_NODES
    nodes searches it on bitsets over the node's neighbourhood
    (_local_rows), a narrower one on bitsets over the graph (_global_rows).
    budget caps emissions.
    """
    subproblems = _local_rows if graph.n_nodes >= LOCAL_ROWS_MIN_NODES else _global_rows
    _search(subproblems(graph, _degeneracy_order(graph)), budget, emit, graph.name)


def maximal_cliques(graph: Graph, budget: int = DEFAULT_CLIQUE_BUDGET) -> list[frozenset[str]]:
    """Every maximal clique exactly once, as frozensets of node ids.
    budget caps emissions."""
    found: list[frozenset[str]] = []
    ids = graph.ids

    def collect(members: int, universe: Sequence[int]) -> None:
        clique = []
        while members:
            low = members & -members
            members ^= low
            clique.append(ids[universe[low.bit_length() - 1]])
        found.append(frozenset(clique))

    _each_maximal_clique(graph, budget, collect)
    return found


def clique_census(
    graph: Graph, min_size: int = 5, budget: int = DEFAULT_CLIQUE_BUDGET
) -> CliqueCensus:
    """Count maximal cliques of size >= min_size; histogram covers all sizes."""
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    by_size = [0] * (graph.n_nodes + 1)

    def tally(members: int, universe: Sequence[int]) -> None:
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
    write_csv(sink, ["channel_id", "cluster", "min_size", "clique_count"], (
        [c.channel_id, int(cluster_labels.get(c.channel_id, -1)), c.min_size, c.count]
        for c in sorted(censuses, key=lambda c: c.channel_id)))
