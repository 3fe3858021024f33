import dataclasses
import io

import numpy as np
import pytest

from mobgraph import synth
from mobgraph import cliques as cliques_mod
from mobgraph.cliques import (
    LOCAL_ROWS_MIN_NODES,
    _degeneracy_order,
    _global_rows,
    _local_rows,
    _search,
    clique_census,
    maximal_cliques,
    rank_channels,
    write_census_csv,
)
from mobgraph.errors import CliqueBudgetExceeded, MissingLabel
from mobgraph.graph import Graph
from mobgraph.ingest import build_co_commenter_graph
from mobgraph.pipeline import PipelineConfig, RunState, count_cliques, start_census

from conftest import make_graph, neighbours, permuted_copy, random_graph


def exhaustive_maximal_cliques(graph):
    """Bitmask sweep over every vertex subset; usable up to ~n=18."""
    nodes = graph.nodes()
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    adj = [0] * n
    for u, v, _w in graph.edges():
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    found = set()
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(adj[i] & mask != mask & ~(1 << i) for i in members):
            continue  # not a clique
        if any(
            adj[v] & mask == mask
            for v in range(n) if not mask >> v & 1
        ):
            continue  # extensible, not maximal
        found.add(frozenset(nodes[i] for i in members))
    return found


def reference_degeneracy_order(graph):
    """An O(n^2) smallest-last order for the set-based reference: min() over
    every remaining node per step, ties toward the smaller id."""
    remaining = {u: set(neighbours(graph, u)) for u in graph.nodes()}
    order = []
    while remaining:
        u = min(remaining, key=lambda x: (len(remaining[x]), x))
        order.append(u)
        for v in remaining[u]:
            remaining[v].discard(u)
        del remaining[u]
    return order


def reference_maximal_cliques(graph):
    """The set-based Bron-Kerbosch the bitset census replaced: degeneracy
    order, pivot covering the most of P (ties toward the smaller id). Slow,
    but it scales past the exhaustive sweep."""
    adj = {u: set(neighbours(graph, u)) for u in graph.nodes()}

    def expand(r, p, x):
        if not p and not x:
            yield frozenset(r)
            return
        pivot = min(p | x, key=lambda u: (-len(p & adj[u]), u))
        for v in sorted(p - adj[pivot]):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    order = reference_degeneracy_order(graph)
    rank = {u: i for i, u in enumerate(order)}
    for v in order:
        later = {u for u in adj[v] if rank[u] > rank[v]}
        earlier = {u for u in adj[v] if rank[u] < rank[v]}
        yield from expand({v}, later, earlier)


def assert_matches_reference(graph):
    """Clique set, emission count and census histogram all equal the
    set-based reference; returns the number of maximal cliques."""
    expected = list(reference_maximal_cliques(graph))
    ours = maximal_cliques(graph, budget=10**9)
    assert len(ours) == len(expected)
    assert set(ours) == set(expected)
    histogram = {}
    for clique in expected:
        histogram[len(clique)] = histogram.get(len(clique), 0) + 1
    for min_size in (1, 3, 5):
        census = clique_census(graph, min_size=min_size, budget=10**9)
        assert census.channel_id == graph.name
        assert census.histogram == dict(sorted(histogram.items()))
        assert list(census.histogram) == sorted(census.histogram)
        assert census.count == sum(1 for c in expected if len(c) >= min_size)
    return len(expected)


def complete_graph(n):
    return make_graph([(f"n{i}", f"n{j}") for i in range(n) for j in range(i + 1, n)], "k")


def with_isolated(graph, *ids):
    """graph with further nodes, none of them adjacent to any other."""
    return make_graph(graph.edges(), graph.name, nodes=[*graph.nodes(), *ids])


def degeneracy_ids(graph):
    return [graph.ids[i] for i in _degeneracy_order(graph)]


# --- enumeration -------------------------------------------------------------------

def test_degeneracy_order_is_smallest_last():
    rng = np.random.default_rng(11)
    assert _degeneracy_order(Graph("empty")) == []
    for trial in range(60):
        n = int(rng.integers(1, 40))
        graph = random_graph(rng, n, float(rng.choice([0.05, 0.2, 0.5, 0.9])))
        # isolated nodes, after every n-node
        graph = with_isolated(graph, *(f"z{i}" for i in range(int(rng.integers(0, 4)))))
        order = _degeneracy_order(graph)
        assert sorted(order) == list(range(graph.n_nodes)), trial
        remaining = {u: set(neighbours(graph, u)) for u in graph.nodes()}
        for u in (graph.ids[i] for i in order):
            assert len(remaining[u]) == min(map(len, remaining.values())), trial
            for v in remaining.pop(u):
                remaining[v].discard(u)
    # Regular graphs: every step is a degree tie. Bucket peeling starts from
    # position order and lists a node's neighbours as their degrees drop.
    assert _degeneracy_order(complete_graph(7)) == list(range(7))
    cycle = make_graph([(f"c{i}", f"c{(i + 1) % 9}") for i in range(9)], "cycle")
    assert degeneracy_ids(cycle) == ["c0", "c1", "c8", "c2", "c7", "c3", "c6", "c4", "c5"]


def test_complete_graph_single_clique():
    cliques = list(maximal_cliques(complete_graph(5)))
    assert cliques == [frozenset(f"n{i}" for i in range(5))]


def test_triangle_with_pendant():
    g = make_graph([("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")], "g")
    assert set(maximal_cliques(g)) == {frozenset("abc"), frozenset("ad")}


def test_empty_and_isolated():
    assert list(maximal_cliques(Graph("empty"))) == []
    g = make_graph(name="iso", nodes=["solo"])
    assert list(maximal_cliques(g)) == [frozenset({"solo"})]


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(31)
    for p in (0.2, 0.4, 0.6):
        for trial in range(4):
            n = int(rng.integers(4, 16))
            g = random_graph(rng, n, p, name=f"g{p}{trial}")
            ours = set(maximal_cliques(g))
            assert ours == exhaustive_maximal_cliques(g)


def test_no_duplicate_emissions():
    rng = np.random.default_rng(32)
    g = random_graph(rng, 14, 0.5)
    seen = list(maximal_cliques(g))
    assert len(seen) == len(set(seen))


def test_relabel_invariance():
    rng = np.random.default_rng(33)
    g = random_graph(rng, 12, 0.4)
    h, mapping = permuted_copy(rng, g, "h")
    ours = {frozenset(mapping[u] for u in c) for c in maximal_cliques(g)}
    assert ours == set(maximal_cliques(h))


def search_histogram(graph, rows, budget=10**9):
    """Census histogram from one subproblem path, called directly."""
    histogram = {}

    def tally(members, universe):
        histogram[members.bit_count()] = histogram.get(members.bit_count(), 0) + 1

    _search(rows(graph, _degeneracy_order(graph)), budget, tally, graph.name)
    return dict(sorted(histogram.items()))


def search_cliques(graph, rows):
    """Maximal cliques as frozensets of ids from one subproblem path."""
    found = []

    def collect(members, universe):
        found.append(frozenset(graph.ids[universe[i]] for i in range(len(universe))
                               if members >> i & 1))

    _search(rows(graph, _degeneracy_order(graph)), 10**9, collect, graph.name)
    return found


@pytest.mark.parametrize("rows", [_global_rows, _local_rows])
def test_each_row_path_matches_set_based_reference(rows):
    rng = np.random.default_rng(37)
    for trial in range(40):
        n = int(rng.integers(1, 45))
        p = float(rng.choice([0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
        graph = with_isolated(random_graph(rng, n, p, name=f"g{trial}"),
                              *(f"z{i}" for i in range(int(rng.integers(0, 3)))))
        expected = list(reference_maximal_cliques(graph))
        ours = search_cliques(graph, rows)
        assert len(ours) == len(expected) and set(ours) == set(expected), trial
    assert search_cliques(Graph("empty"), rows) == []


def test_local_rows_match_global_rows_on_synthetic_channels():
    records, _ = synth.generate_corpus(synth.two_family_config(
        n_channels=4, videos_per_channel=12, organic_commenters=25))
    whole = [dataclasses.replace(r, channel_id="all") for r in records]
    graphs = [build_co_commenter_graph(whole, "all"),
              *(build_co_commenter_graph(records, channel)
                for channel in sorted({r.channel_id for r in records}))]
    for graph in [*graphs, random_graph(np.random.default_rng(38), 60, 0.6)]:
        assert search_histogram(graph, _local_rows) == search_histogram(graph, _global_rows)


def test_width_selects_the_row_path(monkeypatch):
    seen = []
    for name in ("_global_rows", "_local_rows"):
        inner = getattr(cliques_mod, name)
        monkeypatch.setattr(cliques_mod, name,
                            lambda graph, order, name=name, inner=inner:
                            seen.append(name) or inner(graph, order))
    narrow = random_graph(np.random.default_rng(39), 20, 0.5)
    wide = make_graph([(f"u{i:04d}", f"u{i + 1:04d}") for i in range(LOCAL_ROWS_MIN_NODES - 1)])
    assert clique_census(narrow).histogram == search_histogram(narrow, _local_rows)
    assert clique_census(wide).histogram == {2: LOCAL_ROWS_MIN_NODES - 1}
    assert set(maximal_cliques(wide)) == {frozenset((u, v)) for u, v, _ in wide.edges()}
    assert seen == ["_global_rows", "_local_rows", "_local_rows"]


def test_budget_cap():
    g = octahedron()
    assert len(list(maximal_cliques(g))) == 8
    with pytest.raises(CliqueBudgetExceeded):
        list(maximal_cliques(g, budget=3))
    with pytest.raises(CliqueBudgetExceeded):
        clique_census(g, min_size=3, budget=7)


def octahedron():
    """K(2,2,2): eight maximal triangles."""
    parts = [("a0", "a1"), ("b0", "b1"), ("c0", "c1")]
    return make_graph([(u, v) for i in range(3) for j in range(i + 1, 3)
                       for u in parts[i] for v in parts[j]], "parts")


# On both row paths, these graphs emit cliques from every place the search
# closes one without a call: a P emptied by moving its members to R, a leaf,
# a P of one member, and a P of two members, adjacent or not; and they emit
# cliques after the candidate loop's X early exit.
@pytest.mark.parametrize("rows", [_global_rows, _local_rows])
@pytest.mark.parametrize("graph", [
    make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], "path"),
    octahedron(),
    random_graph(np.random.default_rng(86), 12, 0.6, name="mixed"),
], ids=["path", "octahedron", "mixed"])
def test_budget_trips_at_each_clique_closed_in_place(graph, rows):
    total = sum(search_histogram(graph, rows).values())
    assert total == len(list(reference_maximal_cliques(graph)))
    for budget in range(total):
        with pytest.raises(CliqueBudgetExceeded) as err:
            search_histogram(graph, rows, budget)
        assert err.value.budget == budget
        assert f"'{graph.name}'" in str(err.value)
    assert sum(search_histogram(graph, rows, total).values()) == total


def test_matches_set_based_reference_on_dense_graphs():
    rng = np.random.default_rng(35)
    for n, p in ((40, 0.8), (50, 0.7), (60, 0.6), (70, 0.55), (80, 0.5)):
        assert assert_matches_reference(random_graph(rng, n, p, name=f"g{n}")) > 1000


def test_isolated_commenters_are_size_one_cliques():
    records, _ = synth.generate_corpus(synth.two_family_config(
        n_channels=4, videos_per_channel=10, organic_commenters=20))
    graph = build_co_commenter_graph(records, "ch00")
    assert 1 not in clique_census(graph, min_size=1).histogram
    graph = with_isolated(graph, *(f"lone{i:02d}" for i in range(3)))
    assert_matches_reference(graph)
    census = clique_census(graph, min_size=1)
    assert census.histogram[1] == 3


def test_budget_boundary_is_exact():
    rng = np.random.default_rng(36)
    g = random_graph(rng, 40, 0.6, name="edge")
    total = sum(1 for _ in reference_maximal_cliques(g))
    assert len(maximal_cliques(g, budget=total)) == total
    assert sum(clique_census(g, budget=total).histogram.values()) == total
    with pytest.raises(CliqueBudgetExceeded) as err:
        clique_census(g, budget=total - 1)
    assert err.value.budget == total - 1
    assert "'edge'" in str(err.value)
    with pytest.raises(CliqueBudgetExceeded):
        maximal_cliques(g, budget=total - 1)


def test_count_cliques_same_census_for_one_and_two_threads(tmp_path):
    records, _ = synth.generate_corpus(synth.two_family_config(
        n_channels=6, videos_per_channel=15, organic_commenters=30))
    channels = sorted({r.channel_id for r in records})
    by_channel = {c: [r for r in records if r.channel_id == c] for c in channels}
    censuses = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        out.mkdir()
        with RunState(PipelineConfig(out=str(out), threads=threads), channels=channels,
                      records=by_channel) as state:
            start_census(state)
            count_cliques(state)
        assert [c.channel_id for c in state.censuses] == channels
        censuses[threads] = (state.censuses, (out / "cliques.csv").read_bytes())
    assert censuses[1] == censuses[2]
    assert any(census.count for census in censuses[1][0])
    for census in censuses[1][0]:
        graph = build_co_commenter_graph(records, census.channel_id)
        expected = sum(1 for _ in reference_maximal_cliques(graph))
        assert sum(census.histogram.values()) == expected


# --- census ------------------------------------------------------------------------

def test_census_counts_and_histogram():
    g = make_graph([("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")], "ch01")
    census = clique_census(g, min_size=3)
    assert census.channel_id == "ch01"
    assert census.count == 1
    assert census.histogram == {2: 1, 3: 1}


def test_census_monotone_in_min_size():
    rng = np.random.default_rng(34)
    g = random_graph(rng, 14, 0.5)
    counts = [clique_census(g, min_size=s).count for s in range(1, 7)]
    assert counts == sorted(counts, reverse=True)
    total = len(list(maximal_cliques(g)))
    assert counts[0] == total
    census = clique_census(g, min_size=4)
    assert sum(census.histogram.values()) == total
    assert census.count == sum(v for s, v in census.histogram.items() if s >= 4)


def test_census_rejects_bad_min_size():
    with pytest.raises(ValueError):
        clique_census(Graph("g"), min_size=0)


# --- ranking ----------------------------------------------------------------------

def _census(cid, count):
    from mobgraph.cliques import CliqueCensus

    return CliqueCensus(channel_id=cid, min_size=5, count=count, histogram={})


def test_ranking_orders_by_count_then_id():
    censuses = [_census("A", 2), _census("B", 7), _census("C", 7)]
    labels = {"A": 0, "B": 1, "C": 0}
    ranking = rank_channels(censuses, labels)
    assert ranking.overall == [("B", 1, 7), ("C", 0, 7), ("A", 0, 2)]
    assert ranking.per_cluster == {
        1: [("B", 1, 7)],
        0: [("C", 0, 7), ("A", 0, 2)],
    }


def test_ranking_all_zero_is_lexicographic():
    censuses = [_census(c, 0) for c in ("zeta", "alpha", "mid")]
    ranking = rank_channels(censuses, {"zeta": 0, "alpha": 0, "mid": 0})
    assert [row[0] for row in ranking.overall] == ["alpha", "mid", "zeta"]


def test_ranking_missing_label():
    with pytest.raises(MissingLabel):
        rank_channels([_census("ch99", 1)], {})


def test_census_csv():
    censuses = [_census("b", 3), _census("a", 9), _census("c", 0)]
    buf = io.StringIO()
    write_census_csv(censuses, {"a": 1, "b": 0}, buf)
    assert buf.getvalue() == (
        "channel_id,cluster,min_size,clique_count\n"
        "a,1,5,9\n"
        "b,0,5,3\n"
        "c,-1,5,0\n"
    )
