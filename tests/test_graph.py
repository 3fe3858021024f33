import numpy as np
import pytest

from conftest import make_graph, neighbours, random_graph
from mobgraph.graph import Graph


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="distinct pairs of node positions u < v"):
        Graph("g", ["a", "b"], [0, 1], [1, 1], [1.0, 1.0])


def test_nonpositive_weight_rejected():
    for weight in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            Graph("g", ["a", "b", "c"], [0, 1], [1, 2], [1.0, weight])


@pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "1e400"])
def test_nonfinite_weight_rejected(weight):
    with pytest.raises(ValueError, match="positive and finite"):
        Graph("g", ["a", "b", "c"], [0, 1], [1, 2], [1.0, float(weight)])


@pytest.mark.parametrize("u,v", [([0, 0], [1, 1]), ([0, 1], [1, 0])])
def test_pair_given_twice_rejected(u, v):
    with pytest.raises(ValueError, match="distinct pairs of node positions u < v"):
        Graph("g", ["a", "b", "c"], [*u, 1], [*v, 2], [1.0, 3.0, 1.0])


def test_pairs_out_of_order_rejected():
    with pytest.raises(ValueError, match="in ascending order"):
        Graph("g", ["a", "b", "c"], [1, 0], [2, 1], [1.0, 1.0])


@pytest.mark.parametrize("ids", [["b", "a"], ["a", "a"]])
def test_ids_must_be_distinct_and_sorted(ids):
    with pytest.raises(ValueError, match="sorted"):
        Graph("g", ids)


@pytest.mark.parametrize("u,v", [([0], [2]), ([-1], [0])])
def test_endpoint_outside_the_nodes_rejected(u, v):
    with pytest.raises(ValueError, match="node positions"):
        Graph("g", ["a", "b"], u, v, [1.0])


def test_arrays_of_one_length_required():
    with pytest.raises(ValueError, match="one length"):
        Graph("g", ["a", "b", "c"], [0, 1], [1, 2], [1.0])


def test_edge_is_orientation_free():
    g = make_graph([("b", "a", 3.0)])
    assert neighbours(g, "a") == {"b": 3.0} and neighbours(g, "b") == {"a": 3.0}
    assert g.n_edges == 1
    assert g.edges() == [("a", "b", 3.0)]


def test_equality_ignores_insertion_order():
    g1 = make_graph([("a", "b", 1.0), ("b", "c", 2.0)], "x")
    g2 = make_graph([("c", "b", 2.0), ("b", "a", 1.0)], "x")
    assert g1 == g2
    assert g1 != make_graph([("a", "b", 1.0), ("b", "c", 3.0)], "x")
    assert g1 != make_graph([("a", "b", 1.0), ("b", "c", 2.0)], "x", nodes=["d"])


def test_degree_and_neighbors():
    g = make_graph([("a", "c"), ("a", "b")], nodes=["z"])
    assert len(neighbours(g, "a")) == 2
    assert list(neighbours(g, "a")) == ["b", "c"]
    assert len(neighbours(g, "b")) == 1
    assert neighbours(g, "z") == {}
    assert "z" not in neighbours(g, "a") and "ghost" not in neighbours(g, "a")
    with pytest.raises(KeyError):
        neighbours(g, "b")["c"]
    with pytest.raises(KeyError):
        neighbours(g, "ghost")


def test_arrays_are_read_only():
    g = make_graph([("a", "b")])
    for array in (g.indptr, g.indices, g.weights):
        with pytest.raises(ValueError):
            array[0] = 1


def test_empty_graph():
    g = Graph("empty")
    assert g.ids == () and g.n_nodes == g.n_edges == 0
    assert g.indptr.tolist() == [0] and g.indices.size == g.weights.size == 0
    assert g.edges() == []


def test_rows_hold_sorted_neighbour_positions_and_weights():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 25))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        weights = rng.integers(1, 9, size=len(pairs)).astype(float)
        ids = [f"n{i:02d}" for i in range(n)]
        g = Graph("g", ids, [i for i, _ in pairs], [j for _, j in pairs], weights)
        expected = {i: {} for i in range(n)}
        for (i, j), w in zip(pairs, weights.tolist()):
            expected[i][j] = expected[j][i] = w
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        for i in range(n):
            row = slice(g.indptr[i], g.indptr[i + 1])
            assert g.indices[row].tolist() == sorted(expected[i])
            assert g.weights[row].tolist() == [expected[i][j] for j in sorted(expected[i])]
        assert g.edges() == [(ids[i], ids[j], w) for (i, j), w in zip(pairs, weights.tolist())]


def test_random_graphs_consistent_degrees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 15)), 0.4)
        degrees = np.diff(g.indptr).tolist()
        for u, degree in zip(g.nodes(), degrees):
            assert degree == len(neighbours(g, u))
        assert sum(degrees) == 2 * g.n_edges
