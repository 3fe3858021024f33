import numpy as np
import pytest

from conftest import random_graph
from mobgraph.graph import Graph, canonical_edge


def test_canonical_edge_orders_pairs():
    assert canonical_edge("b", "a") == ("a", "b")
    assert canonical_edge("a", "b") == ("a", "b")


def test_self_loop_rejected():
    g = Graph()
    with pytest.raises(ValueError):
        g.add_edge("a", "a")


def test_nonpositive_weight_rejected():
    g = Graph()
    with pytest.raises(ValueError):
        g.add_edge("a", "b", 0.0)


def test_edge_is_orientation_free():
    g = Graph()
    g.add_edge("b", "a", 3.0)
    assert g.has_edge("a", "b")
    assert g.weight("a", "b") == 3.0
    assert g.n_edges == 1
    assert g.edges() == [("a", "b", 3.0)]


def test_equality_ignores_insertion_order():
    g1 = Graph("x")
    g1.add_edge("a", "b", 1.0)
    g1.add_edge("b", "c", 2.0)
    g2 = Graph("x")
    g2.add_edge("c", "b", 2.0)
    g2.add_edge("b", "a", 1.0)
    assert g1 == g2


def test_degree_and_neighbors():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    assert g.degree("a") == 2
    assert g.neighbors("a") == {"b", "c"}
    assert g.degree("b") == 1


def test_random_graphs_consistent_degrees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 15)), 0.4)
        for u in g.nodes():
            assert g.degree(u) == len(g.neighbors(u))
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.n_edges
