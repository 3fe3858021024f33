from collections import Counter

import numpy as np
import pytest

from conftest import permuted_copy, random_graph
from mobgraph.graph import Graph
from mobgraph.wl import (
    extract_document,
    fnv1a64,
    initial_labels,
    wl_iteration,
)


def path_graph(*names):
    g = Graph("path")
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b)
    return g


def triangle():
    g = Graph("k3")
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    return g


# --- hash ----------------------------------------------------------------------

def test_fnv1a64_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64("") == "cbf29ce484222325"
    assert fnv1a64("a") == "af63dc4c8601ec8c"
    assert fnv1a64("foobar") == "85944171f73967e8"


# --- initial labels -------------------------------------------------------------

def test_isolated_node_labeled_zero():
    g = Graph()
    g.add_node("solo")
    assert initial_labels(g) == {"solo": "0"}


def test_triangle_degree_labels():
    assert set(initial_labels(triangle()).values()) == {"2"}


def test_degree_labels_match_adjacency_scan():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 20)), 0.3)
        labels = initial_labels(g)
        for u in g.nodes():
            degree = sum(1 for v in g.nodes() if g.has_edge(u, v))
            assert labels[u] == str(degree)


# --- refinement ------------------------------------------------------------------

def test_path_endpoint_symmetry():
    g = path_graph("A", "B", "C")
    labels = wl_iteration(g, initial_labels(g))
    assert labels["A"] == labels["C"]
    assert labels["A"] != labels["B"]


def test_relabeling_commutes_with_permutation():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 15)), 0.4)
        p, mapping = permuted_copy(rng, g)
        lg = initial_labels(g)
        lp = initial_labels(p)
        for _round in range(3):
            assert all(lg[u] == lp[mapping[u]] for u in g.nodes())
            lg = wl_iteration(g, lg)
            lp = wl_iteration(p, lp)


def test_fixed_graph_golden_labels():
    # determinism across runs and platforms: pinned hash outputs
    g = path_graph("A", "B", "C")
    labels = wl_iteration(g, initial_labels(g))
    assert labels == {
        "A": fnv1a64("1|2"),
        "B": fnv1a64("2|1,1"),
        "C": fnv1a64("1|2"),
    }


def test_refinement_is_monotone():
    # partitions only ever split, never merge
    rng = np.random.default_rng(43)
    for _ in range(10):
        g = random_graph(rng, 12, 0.35)
        labels = initial_labels(g)
        for _round in range(3):
            nxt = wl_iteration(g, labels)
            blocks: dict[str, set[str]] = {}
            for u in g.nodes():
                blocks.setdefault(nxt[u], set()).add(labels[u])
            for olds in blocks.values():
                assert len(olds) == 1
            labels = nxt


def test_weight_buckets_distinguish_heavy_edges():
    light = Graph("light")
    light.add_edge("a", "b", 1.0)
    heavy = Graph("heavy")
    heavy.add_edge("a", "b", 8.0)
    plain_light = wl_iteration(light, initial_labels(light))
    plain_heavy = wl_iteration(heavy, initial_labels(heavy))
    assert plain_light == plain_heavy  # weights ignored by default
    bl = wl_iteration(light, initial_labels(light), weight_buckets=True)
    bh = wl_iteration(heavy, initial_labels(heavy), weight_buckets=True)
    assert bl["a"] != bh["a"]


# --- documents --------------------------------------------------------------------

def test_document_length_formula():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(1, 20))
        g = random_graph(rng, n, 0.3)
        for h in (0, 1, 2, 3):
            doc = extract_document(g, iterations=h)
            assert len(doc.tokens) == n * (h + 1)


def test_triangle_zero_iterations():
    doc = extract_document(triangle(), iterations=0)
    assert doc.tokens == ["0_2", "0_2", "0_2"]
    assert doc.graph_id == "k3"


def test_isomorphic_documents_equal_as_multisets():
    rng = np.random.default_rng(53)
    for _ in range(20):
        g = random_graph(rng, 10, 0.4)
        p, _ = permuted_copy(rng, g)
        for h in (0, 1, 2):
            assert Counter(extract_document(g, h).tokens) == Counter(
                extract_document(p, h).tokens
            )


def test_document_deterministic():
    rng = np.random.default_rng(59)
    g = random_graph(rng, 9, 0.5)
    assert extract_document(g, 2).tokens == extract_document(g, 2).tokens


def test_iteration_prefix_prevents_cross_round_collisions():
    g = triangle()
    doc = extract_document(g, iterations=2)
    assert all(doc.tokens[i].startswith("0_") for i in range(3))
    assert all(doc.tokens[i].startswith("1_") for i in range(3, 6))
    assert all(doc.tokens[i].startswith("2_") for i in range(6, 9))


def test_negative_iterations_rejected():
    with pytest.raises(ValueError):
        extract_document(triangle(), iterations=-1)
