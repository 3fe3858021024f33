from collections import Counter

import numpy as np
import pytest

from conftest import make_graph, neighbours, permuted_copy, random_graph
from mobgraph.graph import Graph
from mobgraph.wl import (
    _FNV_OFFSET,
    _FNV_PRIME,
    _NeighbourIndex,
    _part_tables,
    extract_document,
    initial_labels,
)

_MASK64 = (1 << 64) - 1


def path_graph(*names, isolated=()):
    return make_graph(zip(names, names[1:]), "path", nodes=isolated)


def triangle():
    return make_graph([("a", "b"), ("b", "c"), ("a", "c")], "k3")


def wl_iteration(graph, labels):
    """One refinement round of the vectorised index, on and to a dict of
    labels by node id."""
    return dict(zip(graph.ids, _NeighbourIndex(graph).refine([labels[u] for u in graph.ids])))


# --- hash ----------------------------------------------------------------------

def fnv1a64_from(state: int, data: bytes) -> int:
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & _MASK64
    return state


def fnv1a64(text: str) -> str:
    """64-bit FNV-1a of the UTF-8 bytes, as 16 hex digits: the per-byte
    reference for the vectorised hash."""
    return f"{fnv1a64_from(_FNV_OFFSET, text.encode('utf-8')):016x}"


def test_fnv1a64_reference_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64("") == "cbf29ce484222325"
    assert fnv1a64("a") == "af63dc4c8601ec8c"
    assert fnv1a64("foobar") == "85944171f73967e8"


def test_part_table_folds_a_chunk_from_any_state():
    # FNV-1a over chunk c from state h == h * P**len(c) + T_c[h & 255]
    rng = np.random.default_rng(61)
    chunks = ["", "0", "7", "|", "~-3", "héllo", "0123456789abcdef", "fedcba9876543210~2"]
    chunks += ["".join(rng.choice(list("0123456789abcdef~,|-"), int(rng.integers(1, 25))))
               for _ in range(40)]
    tables, powers, row_of_rank = _part_tables(chunks)
    assert tables.dtype == powers.dtype == np.uint64
    for rank, chunk in enumerate(chunks):
        data = chunk.encode("utf-8")
        row = row_of_rank[rank]
        table, power = tables[row].tolist(), int(powers[row])
        assert power == pow(_FNV_PRIME, len(data), 1 << 64)
        for high in rng.integers(0, 1 << 56, size=3, dtype=np.uint64).tolist():
            for low in range(256):
                h = (high << 8) | low
                folded = (h * power + table[low]) & _MASK64
                assert folded == fnv1a64_from(h, data)


# --- initial labels -------------------------------------------------------------

def test_isolated_node_labeled_zero():
    g = make_graph(nodes=["solo"])
    assert initial_labels(g) == {"solo": "0"}


def test_triangle_degree_labels():
    assert set(initial_labels(triangle()).values()) == {"2"}


def test_degree_labels_match_adjacency_scan():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 20)), 0.3)
        labels = initial_labels(g)
        for u in g.nodes():
            degree = sum(1 for v in g.nodes() if v in neighbours(g, u))
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


def test_edge_weights_do_not_enter_the_labels():
    light = make_graph([("a", "b", 1.0)], "light")
    heavy = make_graph([("a", "b", 8.0)], "heavy")
    assert wl_iteration(light, initial_labels(light)) == wl_iteration(
        heavy, initial_labels(heavy))


def reference_wl_iteration(graph, labels):
    """The per-byte, string-join round the vectorised one must match."""
    new_labels = {}
    for v in graph.nodes():
        parts = sorted(labels[u] for u in neighbours(graph, v))
        new_labels[v] = fnv1a64(labels[v] + "|" + ",".join(parts))
    return new_labels


def reference_document(graph, iterations):
    nodes = graph.nodes()
    labels = initial_labels(graph)
    tokens = [f"0_{labels[v]}" for v in nodes]
    for t in range(1, iterations + 1):
        labels = reference_wl_iteration(graph, labels)
        tokens.extend(f"{t}_{labels[v]}" for v in nodes)
    return tokens


def edge_cases():
    empty = Graph("empty")
    single = make_graph(name="single", nodes=["only"])
    isolated = path_graph("A", "B", "C", "D", isolated=["Z"])
    mixed = make_graph(  # fractional weights
        [(f"m{i}", f"m{(i * 3 + 1) % 8}", w)
         for i, w in enumerate([0.25, 0.3, 1.0, 1.9999, 2.0, 3.5, 1024.0, 1e-9])],
        "mixed")
    return [empty, single, isolated, triangle(), mixed]


def test_documents_match_the_per_byte_reference():
    rng = np.random.default_rng(67)
    graphs = edge_cases()
    for _ in range(200):
        n = int(rng.integers(0, 30))
        graphs.append(random_graph(rng, n, float(rng.random()),
                                   max_weight=int(rng.integers(1, 12))))
    for g in graphs:
        for h in (0, 1, 2, 3):
            assert extract_document(g, h).tokens == reference_document(g, h)


def test_iteration_matches_the_reference_on_any_labels():
    # labels of mixed lengths, empty and non-ASCII ones included
    rng = np.random.default_rng(71)
    pool = ["", "a", "ab", "é", "日本", "9", "10", "zz~", "0123456789abcdef"]
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(1, 25)), 0.4, max_weight=9)
        labels = {u: str(rng.choice(pool)) for u in g.nodes()}
        assert wl_iteration(g, labels) == reference_wl_iteration(g, labels)


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
