import io
import itertools

import numpy as np
import pytest

from mobgraph.embed import (
    EmbeddingMatrix,
    Vocabulary,
    _noise_cumulative,
    build_vocabulary,
    cosine_similarity,
    pair_gradients,
    pair_objective,
    read_embeddings_csv,
    train_embeddings,
    write_embeddings_csv,
)
from mobgraph.errors import EmptyVocabulary, ZeroVector
from mobgraph.graph import Graph
from mobgraph.wl import GraphDocument, extract_document


def doc(gid, tokens):
    return GraphDocument(graph_id=gid, tokens=list(tokens))


def cycle_graph(n, name):
    g = Graph(name)
    ids = [f"v{i}" for i in range(n)]
    for i in range(n):
        g.add_edge(ids[i], ids[(i + 1) % n])
    return g


def star_graph(n_leaves, name):
    g = Graph(name)
    for i in range(n_leaves):
        g.add_edge("hub", f"leaf{i}")
    return g


# --- vocabulary -----------------------------------------------------------------

def test_min_count_boundary():
    documents = [doc("a", ["x"] * 4 + ["y"] * 5)]
    vocab = build_vocabulary(documents, min_count=5)
    assert "x" not in vocab.index
    assert "y" in vocab.index
    assert vocab.counts["y"] == 5


def test_duplicated_documents_frequency_oracle():
    base = ["t1", "t2", "t2", "t3", "t3", "t3"]
    documents = [doc(f"g{i}", base) for i in range(20)]
    vocab = build_vocabulary(documents, min_count=5)
    per_doc = {"t1": 1, "t2": 2, "t3": 3}
    for token, count in per_doc.items():
        assert vocab.counts[token] == 20 * count
    assert sorted(vocab.index.values()) == list(range(len(vocab)))


def test_empty_vocabulary_error():
    documents = [doc("a", ["rare1", "rare2"])]
    with pytest.raises(EmptyVocabulary):
        build_vocabulary(documents, min_count=5)


def test_noise_table_is_three_quarter_power():
    vocab = build_vocabulary([doc("a", ["x"] * 8 + ["y"] * 27)], min_count=1)
    cum = _noise_cumulative(vocab)
    freqs = np.zeros(2)
    freqs[vocab.index["x"]] = 8 ** 0.75
    freqs[vocab.index["y"]] = 27 ** 0.75
    assert np.allclose(cum, np.cumsum(freqs), rtol=0, atol=1e-12)


# --- training --------------------------------------------------------------------

def small_corpus():
    documents = [
        doc("g0", ["a", "a", "b"] * 3),
        doc("g1", ["b", "c", "c"] * 3),
        doc("g2", ["a", "c", "c"] * 3),
    ]
    vocab = build_vocabulary(documents, min_count=2)
    return documents, vocab


def test_output_shape_default_dim():
    documents, vocab = small_corpus()
    matrix = train_embeddings(documents, vocab, seed=1, epochs=2)
    assert matrix.vectors.shape == (3, 128)
    assert matrix.graph_ids == ["g0", "g1", "g2"]
    assert np.isfinite(matrix.vectors).all()


def test_seeded_determinism():
    documents, vocab = small_corpus()
    m1 = train_embeddings(documents, vocab, dim=16, seed=9)
    m2 = train_embeddings(documents, vocab, dim=16, seed=9)
    assert np.array_equal(m1.vectors, m2.vectors)
    m3 = train_embeddings(documents, vocab, dim=16, seed=10)
    assert not np.array_equal(m1.vectors, m3.vectors)


def test_permutation_consistency():
    documents, vocab = small_corpus()
    base = train_embeddings(documents, vocab, dim=16, seed=4)
    perm = [documents[2], documents[0], documents[1]]
    other = train_embeddings(perm, vocab, dim=16, seed=4)
    by_id_base = dict(zip(base.graph_ids, base.vectors))
    by_id_other = dict(zip(other.graph_ids, other.vectors))
    for gid in by_id_base:
        assert np.array_equal(by_id_base[gid], by_id_other[gid]), gid


def test_objective_ascends():
    documents, vocab = small_corpus()
    history: list[float] = []
    train_embeddings(documents, vocab, dim=16, seed=2, epochs=8,
                     objective_out=history)
    assert len(history) == 8
    dips = [max(0.0, history[i] - history[i + 1]) for i in range(len(history) - 1)]
    real_dips = [d for d in dips if d > 0]
    assert len(real_dips) <= 1
    assert all(d < 1e-3 for d in real_dips)


def test_oov_only_document_keeps_init_and_warns(caplog):
    documents = [
        doc("common", ["t"] * 10),
        doc("oov", ["never-seen-once"]),
    ]
    vocab = build_vocabulary(documents, min_count=5)
    with caplog.at_level("WARNING", logger="mobgraph.embed"):
        matrix = train_embeddings(documents, vocab, dim=8, seed=3, epochs=2)
    assert any("no in-vocabulary tokens" in m for m in caplog.messages)
    dim = 8
    from mobgraph.seeding import rng_for
    expected = rng_for(3, "doc", "oov").uniform(-0.5 / dim, 0.5 / dim, dim)
    row = matrix.vectors[matrix.graph_ids.index("oov")]
    assert np.array_equal(row, expected)


def test_family_separation_over_seeds():
    documents = []
    for i in range(10):
        documents.append(extract_document(cycle_graph(12, f"cyc{i}"), 2))
    for i in range(10):
        documents.append(extract_document(star_graph(12, f"star{i}"), 2))
    vocab = build_vocabulary(documents, min_count=5)
    wins = 0
    for seed in range(10):
        matrix = train_embeddings(documents, vocab, dim=32, seed=seed, epochs=10)
        vecs = matrix.vectors
        intra, inter = [], []
        for i, j in itertools.combinations(range(20), 2):
            sim = cosine_similarity(vecs[i], vecs[j])
            same = (i < 10) == (j < 10)
            (intra if same else inter).append(sim)
        if np.mean(intra) > np.mean(inter):
            wins += 1
    assert wins >= 9, f"separation held for only {wins}/10 seeds"


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(20):
        dim = 6
        rows = 1 + 4
        doc_vec = rng.normal(0, 0.8, dim)
        token_vecs = rng.normal(0, 0.8, (rows, dim))
        labels = np.zeros(rows)
        labels[0] = 1.0
        grad_doc, grad_tokens = pair_gradients(doc_vec, token_vecs, labels)
        h = 1e-6

        def rel_err(analytic, numeric):
            scale = max(abs(analytic), abs(numeric), 1e-8)
            return abs(analytic - numeric) / scale

        for t in range(dim):
            bumped = doc_vec.copy()
            bumped[t] += h
            plus = pair_objective(bumped, token_vecs, labels)
            bumped[t] -= 2 * h
            minus = pair_objective(bumped, token_vecs, labels)
            assert rel_err(grad_doc[t], (plus - minus) / (2 * h)) < 1e-5
        for r in range(rows):
            for t in range(dim):
                bumped = token_vecs.copy()
                bumped[r, t] += h
                plus = pair_objective(doc_vec, bumped, labels)
                bumped[r, t] -= 2 * h
                minus = pair_objective(doc_vec, bumped, labels)
                assert rel_err(grad_tokens[r, t], (plus - minus) / (2 * h)) < 1e-5


def test_single_token_vocabulary_trains_without_negatives():
    documents = [doc("a", ["t"] * 6), doc("b", ["t"] * 6)]
    vocab = build_vocabulary(documents, min_count=5)
    assert len(vocab) == 1
    matrix = train_embeddings(documents, vocab, dim=8, seed=1, epochs=3)
    assert np.isfinite(matrix.vectors).all()


def test_duplicate_graph_ids_rejected():
    documents = [doc("same", ["t"] * 5), doc("same", ["t"] * 5)]
    vocab = build_vocabulary(documents, min_count=5)
    with pytest.raises(ValueError):
        train_embeddings(documents, vocab, dim=8, seed=0)


# --- cosine -----------------------------------------------------------------------

def test_cosine_identity_and_antipodal():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-15)
    assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-15)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_cosine_matches_extended_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.normal(0, 2, 10)
        b = rng.normal(0, 2, 10)
        ours = cosine_similarity(a, b)
        am = [mpmath.mpf(float(x)) for x in a]
        bm = [mpmath.mpf(float(x)) for x in b]
        dot = mpmath.fsum(x * y for x, y in zip(am, bm))
        na = mpmath.sqrt(mpmath.fsum(x * x for x in am))
        nb = mpmath.sqrt(mpmath.fsum(x * x for x in bm))
        assert abs(ours - float(dot / (na * nb))) < 1e-12


# --- persistence ------------------------------------------------------------------

def test_embeddings_csv_round_trip():
    matrix = EmbeddingMatrix(
        graph_ids=["a", "b"],
        vectors=np.array([[0.125, -1.5, 3.0], [2.0, 0.1, -0.25]]),
    )
    buf = io.StringIO()
    write_embeddings_csv(matrix, buf)
    text = buf.getvalue()
    assert text.startswith("graph_id,e0,e1,e2\n")
    back = read_embeddings_csv(io.StringIO(text))
    assert back.graph_ids == matrix.graph_ids
    assert np.array_equal(back.vectors, matrix.vectors)
