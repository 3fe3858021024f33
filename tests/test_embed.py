import io
import itertools

import numpy as np
import pytest

from conftest import make_graph
from mobgraph import embed
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
from mobgraph.seeding import rng_for
from mobgraph.wl import GraphDocument, extract_document


def doc(gid, tokens):
    return GraphDocument(graph_id=gid, tokens=list(tokens))


def cycle_graph(n, name):
    return make_graph([(f"v{i}", f"v{(i + 1) % n}") for i in range(n)], name)


def star_graph(n_leaves, name):
    return make_graph([("hub", f"leaf{i}") for i in range(n_leaves)], name)


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
    # The history comes from the reference trainer, which trains the same
    # vectors bit for bit; the objective is only evaluated there, never fed back.
    documents, vocab = small_corpus()
    history: list[float] = []
    ref = reference_train_embeddings(documents, vocab, dim=16, seed=2, epochs=8,
                                     objective_out=history)
    ours = train_embeddings(documents, vocab, dim=16, seed=2, epochs=8)
    assert ours.vectors.tobytes() == ref.vectors.tobytes()
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


def reference_train_embeddings(documents, vocab, dim, initial_lr=0.025, epochs=10,
                               negative=5, seed=0, objective_out=None):
    """The lockstep trainer as plain loops over steps, documents and slots:
    one noise uniform per random() call, one pair_gradients call per update,
    and each token's gradients of a step summed in a dict before any vector
    moves. Slow, but each step is plainly the algorithm."""
    ids = [d.graph_id for d in documents]
    final_lr = initial_lr / 100.0
    docvecs = np.empty((len(documents), dim))
    for i, gid in enumerate(ids):
        docvecs[i] = rng_for(seed, "doc", gid).uniform(-0.5 / dim, 0.5 / dim, dim)
    tokenvecs = rng_for(seed, "tokens").uniform(-0.5 / dim, 0.5 / dim, (len(vocab), dim))
    kept = [[vocab.index[t] for t in d.tokens if t in vocab.index] for d in documents]
    order = sorted(range(len(documents)), key=lambda i: ids[i])
    n_steps = max(len(k) for k in kept)
    total_steps = epochs * n_steps
    pairs_per_epoch = sum(len(k) for k in kept)
    noise_rng = rng_for(seed, "noise")
    cum = _noise_cumulative(vocab)
    total_mass = float(cum[-1])

    def draw():
        return int(np.searchsorted(cum, noise_rng.random() * total_mass, side="right"))

    if len(vocab) == 1:
        negative = 0
    labels = np.zeros(1 + negative)
    labels[0] = 1.0
    # Noise is drawn for a block of steps at a time: as many steps as keep
    # the block within NOISE_BLOCK updates when every document takes part.
    block = max(1, embed.NOISE_BLOCK // max(1, sum(1 for k in kept if k)))
    step = 0
    for _epoch in range(epochs):
        epoch_objective = 0.0
        for first in range(0, n_steps, block):
            step_units = [[(di, kept[di][s]) for di in order if len(kept[di]) > s]
                          for s in range(first, min(first + block, n_steps))]
            units = [unit for in_step in step_units for unit in in_step]
            negs = [[draw() for _ in range(negative)] for _ in units]
            # Draws equal to their unit's token are drawn again, in unit and
            # slot order, after all the first draws; and again, until none is.
            redo = [(u, j) for u, (_, w) in enumerate(units) for j in range(negative)
                    if negs[u][j] == w]
            while redo:
                for u, j in redo:
                    negs[u][j] = draw()
                redo = [(u, j) for u, j in redo if negs[u][j] == units[u][1]]
            u = 0
            for in_step in step_units:
                if total_steps > 1:
                    lr = initial_lr + (final_lr - initial_lr) * (step / (total_steps - 1))
                else:
                    lr = initial_lr
                moved_docs = {}
                token_sums = {}
                for di, w in in_step:
                    idx = [w] + negs[u]
                    u += 1
                    rows = tokenvecs[idx]
                    if objective_out is not None:
                        epoch_objective += pair_objective(docvecs[di], rows, labels)
                    grad_doc, grad_tokens = pair_gradients(docvecs[di], rows, labels)
                    moved_docs[di] = docvecs[di] + grad_doc * lr
                    for token, grad in zip(idx, grad_tokens * lr):
                        token_sums[token] = token_sums.get(token, np.zeros(dim)) + grad
                for di, vec in moved_docs.items():
                    docvecs[di] = vec
                for token, total in token_sums.items():
                    tokenvecs[token] += total
                step += 1
        if objective_out is not None:
            objective_out.append(epoch_objective / max(1, pairs_per_epoch))
    return EmbeddingMatrix(graph_ids=ids, vectors=docvecs)


def wl_corpus():
    return [extract_document(cycle_graph(12, f"cyc{i}"), 2) for i in range(10)] + [
        extract_document(star_graph(12, f"star{i}"), 2) for i in range(10)
    ]


REFERENCE_CASES = {
    # (documents, min_count, negative, epochs)
    "three tokens, negatives always repeat": (small_corpus()[0], 2, 5, 4),
    "three tokens, negatives sometimes repeat": (small_corpus()[0], 2, 2, 4),
    "two tokens, one negative": (
        [doc("g0", ["a", "b"] * 4), doc("g1", ["b", "b", "a"] * 3)], 2, 1, 5),
    "two tokens, negatives repeat": (
        [doc("g0", ["a", "b"] * 4), doc("g1", ["b", "b", "a"] * 3)], 2, 3, 5),
    "single token": ([doc("a", ["t"] * 6), doc("b", ["t"] * 6)], 5, 5, 3),
    "draws refill the buffer": (wl_corpus(), 5, 5, 3),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_matches_one_draw_per_call_reference(case, monkeypatch):
    documents, min_count, negative, epochs = REFERENCE_CASES[case]
    vocab = build_vocabulary(documents, min_count=min_count)
    if case == "draws refill the buffer":
        # 20 documents: blocks of 5 steps, several to an epoch.
        monkeypatch.setattr(embed, "NOISE_BLOCK", 100)
        longest = max(sum(t in vocab.index for t in d.tokens) for d in documents)
        assert longest > 3 * 5
    ours = train_embeddings(documents, vocab, dim=8, epochs=epochs, negative=negative,
                            seed=6)
    ref_objective = []
    ref = reference_train_embeddings(documents, vocab, dim=8, epochs=epochs,
                                     negative=negative, seed=6,
                                     objective_out=ref_objective)
    assert ours.graph_ids == ref.graph_ids
    assert ours.vectors.tobytes() == ref.vectors.tobytes()
    assert len(ref_objective) == epochs
    # The objective is evaluated, never fed back: leaving it out changes nothing.
    quiet = reference_train_embeddings(documents, vocab, dim=8, epochs=epochs,
                                       negative=negative, seed=6)
    assert quiet.vectors.tobytes() == ref.vectors.tobytes()


def replay_single_token(documents, dim, epochs, seed):
    """Lockstep training by hand on a one-token vocabulary (no noise): each
    step moves its documents and the token from the step's start, the token
    by the sum of the step's gradients."""
    lengths = {d.graph_id: len(d.tokens) for d in documents}
    docvecs = {gid: rng_for(seed, "doc", gid).uniform(-0.5 / dim, 0.5 / dim, dim)
               for gid in lengths}
    token = rng_for(seed, "tokens").uniform(-0.5 / dim, 0.5 / dim, (1, dim))
    n_steps = max(lengths.values())
    total_steps = epochs * n_steps
    lr0, lr1 = 0.025, 0.025 / 100.0
    for step in range(total_steps):
        lr = lr0 + (lr1 - lr0) * (step / (total_steps - 1))
        total = np.zeros(dim)
        moved = {}
        for gid in sorted(lengths):
            if lengths[gid] > step % n_steps:
                grad_doc, grad_token = pair_gradients(docvecs[gid], token, np.ones(1))
                moved[gid] = docvecs[gid] + grad_doc * lr
                total = total + grad_token[0] * lr
        docvecs.update(moved)
        token = token + total
    return docvecs


def test_shorter_documents_drop_out_of_later_steps():
    # "b" takes part in step 0 of each epoch only; "a" in all three steps.
    documents = [doc("b", ["t"]), doc("a", ["t"] * 3)]
    vocab = build_vocabulary(documents, min_count=4)
    matrix = train_embeddings(documents, vocab, dim=4, epochs=2, seed=8)
    expected = replay_single_token(documents, dim=4, epochs=2, seed=8)
    for gid, row in zip(matrix.graph_ids, matrix.vectors):
        assert row.tobytes() == expected[gid].tobytes(), gid


def test_token_shared_in_a_step_moves_by_the_summed_gradient():
    # Both documents update token "t" in each step from the same start; the
    # second step sees the row moved by both gradients of the first.
    documents = [doc("a", ["t"]), doc("b", ["t"])]
    vocab = build_vocabulary(documents, min_count=2)
    matrix = train_embeddings(documents, vocab, dim=4, epochs=2, seed=8)
    expected = replay_single_token(documents, dim=4, epochs=2, seed=8)
    for gid, row in zip(matrix.graph_ids, matrix.vectors):
        assert row.tobytes() == expected[gid].tobytes(), gid


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
