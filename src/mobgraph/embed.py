"""Distributed bag-of-words embedding of graph documents.

Each graph gets one trainable vector; every retained token of its document
pulls that vector toward the token's output vector and away from noise
tokens sampled from the unigram distribution raised to 3/4. No context
windows: WL tokens are order-insignificant within a document.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyVocabulary, NonFiniteUpdate, ZeroVector
from .seeding import rng_for
from .textio import TextTarget, read_id_table, write_id_table
from .wl import GraphDocument

logger = logging.getLogger(__name__)


@dataclass
class Vocabulary:
    """Tokens with corpus frequency >= min_count, densely indexed."""

    index: dict[str, int]
    counts: dict[str, int]

    def __len__(self) -> int:
        return len(self.index)


@dataclass
class EmbeddingMatrix:
    graph_ids: list[str]
    vectors: np.ndarray  # (n_graphs, dim), float64

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def build_vocabulary(
    documents: Sequence[GraphDocument], min_count: int = 5
) -> Vocabulary:
    """Count tokens across the corpus and keep those seen >= min_count times."""
    if not documents:
        raise ValueError("documents must be non-empty")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts: dict[str, int] = {}
    for doc in documents:
        for token in doc.tokens:
            counts[token] = counts.get(token, 0) + 1
    retained = {t: c for t, c in counts.items() if c >= min_count}
    if not retained:
        raise EmptyVocabulary(min_count)
    index = {t: i for i, t in enumerate(sorted(retained))}
    return Vocabulary(index=index, counts=retained)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pair_objective(
    doc_vec: np.ndarray, token_vecs: np.ndarray, labels: np.ndarray
) -> float:
    """log-likelihood of one (document, token, negatives) update unit.

    labels holds 1 for the observed token and 0 for each noise token; the
    objective is sum of log sigma(f) for positives and log sigma(-f) for
    negatives, f = token_vecs @ doc_vec.
    """
    f = token_vecs @ doc_vec
    signs = np.where(labels > 0, 1.0, -1.0)
    return float(-np.logaddexp(0.0, -signs * f).sum())


def pair_gradients(
    doc_vec: np.ndarray, token_vecs: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascent gradients of pair_objective wrt doc_vec and token_vecs."""
    err = labels - _sigmoid(token_vecs @ doc_vec)
    grad_doc = err @ token_vecs
    grad_tokens = np.outer(err, doc_vec)
    return grad_doc, grad_tokens


def _noise_cumulative(vocab: Vocabulary) -> np.ndarray:
    freqs = np.zeros(len(vocab), dtype=np.float64)
    for token, idx in vocab.index.items():
        freqs[idx] = vocab.counts[token]
    return np.cumsum(freqs ** 0.75)


def train_embeddings(
    documents: Sequence[GraphDocument],
    vocab: Vocabulary,
    dim: int = 128,
    initial_lr: float = 0.025,
    epochs: int = 10,
    negative: int = 5,
    seed: int = 0,
    objective_out: list[float] | None = None,
) -> EmbeddingMatrix:
    """Train one vector per document; rows follow the input document order.

    Bit-reproducible for a fixed seed: document vectors are seeded per graph
    id, noise draws follow a canonical order sorted by graph id, and updates
    run single-threaded. Reordering the input therefore only permutes rows.
    objective_out, when given a list, receives the per-epoch mean objective
    evaluated at pre-update parameters.
    """
    if not documents:
        raise ValueError("documents must be non-empty")
    if len(vocab) == 0:
        raise ValueError("vocabulary must be non-empty")
    ids = [doc.graph_id for doc in documents]
    if len(set(ids)) != len(ids):
        raise ValueError("graph ids must be unique")

    n_docs = len(documents)
    final_lr = initial_lr / 100.0
    docvecs = np.empty((n_docs, dim), dtype=np.float64)
    for i, gid in enumerate(ids):
        docvecs[i] = rng_for(seed, "doc", gid).uniform(-0.5 / dim, 0.5 / dim, dim)
    tokenvecs = rng_for(seed, "tokens").uniform(
        -0.5 / dim, 0.5 / dim, (len(vocab), dim)
    )

    token_ids: list[np.ndarray] = []
    for doc in documents:
        kept = [vocab.index[t] for t in doc.tokens if t in vocab.index]
        if not kept:
            logger.warning(
                "document %r has no in-vocabulary tokens; its vector keeps "
                "the seeded initialization",
                doc.graph_id,
            )
        token_ids.append(np.array(kept, dtype=np.int64))

    # Canonical schedule sorted by graph id: noise draws do not depend on
    # the order documents were passed in.
    order = sorted(range(n_docs), key=lambda i: ids[i])
    pairs_per_epoch = sum(len(token_ids[i]) for i in order)
    total_updates = epochs * pairs_per_epoch
    noise_rng = rng_for(seed, "noise")
    cum = _noise_cumulative(vocab)
    total_mass = float(cum[-1])
    labels = np.zeros(1 + negative, dtype=np.float64)
    labels[0] = 1.0
    single_token = len(vocab) == 1

    update = 0
    for epoch in range(epochs):
        epoch_objective = 0.0
        for di in order:
            for w in token_ids[di]:
                if total_updates > 1:
                    lr = initial_lr + (final_lr - initial_lr) * (
                        update / (total_updates - 1)
                    )
                else:
                    lr = initial_lr
                if single_token:
                    idx = np.array([w], dtype=np.int64)
                    lab = labels[:1]
                else:
                    negs: list[int] = []
                    while len(negs) < negative:
                        draw = int(
                            np.searchsorted(
                                cum, noise_rng.random() * total_mass, side="right"
                            )
                        )
                        if draw != w:
                            negs.append(draw)
                    idx = np.array([w] + negs, dtype=np.int64)
                    lab = labels
                rows = tokenvecs[idx]
                v_old = docvecs[di].copy()
                if objective_out is not None:
                    epoch_objective += pair_objective(v_old, rows, lab)
                grad_doc, grad_tokens = pair_gradients(v_old, rows, lab)
                np.add.at(tokenvecs, idx, lr * grad_tokens)
                docvecs[di] += lr * grad_doc
                update += 1
        if objective_out is not None:
            objective_out.append(epoch_objective / max(1, pairs_per_epoch))
        if not np.isfinite(docvecs).all() or not np.isfinite(tokenvecs).all():
            raise NonFiniteUpdate(
                f"non-finite parameters after epoch {epoch} "
                f"(lr={initial_lr}, dim={dim})"
            )
    return EmbeddingMatrix(graph_ids=list(ids), vectors=docvecs)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector()
    return float(np.dot(a, b) / (na * nb))


# --- export / import ----------------------------------------------------------

def write_embeddings_csv(matrix: EmbeddingMatrix, sink: TextTarget) -> None:
    """CSV with header graph_id,e0..e{dim-1}; floats via repr for round-trip."""
    write_id_table(matrix.graph_ids, matrix.vectors, "e", sink)


def read_embeddings_csv(source: TextTarget) -> EmbeddingMatrix:
    ids, vectors = read_id_table(source, "embedding")
    return EmbeddingMatrix(graph_ids=ids, vectors=vectors)
