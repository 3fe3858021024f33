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
from .seeding import buffered_draws, rng_for
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
    f = token_vecs @ doc_vec
    # sigma(f) as 1/(1 + e^-f) for f >= 0 and e^f/(1 + e^f) below: one
    # exp that cannot overflow. np.exp, not math.exp: the two may differ in
    # the last bit, and the rest is the same IEEE operations on floats.
    e = np.exp(-np.abs(f))
    err = labels - [
        (1.0 if x >= 0 else y) / (1.0 + y) for x, y in zip(f.tolist(), e.tolist())
    ]
    return err @ token_vecs, np.multiply.outer(err, doc_vec)


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
) -> EmbeddingMatrix:
    """Train one vector per document; rows follow the input document order.

    Bit-reproducible for a fixed seed: document vectors are seeded per graph
    id, noise draws follow a canonical order sorted by graph id, and updates
    run single-threaded. Reordering the input therefore only permutes rows.
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

    token_ids: list[list[int]] = []
    for doc in documents:
        kept = [vocab.index[t] for t in doc.tokens if t in vocab.index]
        if not kept:
            logger.warning(
                "document %r has no in-vocabulary tokens; its vector keeps "
                "the seeded initialization",
                doc.graph_id,
            )
        token_ids.append(kept)

    # Canonical schedule sorted by graph id: noise draws do not depend on
    # the order documents were passed in.
    order = sorted(range(n_docs), key=lambda i: ids[i])
    pairs_per_epoch = sum(len(token_ids[i]) for i in order)
    total_updates = epochs * pairs_per_epoch
    noise_rng = rng_for(seed, "noise")
    cum = _noise_cumulative(vocab)
    total_mass = float(cum[-1])
    noise = buffered_draws(
        lambda k: np.searchsorted(
            cum, noise_rng.random(k) * total_mass, side="right"
        ).tolist()
    ).__next__
    if len(vocab) == 1:
        negative = 0  # no token other than the positive one to draw as noise
    labels = np.zeros(1 + negative, dtype=np.float64)
    labels[0] = 1.0
    lr_span = final_lr - initial_lr
    doc_rows = list(docvecs)  # row views: updating one updates docvecs
    # An epoch's updates in order: the document vector and the kept token.
    update_docs = [doc_rows[di] for di in order for _ in token_ids[di]]
    update_tokens = [w for di in order for w in token_ids[di]]

    update = 0
    for epoch in range(epochs):
        # The epoch's noise draws do not depend on the vectors, so they are
        # taken up front: row p holds update p's token and its negatives,
        # from the same stream in the same order, rejecting the token itself.
        flat: list[int] = []
        distinct: list[bool] = []
        for w in update_tokens:
            flat.append(w)
            negs: list[int] = []
            while len(negs) < negative:
                draw = noise()
                if draw != w:
                    negs.append(draw)
            flat.extend(negs)
            distinct.append(len(set(negs)) == negative)
        rows_idx = list(np.array(flat).reshape(-1, 1 + negative))
        for doc_vec, idx, unique in zip(update_docs, rows_idx, distinct):
            if total_updates > 1:
                lr = initial_lr + lr_span * (update / (total_updates - 1))
            else:
                lr = initial_lr
            rows = tokenvecs[idx]
            grad_doc, grad_tokens = pair_gradients(doc_vec, rows, labels)
            grad_tokens *= lr
            if unique:
                grad_tokens += rows
                tokenvecs[idx] = grad_tokens
            else:  # a repeated row must take its updates one after another
                for token, grad in zip(idx.tolist(), grad_tokens):
                    tokenvecs[token] += grad
            grad_doc *= lr
            doc_vec += grad_doc
            update += 1
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
