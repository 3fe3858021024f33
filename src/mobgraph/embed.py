"""Distributed bag-of-words embedding of graph documents.

Each graph gets one trainable vector; every retained token of its document
pulls that vector toward the token's output vector and away from noise
tokens sampled from the unigram distribution raised to 3/4. No context
windows: WL tokens are order-insignificant within a document.

Documents train in lockstep, one numpy pass per token position: every
update of a step is computed from the vectors at the step's start (as in
Hogwild, Recht et al. 2011), so a step's work is batched over documents.
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
    """Ascent gradients of pair_objective wrt doc_vec and token_vecs.

    Batched over leading axes: doc_vec (..., dim) with token_vecs
    (..., rows, dim) gives one unit's gradients per leading index, the same
    bits as one call per unit. The products are np.einsum without optimize,
    so no BLAS kernel, which OpenBLAS picks per CPU, takes part.
    """
    f = np.einsum("...rd,...d->...r", token_vecs, doc_vec)
    # sigma(f) as 1/(1 + e^-f) for f >= 0 and e^f/(1 + e^f) below: one
    # exp that cannot overflow.
    e = np.exp(-np.abs(f))
    err = labels - np.where(f >= 0, 1.0, e) / (1.0 + e)
    grad_doc = np.einsum("...r,...rd->...d", err, token_vecs)
    return grad_doc, np.einsum("...r,...d->...rd", err, doc_vec)


def _noise_cumulative(vocab: Vocabulary) -> np.ndarray:
    freqs = np.zeros(len(vocab), dtype=np.float64)
    for token, idx in vocab.index.items():
        freqs[idx] = vocab.counts[token]
    return np.cumsum(freqs ** 0.75)


# Noise is drawn for a block of steps at a time, at most this many updates
# when every document takes part: a block's arrays stay within a few MB
# whatever the corpus size.
NOISE_BLOCK = 4096


def _draw_noise(
    rng: np.random.Generator, cum: np.ndarray, positives: np.ndarray, negative: int
) -> np.ndarray:
    """negative noise ids per positive, one uniform per draw in row order; a
    draw equal to its row's positive is drawn again, the rejected draws
    taking the next uniforms in row order, until no draw equals it."""
    total_mass = float(cum[-1])
    draws = np.searchsorted(
        cum, rng.random((positives.size, negative)) * total_mass, side="right"
    )
    flat = draws.reshape(-1)
    owner = np.repeat(positives, negative)
    redo = np.flatnonzero(flat == owner)
    while redo.size:
        flat[redo] = np.searchsorted(
            cum, rng.random(redo.size) * total_mass, side="right"
        )
        redo = redo[flat[redo] == owner[redo]]
    return draws


def _step_rows(
    table: np.ndarray, step_sizes: np.ndarray, n_tokens: int
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """(rows, starts, place) for a block of steps: step i's distinct token
    rows are rows[starts[i]:starts[i + 1]], ascending, and place[k] is slot
    k's index among its step's rows.

    table holds the block's updates, a row of token ids each, step after
    step; step_sizes the number of updates in each step.
    """
    slot_step = np.repeat(np.arange(step_sizes.size), step_sizes * table.shape[1])
    rows, place = np.unique(
        slot_step * n_tokens + table.reshape(-1), return_inverse=True
    )
    starts = np.searchsorted(rows, np.arange(step_sizes.size + 1) * n_tokens)
    return rows % n_tokens, starts.tolist(), place.reshape(-1) - starts[slot_step]


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

    Training runs in lockstep: step s of an epoch updates every document
    with more than s kept tokens, with its s-th kept token and `negative`
    noise tokens, all from the vectors as they were at the step's start.
    Each document vector takes its own gradient; each token row takes the
    sum of its gradients in the step, added once.

    The same seed gives the same bytes under any BLAS kernel: document
    vectors are seeded per graph id, steps take documents and noise draws
    in graph-id order, and no BLAS kernel takes part. Reordering the input
    therefore only permutes rows. (numpy's exp runs SIMD code on CPUs with
    AVX-512, so bytes can differ between CPUs with and without it.)
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

    # An epoch's updates in step order, documents in graph-id order within
    # a step (so noise draws do not depend on the order documents were
    # passed in): the document row and the kept token of each.
    order = np.array(sorted(range(n_docs), key=lambda i: ids[i]), dtype=np.intp)
    lengths = np.array([len(token_ids[i]) for i in order], dtype=np.intp)
    n_steps = int(lengths.max())
    padded = np.zeros((n_docs, n_steps), dtype=np.intp)
    for row, i in enumerate(order):
        padded[row, : lengths[row]] = token_ids[i]
    active = np.arange(n_steps)[:, None] < lengths  # (step, document)
    update_docs = np.broadcast_to(order, active.shape)[active]
    update_tokens = padded.T[active]
    starts = np.concatenate(([0], np.cumsum(active.sum(axis=1)))).tolist()

    total_steps = epochs * n_steps
    noise_rng = rng_for(seed, "noise")
    cum = _noise_cumulative(vocab)
    if len(vocab) == 1:
        negative = 0  # no token other than the positive one to draw as noise
    width = 1 + negative  # slots per update: its token, then its noise
    labels = np.zeros(width, dtype=np.float64)
    labels[0] = 1.0
    lr_span = final_lr - initial_lr
    block_steps = max(1, NOISE_BLOCK // max(1, int((lengths > 0).sum())))
    lanes = np.arange(dim)

    step = 0
    for epoch in range(epochs):
        for first in range(0, n_steps, block_steps):
            last = min(first + block_steps, n_steps)
            base = starts[first]
            positives = update_tokens[base : starts[last]]
            table = np.empty((positives.size, width), dtype=np.intp)
            table[:, 0] = positives
            table[:, 1:] = _draw_noise(noise_rng, cum, positives, negative)
            rows, row_starts, place = _step_rows(
                table, np.diff(starts[first : last + 1]), len(vocab)
            )
            slot_key = place * dim  # a slot's first bincount key
            for s in range(first, last):
                if total_steps > 1:
                    lr = initial_lr + lr_span * (step / (total_steps - 1))
                else:
                    lr = initial_lr
                lo, hi = starts[s] - base, starts[s + 1] - base
                docs = update_docs[starts[s] : starts[s + 1]]
                doc_vecs = docvecs[docs]
                grad_doc, grad_tokens = pair_gradients(
                    doc_vecs, tokenvecs[table[lo:hi]], labels
                )
                grad_doc *= lr
                grad_tokens *= lr
                doc_vecs += grad_doc
                docvecs[docs] = doc_vecs
                # Each row's gradients summed from 0.0 in (document, slot)
                # order, over the step's distinct rows only.
                step_rows = rows[row_starts[s - first] : row_starts[s - first + 1]]
                keys = slot_key[lo * width : hi * width, None] + lanes
                sums = np.bincount(
                    keys.reshape(-1),
                    weights=grad_tokens.reshape(-1),
                    minlength=step_rows.size * dim,
                )
                tokenvecs[step_rows] += sums.reshape(step_rows.size, dim)
                step += 1
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
