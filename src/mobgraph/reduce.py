"""Neighborhood-preserving reduction of the embedding matrix to few dimensions.

Pipeline: exact kNN -> per-point bandwidth calibration -> fuzzy symmetric
neighbor graph -> low-dimensional layout by stochastic gradient descent on
an attraction/repulsion objective shaped by the curve 1/(1 + a x^(2b)), with
(a, b) the reference fit for min_dist 0.1 and spread 1.0 (DEFAULT_CURVE).
Brute-force kNN is deliberate: inputs are tens of points, not millions.

The layout runs each epoch in lockstep, as GPU UMAP does (Nolet et al.
2021): all of an epoch's attractions and negative samples are computed from
the coordinates at its start, in a few whole-array numpy passes, and summed
per point in a fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cluster import _pairwise
from .errors import NonFiniteCoordinate, TooFewPoints
from .seeding import rng_for
from .textio import TextTarget, read_id_table, write_id_table

logger = logging.getLogger(__name__)

SMOOTH_TOLERANCE = 1e-5
MIN_SIGMA_SCALE = 1e-3
GRAD_CLIP = 4.0
# (a, b) of the least-squares fit of 1/(1 + a x^(2b)) to the target falloff
# for min_dist 0.1 and spread 1.0: 1 below x = 0.1, exp(-(x - 0.1)) above, on
# 300 samples over [0, 3], as a Levenberg-Marquardt fit from (1, 1) returns
# it, bit for bit (tests/test_reduce.py checks). It is the only curve.
DEFAULT_CURVE = (1.5769434602697652, 0.8950608778515733)


@dataclass
class NeighborGraph:
    """The kNN of every point with its calibration (see smooth_knn)."""

    indices: np.ndarray  # (n, k) neighbor ids, ascending distance
    dists: np.ndarray  # (n, k) matching distances
    rho: np.ndarray  # (n,) distance to nearest neighbor
    sigma: np.ndarray  # (n,) calibrated bandwidth


@dataclass
class FuzzyGraph:
    strengths: np.ndarray  # (n, n) symmetric, zero diagonal, entries in [0, 1]


def knn_exact(points: np.ndarray, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors by Euclidean distance, self excluded: the
    (n, k) neighbor ids, by ascending distance, and their distances.

    Ties break toward the lower index (stable sort on the distance row).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n <= k:
        raise TooFewPoints(n, k)
    d = _pairwise(points)
    np.fill_diagonal(d, np.inf)
    indices = np.argsort(d, axis=1, kind="stable")[:, :k]
    return indices, np.take_along_axis(d, indices, axis=1)


def smooth_knn(knn: tuple[np.ndarray, np.ndarray]) -> NeighborGraph:
    """The NeighborGraph of knn_exact's (indices, dists): rho (nearest
    distance) and sigma per point.

    sigma solves sum_j exp(-max(0, d_ij - rho_i) / sigma) = log2(k), k the
    neighbors per point, by a 64-step binary search, then is clamped from
    below by 1e-3 times the point's mean neighbor distance (global mean when
    rho is 0).
    """
    indices, dists = knn
    n, k = dists.shape
    target = math.log2(k)
    global_mean = float(dists.mean()) if dists.size else 0.0
    rho = dists[:, 0].copy()
    sigma = np.empty(n, dtype=np.float64)
    for i in range(n):
        lo, hi, mid = 0.0, math.inf, 1.0
        row = dists[i]
        for _ in range(64):
            psum = 0.0
            for d in row:
                gap = d - rho[i]
                psum += math.exp(-gap / mid) if gap > 0 else 1.0
            if abs(psum - target) < SMOOTH_TOLERANCE:
                break
            if psum > target:
                hi = mid
                mid = (lo + hi) / 2.0
            else:
                lo = mid
                mid = mid * 2.0 if hi == math.inf else (lo + hi) / 2.0
        sigma[i] = mid
        base = float(row.mean()) if rho[i] > 0.0 else global_mean
        if base <= 0.0:
            base = 1.0
        floor = MIN_SIGMA_SCALE * base
        if sigma[i] < floor:
            sigma[i] = floor
    return NeighborGraph(indices, dists, rho, sigma)


def fuzzy_union(neighbors: NeighborGraph) -> FuzzyGraph:
    """Directed strengths exp(-max(0, d - rho)/sigma), symmetrized by the
    probabilistic union w1 + w2 - w1*w2."""
    n = neighbors.indices.shape[0]
    directed = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j, d in zip(neighbors.indices[i], neighbors.dists[i]):
            gap = d - neighbors.rho[i]
            directed[i, j] = math.exp(-gap / neighbors.sigma[i]) if gap > 0 else 1.0
    merged = directed + directed.T - directed * directed.T
    np.clip(merged, 0.0, 1.0, out=merged)  # shave fp spill outside [0, 1]
    return FuzzyGraph(strengths=merged)


def fit_curve_params() -> tuple[float, float]:
    """The (a, b) of the layout curve 1/(1 + a x^(2b)): DEFAULT_CURVE.

    reduce_embeddings looks it up as a module global on every call, so that
    perfbench can wrap and time it (reduce.curve_fit_s)."""
    return DEFAULT_CURVE


def _layout_init_mode(strengths: np.ndarray, n_components: int) -> str:
    """Spectral when the fuzzy graph is connected and n >= 4*n_components,
    random otherwise."""
    n = strengths.shape[0]
    if n < 4 * n_components or not _is_connected(strengths):
        return "random"
    return "spectral"


def _is_connected(strengths: np.ndarray) -> bool:
    """Whether every node is reachable from node 0 over nonzero strengths,
    by breadth-first sweeps of the dense (symmetric) matrix."""
    linked = strengths != 0
    seen = np.zeros(strengths.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = linked[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _random_init(n: int, n_components: int, seed: int) -> np.ndarray:
    return rng_for(seed, "layout-init").uniform(-10.0, 10.0, (n, n_components))


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt((x * x).sum()))


def _spectral_init(strengths: np.ndarray, n_components: int, seed: int) -> np.ndarray:
    """Top non-trivial eigenvectors of (D^-1/2 W D^-1/2 + I)/2 by power
    iteration with deflation; scaled so the largest coordinate is 10.

    Products and norms are numpy multiply-then-sum, not `@` or
    np.linalg.norm: BLAS would pick a kernel per CPU, and with it the last
    bits, which the iteration can carry into a different layout."""
    n = strengths.shape[0]
    degrees = strengths.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    m = (inv_sqrt[:, None] * strengths * inv_sqrt[None, :] + np.eye(n)) / 2.0

    trivial = np.sqrt(degrees)
    trivial /= _norm(trivial)
    basis = [trivial]
    columns = []
    for c in range(n_components):
        rng = rng_for(seed, "spectral", str(c))
        norm = 0.0
        while norm < 1e-12:  # redraw a start that lies in the span of the basis
            x = rng.uniform(-1.0, 1.0, n)
            for v in basis:
                x -= (v * x).sum() * v
            norm = _norm(x)
        x /= norm
        for _ in range(1000):
            nxt = (m * x).sum(axis=1)
            for v in basis:
                nxt -= (v * nxt).sum() * v
            norm = _norm(nxt)
            if norm < 1e-12:
                break
            nxt /= norm
            if _norm(nxt - x) < 1e-6:
                x = nxt
                break
            x = nxt
        if x[np.argmax(np.abs(x))] < 0:
            x = -x
        basis.append(x)
        columns.append(x)
    embedding = np.stack(columns, axis=1)
    embedding = embedding * (10.0 / np.abs(embedding).max())  # unit columns: the peak is > 0
    embedding += rng_for(seed, "jitter").normal(0.0, 1e-4, embedding.shape)
    return embedding


def optimize_layout(
    fuzzy: FuzzyGraph,
    n_components: int = 4,
    a: float = DEFAULT_CURVE[0],
    b: float = DEFAULT_CURVE[1],
    epochs: int = 500,
    negative_rate: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Lay the points out in n_components dimensions: the coordinates, and
    what was done, as {"init": mode, "optimized": bool}.

    Initialization follows _layout_init_mode: spectral, or seeded uniform
    noise in [-10, 10].
    Attractive moves follow the per-edge schedule proportional to strength;
    each one triggers negative_rate repulsive samples; the step size decays
    linearly 1 -> 0; per-component gradients clip to [-4, 4]. Corpora with
    n <= n_components + 1 skip optimization and return the init.

    Epochs run in lockstep: every move of an epoch is computed from the
    coordinates at its start, and each point takes the sum of its moves
    once, after the epoch. Negative samples are one draw per slot, in
    (epoch, edge, slot) order.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"curve parameters must be positive, got a={a}, b={b}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    if negative_rate < 1:
        raise ValueError(f"negative_rate must be >= 1, got {negative_rate}")
    strengths = fuzzy.strengths
    n = strengths.shape[0]
    if n == 0:
        raise ValueError("fuzzy graph is empty")

    init_mode = _layout_init_mode(strengths, n_components)
    if init_mode == "random":
        init = _random_init(n, n_components, seed)
    else:
        init = _spectral_init(strengths, n_components, seed)
    logger.info("layout init: %s", init_mode)
    done = {"init": init_mode, "optimized": n > n_components + 1}

    if not done["optimized"]:
        logger.warning(
            "only %d points for %d components; skipping optimization", n, n_components
        )
        return init, done

    mx = float(strengths.max())
    mu = strengths.copy()
    mu[mu < mx / epochs] = 0.0
    heads, tails = np.nonzero(mu)
    eps_attract = mx / mu[heads, tails]  # epochs between samples of each edge
    eps_negative = eps_attract / negative_rate
    next_attract = eps_attract.copy()
    next_negative = eps_negative.copy()
    attract_scale = -2.0 * a * b
    repel_scale = 2.0 * b
    lanes = np.arange(n_components)
    emb = init.copy()
    rng = rng_for(seed, "layout")
    for epoch in range(epochs):
        alpha = 1.0 - epoch / epochs
        due = np.flatnonzero(next_attract <= epoch)
        next_attract[due] += eps_attract[due]
        n_neg = ((epoch - next_negative[due]) / eps_negative[due]).astype(np.intp)
        next_negative[due] += n_neg * eps_negative[due]
        # Rows: each due edge's attraction (head i, tail j), then its
        # negative samples (i, drawn point); a draw equal to i is skipped.
        m = due.size
        owners = np.repeat(heads[due], n_neg)
        drawn = rng.integers(0, n, owners.size)
        kept = drawn != owners
        first = np.concatenate((heads[due], owners[kept]))
        second = np.concatenate((tails[due], drawn[kept]))
        diff = emb[first] - emb[second]
        d2 = diff[:, 0] * diff[:, 0]
        for t in range(1, n_components):
            d2 += diff[:, t] * diff[:, t]
        apart = d2 > 0.0
        safe = np.where(apart, d2, 1.0)  # no 0.0 ** (b - 1) to evaluate
        curve = a * safe ** b + 1.0
        coeff = np.empty_like(d2)
        coeff[:m] = attract_scale * safe[:m] ** (b - 1.0) / curve[:m]
        coeff[m:] = repel_scale / ((0.001 + safe[m:]) * curve[m:])
        grad = np.clip(coeff[:, None] * diff, -GRAD_CLIP, GRAD_CLIP)
        # Coincident points: attraction does nothing, repulsion pushes by
        # the clip bound in every component.
        grad[:m][~apart[:m]] = 0.0
        grad[m:][~apart[m:]] = GRAD_CLIP
        grad *= alpha
        # Each point's moves summed from 0.0: as a head, as a tail, as the
        # owner of negative samples, each in row order.
        points = np.concatenate((first[:m], second[:m], first[m:]))
        moves = np.concatenate((grad[:m], -grad[:m], grad[m:]))
        emb += np.bincount(
            (points[:, None] * n_components + lanes).reshape(-1),
            weights=moves.reshape(-1),
            minlength=n * n_components,
        ).reshape(n, n_components)
        if not np.isfinite(emb).all():
            raise NonFiniteCoordinate(f"epoch {epoch}")
    return emb, done


def reduce_embeddings(
    points: np.ndarray,
    n_neighbors: int = 5,
    n_components: int = 4,
    epochs: int = 500,
    negative_rate: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Full reduction: kNN, bandwidths, fuzzy union, layout.

    Returns (coordinates, info) where info records the layout curve and
    what the layout did (see optimize_layout) for the run report.
    """
    points = np.asarray(points, dtype=np.float64)
    neighbors = smooth_knn(knn_exact(points, n_neighbors))
    fuzzy = fuzzy_union(neighbors)
    a, b = fit_curve_params()
    coords, done = optimize_layout(
        fuzzy,
        n_components=n_components,
        a=a,
        b=b,
        epochs=epochs,
        negative_rate=negative_rate,
        seed=seed,
    )
    info = {
        "a": a,
        "b": b,
        "n_neighbors": n_neighbors,
        "epochs": epochs,
        "negative_rate": negative_rate,
        **done,
    }
    return coords, info


def write_reduced_csv(graph_ids: list[str], coords: np.ndarray, sink: TextTarget) -> None:
    """CSV with header graph_id,u0..u{d-1}; this is the scatter-plot data."""
    write_id_table(graph_ids, coords, "u", sink)


def read_reduced_csv(source: TextTarget) -> tuple[list[str], np.ndarray]:
    return read_id_table(source, "reduced")
