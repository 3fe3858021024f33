"""Neighborhood-preserving reduction of the embedding matrix to few dimensions.

Pipeline: exact kNN -> per-point bandwidth calibration -> fuzzy symmetric
neighbor graph -> low-dimensional layout by stochastic gradient descent on
an attraction/repulsion objective shaped by the curve 1/(1 + a x^(2b)), with
(a, b) the reference fit for min_dist 0.1 and spread 1.0 (DEFAULT_CURVE).
Brute-force kNN is deliberate: inputs are tens of points, not millions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteCoordinate, TooFewPoints
from .seeding import buffered_draws, rng_for
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
    indices: np.ndarray  # (n, k) neighbor ids, ascending distance
    dists: np.ndarray  # (n, k) matching distances
    rho: np.ndarray | None = None  # (n,) distance to nearest neighbor
    sigma: np.ndarray | None = None  # (n,) calibrated bandwidth

    @property
    def k(self) -> int:
        return int(self.indices.shape[1])


@dataclass
class FuzzyGraph:
    strengths: np.ndarray  # (n, n) symmetric, zero diagonal, entries in [0, 1]


def knn_exact(points: np.ndarray, k: int = 5) -> NeighborGraph:
    """Exact k nearest neighbors by Euclidean distance, self excluded.

    Ties break toward the lower index (stable sort on the distance row).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n <= k:
        raise TooFewPoints(n, k)
    indices = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        d[i] = np.inf
        order = np.argsort(d, kind="stable")[:k]
        indices[i] = order
        dists[i] = d[order]
    return NeighborGraph(indices=indices, dists=dists)


def smooth_knn(neighbors: NeighborGraph) -> NeighborGraph:
    """Fill rho (nearest distance) and sigma per point.

    sigma solves sum_j exp(-max(0, d_ij - rho_i) / sigma) = log2(k), k the
    neighbors per point, by a 64-step binary search, then is clamped from
    below by 1e-3 times the point's mean neighbor distance (global mean when
    rho is 0).
    """
    dists = neighbors.dists
    n = dists.shape[0]
    target = math.log2(neighbors.k)
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
    return NeighborGraph(
        indices=neighbors.indices, dists=dists, rho=rho, sigma=sigma
    )


def fuzzy_union(neighbors: NeighborGraph) -> FuzzyGraph:
    """Directed strengths exp(-max(0, d - rho)/sigma), symmetrized by the
    probabilistic union w1 + w2 - w1*w2."""
    if neighbors.rho is None or neighbors.sigma is None:
        raise ValueError("run smooth_knn first: rho and sigma are unset")
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


def _spectral_init(strengths: np.ndarray, n_components: int, seed: int) -> np.ndarray:
    """Top non-trivial eigenvectors of (D^-1/2 W D^-1/2 + I)/2 by power
    iteration with deflation; scaled so the largest coordinate is 10."""
    n = strengths.shape[0]
    degrees = strengths.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    m = (inv_sqrt[:, None] * strengths * inv_sqrt[None, :] + np.eye(n)) / 2.0

    trivial = np.sqrt(degrees)
    trivial /= np.linalg.norm(trivial)
    basis = [trivial]
    columns = []
    for c in range(n_components):
        rng = rng_for(seed, "spectral", str(c))
        norm = 0.0
        while norm < 1e-12:  # redraw a start that lies in the span of the basis
            x = rng.uniform(-1.0, 1.0, n)
            for v in basis:
                x -= (v @ x) * v
            norm = np.linalg.norm(x)
        x /= norm
        for _ in range(1000):
            nxt = m @ x
            for v in basis:
                nxt -= (v @ nxt) * v
            norm = np.linalg.norm(nxt)
            if norm < 1e-12:
                break
            nxt /= norm
            if np.linalg.norm(nxt - x) < 1e-6:
                x = nxt
                break
            x = nxt
        if x[np.argmax(np.abs(x))] < 0:
            x = -x
        basis.append(x)
        columns.append(x)
    embedding = np.stack(columns, axis=1)
    peak = np.abs(embedding).max()
    if peak == 0.0:
        return _random_init(n, n_components, seed)
    embedding = embedding * (10.0 / peak)
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
) -> np.ndarray:
    """Lay the points out in n_components dimensions.

    Initialization follows _layout_init_mode: spectral, or seeded uniform
    noise in [-10, 10].
    Attractive moves follow the per-edge schedule proportional to strength;
    each one triggers negative_rate repulsive samples; the step size decays
    linearly 1 -> 0; per-component gradients clip to [-4, 4]. Corpora with
    n <= n_components + 1 skip optimization and return the init.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"curve parameters must be positive, got a={a}, b={b}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
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

    if n <= n_components + 1:
        logger.warning(
            "only %d points for %d components; skipping optimization", n, n_components
        )
        return init

    mx = float(strengths.max())
    if mx <= 0.0:
        logger.warning("fuzzy graph has no edges; returning the initialization")
        return init
    mu = strengths.copy()
    mu[mu < mx / epochs] = 0.0
    heads, tails = np.nonzero(mu)
    weights = mu[heads, tails]
    eps_attract = (mx / weights).tolist()  # epochs between samples of each edge
    next_attract = list(eps_attract)
    eps_negative = (mx / weights / negative_rate).tolist()
    next_negative = list(eps_negative)
    # The loop runs on Python lists and floats: the same IEEE operations in
    # the same order as on numpy arrays, without a numpy scalar per step.
    # Squared distances are summed left to right, not with sum(), which
    # compensates rounding from Python 3.12 on.
    edges = list(zip(heads.tolist(), tails.tolist()))
    attract_scale = -2.0 * a * b
    attract_power = b - 1.0
    repel_scale = 2.0 * b
    components = range(n_components)
    clip_hi = GRAD_CLIP  # locals: read on every step of the innermost loops
    clip_lo = -GRAD_CLIP

    emb = init.tolist()
    rng = rng_for(seed, "layout")
    draws = buffered_draws(lambda k: rng.integers(0, n, k).tolist())
    for epoch in range(epochs):
        alpha = 1.0 - epoch / epochs
        for e, (i, j) in enumerate(edges):
            if next_attract[e] > epoch:
                continue
            cur = emb[i]
            oth = emb[j]
            d2 = 0.0
            for t in components:
                diff = cur[t] - oth[t]
                d2 += diff * diff
            if d2 > 0.0:
                coeff = attract_scale * d2 ** attract_power / (a * d2 ** b + 1.0)
            else:
                coeff = 0.0
            for t in components:
                g = coeff * (cur[t] - oth[t])
                if g > clip_hi:
                    g = clip_hi
                elif g < clip_lo:
                    g = clip_lo
                step = g * alpha
                cur[t] += step
                oth[t] -= step
            next_attract[e] += eps_attract[e]

            n_neg = int((epoch - next_negative[e]) / eps_negative[e])
            for _ in range(n_neg):
                kidx = next(draws)
                if kidx == i:
                    continue
                oth = emb[kidx]
                d2 = 0.0
                for t in components:
                    diff = cur[t] - oth[t]
                    d2 += diff * diff
                if d2 > 0.0:
                    coeff = repel_scale / ((0.001 + d2) * (a * d2 ** b + 1.0))
                    for t in components:
                        g = coeff * (cur[t] - oth[t])
                        if g > clip_hi:
                            g = clip_hi
                        elif g < clip_lo:
                            g = clip_lo
                        cur[t] += g * alpha
                else:
                    for t in components:
                        cur[t] += clip_hi * alpha
            next_negative[e] += n_neg * eps_negative[e]
        for row in emb:
            for x in row:
                if not math.isfinite(x):
                    raise NonFiniteCoordinate(f"epoch {epoch}")
    return np.array(emb, dtype=np.float64)


def reduce_embeddings(
    points: np.ndarray,
    n_neighbors: int = 5,
    n_components: int = 4,
    epochs: int = 500,
    negative_rate: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Full reduction: kNN, bandwidths, fuzzy union, layout.

    Returns (coordinates, info) where info records the layout curve and the
    initialization mode for the run report.
    """
    points = np.asarray(points, dtype=np.float64)
    neighbors = smooth_knn(knn_exact(points, n_neighbors))
    fuzzy = fuzzy_union(neighbors)
    a, b = fit_curve_params()
    coords = optimize_layout(
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
        "init": _layout_init_mode(fuzzy.strengths, n_components),
        "n_neighbors": n_neighbors,
        "epochs": epochs,
        "negative_rate": negative_rate,
        "optimized": points.shape[0] > n_components + 1,
    }
    return coords, info


def write_reduced_csv(graph_ids: list[str], coords: np.ndarray, sink: TextTarget) -> None:
    """CSV with header graph_id,u0..u{d-1}; this is the scatter-plot data."""
    write_id_table(graph_ids, coords, "u", sink)


def read_reduced_csv(source: TextTarget) -> tuple[list[str], np.ndarray]:
    return read_id_table(source, "reduced")
