"""Flat and hierarchical clustering of the reduced vectors, plus the
quality metrics used for model selection and validation."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CoincidentCentroids,
    DegenerateVariance,
    InvalidK,
    SingleCluster,
    TooFewPoints,
)
from .seeding import rng_for

logger = logging.getLogger(__name__)


@dataclass
class KMeansResult:
    labels: np.ndarray  # (n,) int cluster ids in [0, k)
    centroids: np.ndarray  # (k, d)
    inertia: float  # sum of squared distances to assigned centroid


@dataclass
class Dendrogram:
    """n-1 merges in order; leaf ids 0..n-1, merged clusters get ids n, n+1, ...

    Each merge is (left id, right id, height, member count), left < right.
    """

    n_leaves: int
    merges: list[tuple[int, int, float, int]]


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite, got a NaN or infinite coordinate")
    return arr


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances between rows."""
    diff = a[:, None, :] - b[None, :, :]
    diff *= diff  # in place: one (len(a), len(b), dim) temporary
    return diff.sum(axis=2)


def _pairwise(points: np.ndarray) -> np.ndarray:
    return np.sqrt(_squared_distances(points, points))


# --- k-means ---------------------------------------------------------------

def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    # Each point's squared distance to its closest center so far. With no
    # weight to draw by (no center yet, or every point on one) the pick is
    # uniform.
    closest = np.zeros(n)
    for c in range(k):
        total = float(closest.sum())
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            r = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(closest), r, side="right"))
            pick = min(pick, n - 1)
        centers[c] = points[pick]
        d2 = _squared_distances(points, centers[c : c + 1])[:, 0]
        closest = np.minimum(closest, d2) if c else d2
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest center, and its squared distance to it."""
    d2 = _squared_distances(points, centers)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def _refill(c: int, points, centers, labels, assigned) -> None:
    """Re-seed empty cluster c on the point farthest from its centroid,
    which moves to c at distance 0."""
    far = int(assigned.argmax())
    centers[c] = points[far]
    labels[far] = c
    assigned[far] = 0.0


def kmeans(points, k: int, seed: int = 0, n_init: int = 10) -> KMeansResult:
    """Lloyd iterations from k-means++ starts; best of n_init by inertia.

    Empty clusters are repaired by re-seeding on the point farthest from its
    assigned centroid. Ties between restarts break toward the earlier one.
    """
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    points = _as_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(k, n)
    best: KMeansResult | None = None
    for restart in range(n_init):
        rng = rng_for(seed, "kmeans", str(restart))
        centers = _kmeans_pp(points, k, rng)
        labels = np.full(n, -1, dtype=np.int64)
        for _ in range(300):
            new_labels, assigned = _assign(points, centers)
            for c in range(k):
                members = new_labels == c
                if members.any():
                    centers[c] = points[members].mean(axis=0)
                else:
                    _refill(c, points, centers, new_labels, assigned)
            if (new_labels == labels).all():
                break
            labels = new_labels
        labels, assigned = _assign(points, centers)
        for c in range(k):
            if not (labels == c).any():
                _refill(c, points, centers, labels, assigned)
        inertia = float(assigned.sum())
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels=labels, centroids=centers, inertia=inertia)
    return best


# --- metrics ----------------------------------------------------------------

def silhouette_score(points, labels) -> float:
    """Mean of (b - a)/max(a, b); singleton clusters contribute 0."""
    points = _as_points(points)
    labels = np.asarray(labels, dtype=np.int64)
    n = points.shape[0]
    # return_counts keeps np.unique from importing numpy.ma (numpy 2.4)
    clusters, counts = np.unique(labels, return_counts=True)
    if clusters.shape[0] < 2:
        raise SingleCluster()
    dist = _pairwise(points)
    # Each point's summed distance to each cluster's members. A contiguous
    # copy of the columns sums each row in the order dist[i, members].sum() does.
    sums = np.stack(
        [np.ascontiguousarray(dist[:, labels == c]).sum(axis=1) for c in clusters], axis=1
    )
    rows = np.arange(n)
    own = np.searchsorted(clusters, labels)
    means = sums / counts
    means[rows, own] = np.inf
    total = 0.0
    for own_sum, b, size in zip(
        sums[rows, own].tolist(), means.min(axis=1).tolist(), counts[own].tolist()
    ):
        if size == 1:
            continue  # contributes 0
        a = own_sum / (size - 1)
        peak = max(a, b)
        if peak > 0.0:
            total += (b - a) / peak
    return total / n


def k_range(n: int, k_min: int = 2, k_max: int | None = None) -> range:
    """The k values model selection tries for n points: [k_min, k_max], with
    k_max defaulting to min(10, n - 1). InvalidK when k_min < 2, k_max > n
    or the range is empty."""
    if k_max is None:
        k_max = min(10, n - 1)
    if k_min < 2 or k_max < k_min or k_max > n:
        raise InvalidK(k_min if k_min < 2 else k_max, n)
    return range(k_min, k_max + 1)


def _best_k(scores: dict[int, float]) -> int:
    """The k of the highest silhouette; ties go to the smaller k."""
    return max(scores, key=lambda k: (scores[k], -k))


def select_k_by_silhouette(
    points, k_min: int = 2, k_max: int | None = None, seed: int = 0, n_init: int = 10
) -> tuple[int, dict[int, float], KMeansResult]:
    """Run kmeans over k_range(n, k_min, k_max); return the best k (see
    _best_k), the full score table, and the selected k's fit."""
    points = _as_points(points)
    scores: dict[int, float] = {}
    fits: dict[int, KMeansResult] = {}
    for k in k_range(points.shape[0], k_min, k_max):
        fits[k] = kmeans(points, k, seed=seed, n_init=n_init)
        scores[k] = silhouette_score(points, fits[k].labels)
    best_k = _best_k(scores)
    return best_k, scores, fits[best_k]


# --- hierarchical -----------------------------------------------------------

def single_linkage(points) -> Dendrogram:
    """Agglomerate by minimum inter-point distance.

    Distance ties break toward the smaller (left id, right id) pair; merged
    clusters get ids n, n+1, ... in merge order.
    """
    points = _as_points(points)
    n = points.shape[0]
    if n < 2:
        raise TooFewPoints(n, 1)
    ids = 2 * n - 1
    # Distances between cluster ids, and the pairs i < j of them that no
    # merge has used up. Step `new` searches the ids formed so far, below
    # it. Used pairs are masked, not set to inf: a live distance may be inf.
    dist = np.zeros((ids, ids), dtype=np.float64)
    dist[:n, :n] = _pairwise(points)
    live = np.triu(np.ones((ids, ids), dtype=bool), k=1)
    sizes = [1] * n
    merges: list[tuple[int, int, float, int]] = []
    for new in range(n, ids):
        formed, pairs = dist[:new, :new], live[:new, :new]
        height = formed[pairs].min()
        # the first live cell holding it in row-major order: the smallest pair
        left, right = divmod(int(np.argmax(pairs & (formed == height))), new)
        sizes.append(sizes[left] + sizes[right])
        merges.append((left, right, float(height), sizes[new]))
        dist[new] = dist[:, new] = np.minimum(dist[left], dist[right])
        live[[left, right]] = live[:, [left, right]] = False
    return Dendrogram(n_leaves=n, merges=merges)


def _members(dendrogram: Dendrogram) -> list[list[int]]:
    """The leaf ids of every cluster id: each leaf's own, then each merge's
    left members followed by its right ones."""
    members = [[i] for i in range(dendrogram.n_leaves)]
    for left, right, _height, _size in dendrogram.merges:
        members.append(members[left] + members[right])
    return members


def cut_tree(dendrogram: Dendrogram, k: int) -> np.ndarray:
    """Undo the last k-1 merges; label clusters 0..k-1 by smallest leaf id."""
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise InvalidK(k, n)
    merged = {side for left, right, _h, _size in dendrogram.merges[: n - k]
              for side in (left, right)}
    groups = [group for c, group in enumerate(_members(dendrogram)[: 2 * n - k])
              if c not in merged]
    groups.sort(key=min)
    labels = np.empty(n, dtype=np.int64)
    for c, group in enumerate(groups):
        labels[group] = c
    return labels


def cophenetic_distances(dendrogram: Dendrogram) -> np.ndarray:
    """(n, n) matrix of first-common-merge heights."""
    n = dendrogram.n_leaves
    coph = np.zeros((n, n), dtype=np.float64)
    members = _members(dendrogram)
    for left, right, height, _size in dendrogram.merges:
        coph[np.ix_(members[left], members[right])] = height
        coph[np.ix_(members[right], members[left])] = height
    return coph


def cophenetic_correlation(dendrogram: Dendrogram, points) -> float:
    """Pearson correlation between Euclidean and cophenetic pair distances."""
    points = _as_points(points)
    n = points.shape[0]
    if n < 3:
        raise TooFewPoints(n, 2)
    dist = _pairwise(points)
    coph = cophenetic_distances(dendrogram)
    iu = np.triu_indices(n, k=1)
    x = dist[iu]
    y = coph[iu]
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(np.sqrt((xd * xd).sum()))
    sy = float(np.sqrt((yd * yd).sum()))
    if sx == 0.0:
        raise DegenerateVariance("euclidean")
    if sy == 0.0:
        raise DegenerateVariance("cophenetic")
    return float((xd * yd).sum() / (sx * sy))


def davies_bouldin(points, labels) -> float:
    """Mean over clusters of the worst (S_i + S_j) / dist(centroid_i, centroid_j)."""
    points = _as_points(points)
    labels = np.asarray(labels, dtype=np.int64)
    clusters, _ = np.unique(labels, return_counts=True)  # see silhouette_score
    k = clusters.shape[0]
    if k < 2:
        raise SingleCluster()
    centroids = np.stack([points[labels == c].mean(axis=0) for c in clusters])
    scatter = np.array(
        [
            float(np.linalg.norm(points[labels == c] - centroids[i], axis=1).mean())
            for i, c in enumerate(clusters)
        ]
    )
    total = 0.0
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            gap = centroids[i] - centroids[j]
            m = float(np.sqrt((gap * gap).sum()))  # not np.linalg.norm: BLAS
            if m == 0.0:
                raise CoincidentCentroids(int(clusters[i]), int(clusters[j]))
            worst = max(worst, (scatter[i] + scatter[j]) / m)
        total += worst
    return total / k


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected partition agreement; 1.0 when the correction
    denominator vanishes (both partitions trivial)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label arrays must have the same length")
    n = a.shape[0]
    table: dict[tuple, int] = {}
    count_a: dict[object, int] = {}
    count_b: dict[object, int] = {}
    for x, y in zip(a.tolist(), b.tolist()):
        table[(x, y)] = table.get((x, y), 0) + 1
        count_a[x] = count_a.get(x, 0) + 1
        count_b[y] = count_b.get(y, 0) + 1

    def comb2(m: int) -> int:
        return m * (m - 1) // 2

    sum_ij = sum(comb2(c) for c in table.values())
    sum_a = sum(comb2(c) for c in count_a.values())
    sum_b = sum(comb2(c) for c in count_b.values())
    total = comb2(n)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    denom = maximum - expected
    if denom == 0.0:
        return 1.0
    return float((sum_ij - expected) / denom)


# --- model selection --------------------------------------------------------

def compute_clustering(
    points,
    channels: list[str],
    k_min: int = 2,
    k_max: int | None = None,
    seed: int = 0,
    n_init: int = 10,
) -> tuple[dict, Dendrogram]:
    """Model selection, both clusterings, and quality metrics for one point
    set, and its single-linkage dendrogram. Metrics that are undefined for
    the data at hand come back as None with a logged warning."""
    k_star, scores, km = select_k_by_silhouette(
        points, k_min=k_min, k_max=k_max, seed=seed, n_init=n_init
    )
    dendrogram = single_linkage(points)
    cuts = {k: cut_tree(dendrogram, k) for k in scores}  # the k range resolved above
    cut_scores = {k: silhouette_score(points, labels) for k, labels in cuts.items()}
    cut_k = _best_k(cut_scores)

    def guarded(what: str, metric: Callable[..., float], *args) -> float | None:
        try:
            return metric(*args)
        except (CoincidentCentroids, SingleCluster, DegenerateVariance,
                TooFewPoints) as exc:
            logger.warning("%s unavailable: %s", what, exc)
            return None

    cophenetic = guarded("cophenetic correlation", cophenetic_correlation, dendrogram, points)
    db_kmeans = guarded("Davies-Bouldin (k-means labels)", davies_bouldin, points, km.labels)
    db_cut = guarded("Davies-Bouldin (cut-tree labels)", davies_bouldin, points, cuts[cut_k])
    return {
        "kmeans": {
            "selected_k": k_star,
            "silhouette_by_k": {str(k): v for k, v in sorted(scores.items())},
            "silhouette": scores[k_star],
            "labels": {c: int(l) for c, l in zip(channels, km.labels)},
            "davies_bouldin": db_kmeans,
        },
        "hierarchical": {
            "selected_k": cut_k,
            "silhouette_by_k": {str(k): v for k, v in sorted(cut_scores.items())},
            "silhouette": cut_scores[cut_k],
            "labels": {c: int(l) for c, l in zip(channels, cuts[cut_k])},
            "davies_bouldin": db_cut,
            "cophenetic_correlation": cophenetic,
        },
    }, dendrogram
