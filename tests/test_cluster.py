import itertools
import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist

from mobgraph import cluster as cluster_mod
from mobgraph.cluster import (
    Dendrogram,
    adjusted_rand_index,
    cophenetic_correlation,
    cophenetic_distances,
    cut_tree,
    davies_bouldin,
    kmeans,
    select_k_by_silhouette,
    silhouette_score,
    single_linkage,
)
from mobgraph.errors import (
    CoincidentCentroids,
    DegenerateVariance,
    InvalidK,
    SingleCluster,
    TooFewPoints,
)


def make_blobs(rng, k=3, per=10, dim=4, sep=10.0):
    chunks, labels = [], []
    for c in range(k):
        center = np.zeros(dim)
        center[c % dim] = sep * (1 + c)
        chunks.append(rng.normal(0, 1, (per, dim)) + center)
        labels.extend([c] * per)
    return np.vstack(chunks), np.array(labels)


# --- k-means ----------------------------------------------------------------------

def test_kmeans_rejects_zero_restarts():
    with pytest.raises(ValueError, match="n_init must be >= 1"):
        kmeans(np.zeros((3, 2)), 1, n_init=0)


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(0)
    points = rng.normal(0, 1, (8, 3))
    result = kmeans(points, 8, seed=1)
    assert result.inertia == 0.0
    assert sorted(result.labels.tolist()) == list(range(8))


def test_kmeans_k_one_closed_form():
    rng = np.random.default_rng(1)
    points = rng.normal(0, 2, (30, 5))
    result = kmeans(points, 1, seed=0)
    mean = points.mean(axis=0)
    assert np.allclose(result.centroids[0], mean, rtol=0, atol=1e-12)
    expected = float(((points - mean) ** 2).sum())
    assert result.inertia == pytest.approx(expected, rel=1e-12)


def test_kmeans_recovers_planted_blobs():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        points, truth = make_blobs(rng, k=3, per=10, dim=4, sep=10.0)
        result = kmeans(points, 3, seed=seed)
        if adjusted_rand_index(result.labels, truth) == 1.0:
            wins += 1
    assert wins >= 9, f"recovered blobs for only {wins}/10 seeds"


def test_kmeans_inertia_consistent_with_output():
    rng = np.random.default_rng(2)
    points = rng.normal(0, 1, (40, 3))
    result = kmeans(points, 4, seed=3)
    recomputed = sum(
        float(((points[i] - result.centroids[result.labels[i]]) ** 2).sum())
        for i in range(40)
    )
    assert result.inertia == pytest.approx(recomputed, rel=1e-9)


def test_kmeans_never_leaves_empty_clusters():
    base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.repeat(base, 10, axis=0)
    result = kmeans(points, 4, seed=0)
    assert len(set(result.labels.tolist())) == 4


def test_kmeans_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(3)
    points = rng.normal(0, 1, (25, 4))
    r1 = kmeans(points, 3, seed=7)
    r2 = kmeans(points, 3, seed=7)
    assert np.array_equal(r1.labels, r2.labels)
    assert r1.inertia == r2.inertia


@pytest.mark.parametrize("k", [0, -1, 9])
def test_kmeans_invalid_k(k):
    points = np.zeros((8, 2))
    with pytest.raises(InvalidK):
        kmeans(points, k)


# --- silhouette --------------------------------------------------------------------

def silhouette_oracle(points, labels):
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(points)
    values = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not same:
            values.append(0.0)
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in same])
        b = min(
            np.mean([np.linalg.norm(points[i] - points[j])
                     for j in range(n) if labels[j] == c])
            for c in set(labels.tolist()) if c != labels[i]
        )
        values.append(0.0 if max(a, b) == 0.0 else (b - a) / max(a, b))
    return float(np.mean(values))


def test_silhouette_matches_direct_oracle():
    rng = np.random.default_rng(4)
    for trial in range(5):
        points = rng.normal(0, 1, (20, 4))
        k = 2 + trial % 4
        labels = rng.integers(0, k, 20)
        labels[:k] = np.arange(k)  # keep every cluster populated
        ours = silhouette_score(points, labels)
        assert ours == pytest.approx(silhouette_oracle(points, labels), abs=1e-9)


def test_silhouette_singleton_contributes_zero():
    points = np.array([[0.0], [1.0], [50.0]])
    labels = [0, 0, 1]
    a0, b0 = 1.0, 50.0
    a1, b1 = 1.0, 49.0
    expected = ((b0 - a0) / b0 + (b1 - a1) / b1 + 0.0) / 3
    assert silhouette_score(points, labels) == pytest.approx(expected, abs=1e-12)


def test_silhouette_label_permutation_invariant():
    rng = np.random.default_rng(5)
    points = rng.normal(0, 1, (15, 3))
    labels = rng.integers(0, 3, 15)
    labels[:3] = [0, 1, 2]
    remapped = np.array([{0: 2, 1: 0, 2: 1}[int(x)] for x in labels])
    assert silhouette_score(points, labels) == silhouette_score(points, remapped)


def test_silhouette_single_cluster_rejected():
    with pytest.raises(SingleCluster):
        silhouette_score(np.zeros((5, 2)), [1, 1, 1, 1, 1])


def test_select_k_finds_planted_two_blobs():
    rng = np.random.default_rng(6)
    points, _ = make_blobs(rng, k=2, per=10, dim=4, sep=12.0)
    best_k, scores, _fit = select_k_by_silhouette(points, k_min=2, k_max=6, seed=0)
    assert best_k == 2
    assert set(scores) == {2, 3, 4, 5, 6}
    assert best_k == max(scores, key=lambda k: (scores[k], -k))


def test_selected_k_is_fitted_once(monkeypatch):
    from mobgraph.pipeline import compute_clustering

    points, _ = make_blobs(np.random.default_rng(8), k=3, per=6, dim=4)
    best_k, _scores, fit = select_k_by_silhouette(points, k_max=5, seed=3, n_init=4)
    direct = kmeans(points, best_k, seed=3, n_init=4)
    assert np.array_equal(fit.labels, direct.labels)
    assert fit.inertia == direct.inertia

    fitted = []

    def counting_kmeans(points, k, seed=0, n_init=10):
        fitted.append(k)
        return kmeans(points, k, seed=seed, n_init=n_init)

    monkeypatch.setattr(cluster_mod, "kmeans", counting_kmeans)
    result, _dendrogram = compute_clustering(points, [f"ch{i}" for i in range(18)], k_max=5,
                                seed=3, n_init=4)
    assert fitted == [2, 3, 4, 5]  # once per k, the selected one included
    assert result["kmeans"]["selected_k"] == best_k


def test_select_k_invalid_range():
    points = np.zeros((6, 2))
    with pytest.raises(InvalidK):
        select_k_by_silhouette(points, k_min=1)
    with pytest.raises(InvalidK):
        select_k_by_silhouette(points, k_min=4, k_max=3)
    with pytest.raises(InvalidK):
        select_k_by_silhouette(points, k_max=7)  # more clusters than points


# --- single linkage ----------------------------------------------------------------

def test_linkage_collinear_points():
    dendrogram = single_linkage(np.array([[0.0], [1.0], [3.0]]))
    assert dendrogram.n_leaves == 3
    assert dendrogram.merges == [(0, 1, 1.0, 2), (2, 3, 2.0, 3)]


def test_linkage_tie_breaks_toward_smaller_pair():
    dendrogram = single_linkage(np.array([[0.0], [1.0], [2.0]]))
    assert dendrogram.merges == [(0, 1, 1.0, 2), (2, 3, 1.0, 3)]


def test_linkage_heights_are_sorted_mst_weights():
    rng = np.random.default_rng(7)
    for trial in range(10):
        points = rng.normal(0, 1, (15, 3))
        dendrogram = single_linkage(points)
        heights = [m[2] for m in dendrogram.merges]
        assert heights == sorted(heights)
        diff = points[:, None, :] - points[None, :, :]
        dense = np.sqrt((diff * diff).sum(axis=2))
        mst = minimum_spanning_tree(dense).toarray()
        mst_weights = sorted(float(w) for w in mst.ravel() if w > 0)
        assert len(heights) == len(mst_weights)
        for h, w in zip(heights, mst_weights):
            assert h == pytest.approx(w, abs=1e-12)


def test_linkage_duplicate_points_merge_at_zero():
    dendrogram = single_linkage(np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]))
    assert dendrogram.merges[0][:3] == (0, 1, 0.0)


def test_linkage_too_few_points():
    with pytest.raises(TooFewPoints):
        single_linkage(np.array([[0.0, 0.0]]))


# --- cut tree ----------------------------------------------------------------------

def test_cut_tree_extremes():
    rng = np.random.default_rng(8)
    points = rng.normal(0, 1, (9, 2))
    dendrogram = single_linkage(points)
    assert np.array_equal(cut_tree(dendrogram, 1), np.zeros(9, dtype=np.int64))
    assert np.array_equal(cut_tree(dendrogram, 9), np.arange(9))
    with pytest.raises(InvalidK):
        cut_tree(dendrogram, 0)
    with pytest.raises(InvalidK):
        cut_tree(dendrogram, 10)


def test_cut_tree_recovers_planted_blobs():
    rng = np.random.default_rng(9)
    points, truth = make_blobs(rng, k=2, per=8, dim=3, sep=15.0)
    labels = cut_tree(single_linkage(points), 2)
    assert adjusted_rand_index(labels, truth) == 1.0


def test_cut_tree_refines_by_single_split():
    rng = np.random.default_rng(10)
    points = rng.normal(0, 1, (14, 3))
    dendrogram = single_linkage(points)
    for k in range(1, 14):
        coarse = cut_tree(dendrogram, k)
        fine = cut_tree(dendrogram, k + 1)
        parents = {}
        for fine_cluster in set(fine.tolist()):
            owners = {int(coarse[i]) for i in range(14) if fine[i] == fine_cluster}
            assert len(owners) == 1  # refinement: each fine cluster sits in one coarse
            parent = owners.pop()
            parents.setdefault(parent, []).append(fine_cluster)
        split = [p for p, kids in parents.items() if len(kids) == 2]
        intact = [p for p, kids in parents.items() if len(kids) == 1]
        assert len(split) == 1
        assert len(intact) == k - 1


# --- cophenetic --------------------------------------------------------------------

def ultrametric_points():
    # two far pairs: within-pair distance 1, every cross distance 2
    y = math.sqrt(3.5)
    return np.array([
        [-0.5, 0.0, 0.0],
        [0.5, 0.0, 0.0],
        [0.0, y, -0.5],
        [0.0, y, 0.5],
    ])


def test_cophenetic_ultrametric_instance_is_perfect():
    points = ultrametric_points()
    corr = cophenetic_correlation(single_linkage(points), points)
    assert abs(corr - 1.0) < 1e-12


def test_cophenetic_matrix_matches_scipy():
    rng = np.random.default_rng(11)
    for trial in range(5):
        points = rng.normal(0, 1, (12, 4))
        ours = cophenetic_distances(single_linkage(points))
        z = scipy_linkage(points, method="single")
        theirs = cophenet(z)
        iu = np.triu_indices(12, k=1)
        assert np.allclose(ours[iu], theirs, rtol=0, atol=1e-9)


def test_cophenetic_correlation_matches_scipy():
    rng = np.random.default_rng(12)
    points = rng.normal(0, 1, (18, 5))
    ours = cophenetic_correlation(single_linkage(points), points)
    z = scipy_linkage(points, method="single")
    corr, _ = cophenet(z, pdist(points))
    assert ours == pytest.approx(float(corr), abs=1e-9)


def test_cophenetic_degenerate_variance():
    points = np.ones((4, 2))
    with pytest.raises(DegenerateVariance):
        cophenetic_correlation(single_linkage(points), points)


def test_cophenetic_too_few_points():
    dendrogram = Dendrogram(n_leaves=2, merges=[(0, 1, 1.0, 2)])
    with pytest.raises(TooFewPoints):
        cophenetic_correlation(dendrogram, np.zeros((2, 2)))


# --- exact references --------------------------------------------------------------
# The dict-and-set implementations the array code replaced. Every merge, cut,
# cophenetic height and silhouette must equal theirs exactly, not approximately.

def reference_pairwise(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def reference_single_linkage(points):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    dist = reference_pairwise(points)
    cluster_dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            cluster_dist[(i, j)] = float(dist[i, j])
    sizes = {i: 1 for i in range(n)}
    active = set(range(n))
    merges = []
    next_id = n
    for _ in range(n - 1):
        best = min(cluster_dist.items(), key=lambda kv: (kv[1], kv[0]))
        (left, right), height = best
        size = sizes[left] + sizes[right]
        merges.append((left, right, height, size))
        active.discard(left)
        active.discard(right)
        for other in active:
            d_left = cluster_dist.pop((min(left, other), max(left, other)))
            d_right = cluster_dist.pop((min(right, other), max(right, other)))
            cluster_dist[(other, next_id)] = min(d_left, d_right)
        del cluster_dist[(left, right)]
        sizes[next_id] = size
        active.add(next_id)
        next_id += 1
    return Dendrogram(n_leaves=n, merges=merges)


def reference_cut_tree(dendrogram, k):
    n = dendrogram.n_leaves
    sets = {i: {i} for i in range(n)}
    for m, (left, right, _h, _size) in enumerate(dendrogram.merges[:n - k]):
        sets[n + m] = sets.pop(left) | sets.pop(right)
    groups = sorted(sets.values(), key=min)
    labels = np.empty(n, dtype=np.int64)
    for c, group in enumerate(groups):
        for leaf in group:
            labels[leaf] = c
    return labels


def reference_cophenetic_distances(dendrogram):
    n = dendrogram.n_leaves
    coph = np.zeros((n, n), dtype=np.float64)
    members = {i: {i} for i in range(n)}
    for m, (left, right, height, _size) in enumerate(dendrogram.merges):
        left_set = members.pop(left)
        right_set = members.pop(right)
        for i in left_set:
            for j in right_set:
                coph[i, j] = coph[j, i] = height
        members[n + m] = left_set | right_set
    return coph


def reference_silhouette_score(points, labels):
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = points.shape[0]
    clusters, counts = np.unique(labels, return_counts=True)
    dist = reference_pairwise(points)
    sizes = dict(zip(clusters.tolist(), counts.tolist()))
    total = 0.0
    for i in range(n):
        own = int(labels[i])
        if sizes[own] == 1:
            continue
        a = dist[i, labels == own].sum() / (sizes[own] - 1)
        b = math.inf
        for c in clusters:
            c = int(c)
            if c == own:
                continue
            b = min(b, dist[i, labels == c].mean())
        peak = max(a, b)
        if peak > 0.0:
            total += (b - a) / peak
    return total / n


def point_sets(kind, count=20, seed=0, max_n=40):
    """Seeded point sets, n from 2 and 1-5 dims, of one kind: "normal";
    "grid", small integers full of ties and duplicates; or "overflow",
    normal with 30% of the rows scaled by 1e200, so that some distances
    overflow to inf."""
    rng = np.random.default_rng([seed, ["normal", "grid", "overflow"].index(kind)])
    for _ in range(count):
        n, dim = int(rng.integers(2, max_n)), int(rng.integers(1, 6))
        if kind == "grid":
            yield rng.integers(0, 3, (n, dim)).astype(np.float64)
            continue
        points = rng.normal(0, 1, (n, dim))
        if kind == "overflow":
            points[rng.random(n) < 0.3] *= 1e200
        yield points


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize("kind", ["normal", "grid", "overflow"])
def test_hierarchy_equals_reference_exactly(kind):
    with np.errstate(over="ignore", invalid="ignore"):
        for points in point_sets(kind):
            n = points.shape[0]
            dendrogram = single_linkage(points)
            reference = reference_single_linkage(points)
            assert dendrogram.merges == reference.merges
            assert np.array_equal(cophenetic_distances(dendrogram),
                                  reference_cophenetic_distances(reference))
            for k in range(1, n + 1):
                labels = cut_tree(dendrogram, k)
                assert np.array_equal(labels, reference_cut_tree(reference, k))
                if 2 <= len(set(labels.tolist())):
                    assert same_float(silhouette_score(points, labels),
                                      reference_silhouette_score(points, labels))


def test_silhouette_equals_reference_exactly_on_random_labels():
    rng = np.random.default_rng(13)
    for kind in ("normal", "grid"):
        for points in point_sets(kind, max_n=60):
            n = points.shape[0]
            labels = rng.integers(0, max(2, n // 3), n) * 3  # sparse label values
            if len(set(labels.tolist())) >= 2:
                assert silhouette_score(points, labels) == reference_silhouette_score(
                    points, labels)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda points: kmeans(points, 2),
    lambda points: silhouette_score(points, [0, 1, 1]),
    lambda points: select_k_by_silhouette(points),
    single_linkage,
    lambda points: cophenetic_correlation(
        Dendrogram(n_leaves=3, merges=[(0, 2, 1.0, 2), (1, 3, 1.0, 3)]), points),
    lambda points: davies_bouldin(points, [0, 1, 1]),
], ids=["kmeans", "silhouette_score", "select_k_by_silhouette", "single_linkage",
        "cophenetic_correlation", "davies_bouldin"])
def test_non_finite_points_rejected(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(np.array([[0.0], [bad], [1.0]]))


# --- davies-bouldin ----------------------------------------------------------------

def db_oracle(points, labels):
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    ids = sorted(set(labels.tolist()))
    cents = {c: points[labels == c].mean(axis=0) for c in ids}
    scat = {
        c: float(np.mean([np.linalg.norm(p - cents[c]) for p in points[labels == c]]))
        for c in ids
    }
    worst = []
    for i in ids:
        worst.append(max(
            (scat[i] + scat[j]) / float(np.linalg.norm(cents[i] - cents[j]))
            for j in ids if j != i
        ))
    return float(np.mean(worst))


def test_db_two_singletons_is_zero():
    points = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert davies_bouldin(points, [0, 1]) == 0.0


def test_db_matches_direct_oracle():
    rng = np.random.default_rng(13)
    for trial in range(5):
        points = rng.normal(0, 1, (20, 4))
        k = 2 + trial % 4
        labels = rng.integers(0, k, 20)
        labels[:k] = np.arange(k)
        assert davies_bouldin(points, labels) == pytest.approx(
            db_oracle(points, labels), abs=1e-9
        )


def test_db_coincident_centroids_rejected():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(CoincidentCentroids):
        davies_bouldin(points, [0, 0, 1, 1])


def test_db_single_cluster_rejected():
    with pytest.raises(SingleCluster):
        davies_bouldin(np.zeros((4, 2)), [0, 0, 0, 0])


# --- adjusted rand -----------------------------------------------------------------

def test_ari_identical_and_renamed():
    labels = [0, 0, 1, 1, 2]
    assert adjusted_rand_index(labels, labels) == 1.0
    renamed = [7, 7, 3, 3, 9]
    assert adjusted_rand_index(labels, renamed) == 1.0


def test_ari_known_value():
    value = adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1])
    assert value == pytest.approx(-0.5, abs=1e-12)


def test_ari_trivial_partitions():
    assert adjusted_rand_index([0, 1, 2], [5, 6, 7]) == 1.0
    assert adjusted_rand_index([0, 1, 2], [5, 5, 5]) == 0.0
    assert adjusted_rand_index([], []) == 1.0


def test_ari_shape_mismatch():
    with pytest.raises(ValueError):
        adjusted_rand_index([0, 1], [0, 1, 2])
