import io
import itertools
import math

import numpy as np
import pytest

from mobgraph.errors import TooFewPoints
from mobgraph.reduce import (
    MIN_SIGMA_SCALE,
    SMOOTH_TOLERANCE,
    FuzzyGraph,
    NeighborGraph,
    fit_curve_params,
    fuzzy_union,
    knn_exact,
    optimize_layout,
    read_reduced_csv,
    reduce_embeddings,
    smooth_knn,
    write_reduced_csv,
)


def two_blobs(rng, per_blob=10, dim=16, separation=20.0):
    a = rng.normal(0.0, 1.0, (per_blob, dim))
    b = rng.normal(0.0, 1.0, (per_blob, dim))
    b[:, 0] += separation
    return np.vstack([a, b])


# --- exact kNN --------------------------------------------------------------------

def test_knn_matches_full_sort_oracle():
    rng = np.random.default_rng(11)
    for trial in range(10):
        points = rng.normal(0, 1, (30, 6))
        k = 5
        result = knn_exact(points, k)
        for i in range(30):
            d = [float(np.linalg.norm(points[j] - points[i])) for j in range(30)]
            order = sorted((j for j in range(30) if j != i), key=lambda j: (d[j], j))
            assert list(result.indices[i]) == order[:k]
            assert np.allclose(result.dists[i], [d[j] for j in order[:k]],
                               rtol=0, atol=1e-12)


def test_knn_coincident_points_tie_to_lower_index():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
    result = knn_exact(points, 2)
    assert list(result.indices[2]) == [0, 1]
    assert list(result.dists[2]) == [0.0, 0.0]


def test_knn_k_equals_n_minus_one():
    points = np.arange(12, dtype=np.float64).reshape(6, 2)
    result = knn_exact(points, 5)
    assert result.indices.shape == (6, 5)
    for i in range(6):
        assert i not in result.indices[i]


def test_knn_too_few_points():
    points = np.zeros((5, 3))
    with pytest.raises(TooFewPoints):
        knn_exact(points, 5)


# --- bandwidth calibration ----------------------------------------------------------

def test_smooth_knn_reproduces_target_sum():
    rng = np.random.default_rng(3)
    points = rng.normal(0, 1, (25, 8))
    neighbors = smooth_knn(knn_exact(points, 5))
    target = math.log2(5)
    for i in range(25):
        row = neighbors.dists[i]
        floor = MIN_SIGMA_SCALE * float(row.mean())
        if neighbors.sigma[i] <= floor:
            continue  # clamped rows are exempt from the fixed-point check
        psum = sum(
            math.exp(-(d - neighbors.rho[i]) / neighbors.sigma[i])
            if d > neighbors.rho[i] else 1.0
            for d in row
        )
        assert abs(psum - target) < SMOOTH_TOLERANCE


def test_smooth_knn_rho_is_nearest_distance():
    rng = np.random.default_rng(4)
    points = rng.normal(0, 1, (15, 3))
    raw = knn_exact(points, 4)
    calibrated = smooth_knn(raw)
    assert np.array_equal(calibrated.rho, raw.dists[:, 0])


def test_smooth_knn_equidistant_neighbors_hit_clamp():
    # regular tetrahedron: every neighbor gap is zero, so the target sum is
    # unreachable and sigma collapses onto the clamp
    points = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    neighbors = smooth_knn(knn_exact(points, 3))
    side = math.sqrt(8.0)
    for i in range(4):
        assert neighbors.sigma[i] == pytest.approx(MIN_SIGMA_SCALE * side, rel=1e-12)


def test_smooth_knn_all_coincident_falls_back_to_unit_base():
    points = np.zeros((5, 2))
    neighbors = smooth_knn(knn_exact(points, 2))
    assert np.all(neighbors.rho == 0.0)
    assert np.allclose(neighbors.sigma, MIN_SIGMA_SCALE, rtol=0, atol=0)


# --- fuzzy union -------------------------------------------------------------------

def test_union_requires_calibration():
    raw = knn_exact(np.arange(20, dtype=float).reshape(10, 2), 3)
    with pytest.raises(ValueError):
        fuzzy_union(raw)


def test_union_nearest_neighbor_strength_is_one():
    rng = np.random.default_rng(6)
    points = rng.normal(0, 1, (12, 4))
    neighbors = smooth_knn(knn_exact(points, 4))
    fuzzy = fuzzy_union(neighbors)
    for i in range(12):
        assert fuzzy.strengths[i, neighbors.indices[i, 0]] == pytest.approx(1.0, abs=1e-12)


def test_union_matrix_properties():
    rng = np.random.default_rng(7)
    points = rng.normal(0, 1, (15, 5))
    fuzzy = fuzzy_union(smooth_knn(knn_exact(points, 5)))
    s = fuzzy.strengths
    assert np.array_equal(s, s.T)
    assert np.all(np.diag(s) == 0.0)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_union_formula_half_half():
    # both directed strengths 0.5: union must be 0.5 + 0.5 - 0.25
    d = 1.0 + math.log(2.0)
    neighbors = NeighborGraph(
        indices=np.array([[1], [0]]),
        dists=np.array([[d], [d]]),
        rho=np.array([1.0, 1.0]),
        sigma=np.array([1.0, 1.0]),
    )
    fuzzy = fuzzy_union(neighbors)
    assert fuzzy.strengths[0, 1] == pytest.approx(0.75, abs=1e-12)


def test_union_formula_one_sided():
    # edge present in one direction only keeps full strength
    neighbors = NeighborGraph(
        indices=np.array([[1], [2], [1]]),
        dists=np.array([[1.0], [1.0], [1.0]]),
        rho=np.array([1.0, 1.0, 1.0]),
        sigma=np.array([1.0, 1.0, 1.0]),
    )
    fuzzy = fuzzy_union(neighbors)
    assert fuzzy.strengths[0, 1] == 1.0
    assert fuzzy.strengths[1, 0] == 1.0


def test_union_oracle_recomputation():
    rng = np.random.default_rng(8)
    points = rng.normal(0, 1, (10, 3))
    neighbors = smooth_knn(knn_exact(points, 3))
    fuzzy = fuzzy_union(neighbors)
    directed = np.zeros((10, 10))
    for i in range(10):
        for j, d in zip(neighbors.indices[i], neighbors.dists[i]):
            gap = d - neighbors.rho[i]
            directed[i, j] = 1.0 if gap <= 0 else math.exp(-gap / neighbors.sigma[i])
    expected = directed + directed.T - directed * directed.T
    assert np.allclose(fuzzy.strengths, expected, rtol=0, atol=1e-14)


# --- falloff curve -----------------------------------------------------------------

def test_curve_fit_tracks_target():
    a, b = fit_curve_params(min_dist=0.1, spread=1.0)
    x = np.linspace(0.0, 3.0, 300)
    target = np.where(x < 0.1, 1.0, np.exp(-(x - 0.1)))
    fitted = 1.0 / (1.0 + a * x ** (2.0 * b))
    assert np.max(np.abs(fitted - target)) < 0.05


def test_curve_fit_deterministic():
    assert fit_curve_params(0.1, 1.0) == fit_curve_params(0.1, 1.0)


def test_curve_fit_matches_layout_defaults():
    import inspect

    a, b = fit_curve_params()
    sig = inspect.signature(optimize_layout)
    assert a == pytest.approx(sig.parameters["a"].default, abs=2e-3)
    assert b == pytest.approx(sig.parameters["b"].default, abs=2e-3)


def test_curve_fit_monotone_in_min_dist():
    fits = [fit_curve_params(md, 1.0) for md in (0.01, 0.1, 0.5)]
    a_vals = [f[0] for f in fits]
    b_vals = [f[1] for f in fits]
    assert a_vals[0] > a_vals[1] > a_vals[2]
    assert b_vals[0] < b_vals[1] < b_vals[2]


@pytest.mark.parametrize("min_dist,spread", [(0.0, 1.0), (-0.1, 1.0), (2.0, 1.0)])
def test_curve_fit_rejects_bad_arguments(min_dist, spread):
    with pytest.raises(ValueError):
        fit_curve_params(min_dist, spread)


# --- layout ------------------------------------------------------------------------

def test_layout_shape_and_finiteness():
    rng = np.random.default_rng(21)
    points = two_blobs(rng)
    coords, info = reduce_embeddings(points, n_components=4, seed=0)
    assert coords.shape == (20, 4)
    assert np.isfinite(coords).all()
    assert info["optimized"] is True
    assert info["init"] in {"spectral", "random"}
    assert info["a"] > 0 and info["b"] > 0


def test_layout_deterministic_per_seed():
    rng = np.random.default_rng(22)
    points = two_blobs(rng)
    c1, _ = reduce_embeddings(points, seed=5)
    c2, _ = reduce_embeddings(points, seed=5)
    c3, _ = reduce_embeddings(points, seed=6)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)


def test_layout_separates_distant_blobs():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        points = two_blobs(rng, per_blob=10, dim=16, separation=20.0)
        coords, _ = reduce_embeddings(points, n_components=2, seed=seed)
        intra = max(
            float(np.linalg.norm(coords[i] - coords[j]))
            for block in (range(10), range(10, 20))
            for i, j in itertools.combinations(block, 2)
        )
        inter = min(
            float(np.linalg.norm(coords[i] - coords[j]))
            for i in range(10) for j in range(10, 20)
        )
        if intra < inter:
            wins += 1
    assert wins >= 8, f"blobs stayed separated for only {wins}/10 seeds"


def test_layout_init_random_when_fuzzy_graph_disconnected(caplog):
    points = two_blobs(np.random.default_rng(23), separation=100.0)
    with caplog.at_level("INFO", logger="mobgraph.reduce"):
        _, info = reduce_embeddings(points, n_components=4, epochs=5, seed=0)
    assert info["init"] == "random"
    assert "layout init: random" in caplog.messages


def test_layout_init_spectral_when_connected(caplog):
    points = np.random.default_rng(24).normal(0.0, 1.0, (20, 16))  # n >= 4*4
    with caplog.at_level("INFO", logger="mobgraph.reduce"):
        _, info = reduce_embeddings(points, n_components=4, epochs=5, seed=0)
    assert info["init"] == "spectral"
    assert "layout init: spectral" in caplog.messages


def test_layout_skips_tiny_corpus(caplog):
    strengths = np.zeros((4, 4))
    strengths[0, 1] = strengths[1, 0] = 1.0
    with caplog.at_level("WARNING", logger="mobgraph.reduce"):
        coords = optimize_layout(FuzzyGraph(strengths), n_components=4, seed=0)
    assert coords.shape == (4, 4)
    assert any("skipping optimization" in m for m in caplog.messages)


def test_layout_rejects_bad_parameters():
    fuzzy = FuzzyGraph(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        optimize_layout(fuzzy, a=0.0)
    with pytest.raises(ValueError):
        optimize_layout(fuzzy, epochs=0)
    with pytest.raises(ValueError):
        optimize_layout(FuzzyGraph(np.zeros((0, 0))))


# --- persistence -------------------------------------------------------------------

def test_reduced_csv_round_trip():
    ids = ["g0", "g1"]
    coords = np.array([[0.5, -1.25, 3.0, 0.0], [1.0, 2.0, -0.5, 4.75]])
    buf = io.StringIO()
    write_reduced_csv(ids, coords, buf)
    text = buf.getvalue()
    assert text.startswith("graph_id,u0,u1,u2,u3\n")
    back_ids, back = read_reduced_csv(io.StringIO(text))
    assert back_ids == ids
    assert np.array_equal(back, coords)
