import io
import itertools
import math
import warnings

import numpy as np
import pytest

from mobgraph import reduce as reduce_mod
from mobgraph.errors import NonFiniteCoordinate, TooFewPoints
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
from mobgraph.seeding import rng_for


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
        indices, dists = knn_exact(points, k)
        for i in range(30):
            d = [float(np.linalg.norm(points[j] - points[i])) for j in range(30)]
            order = sorted((j for j in range(30) if j != i), key=lambda j: (d[j], j))
            assert list(indices[i]) == order[:k]
            assert np.allclose(dists[i], [d[j] for j in order[:k]],
                               rtol=0, atol=1e-12)


def reference_knn_exact(points, k):
    """The row-by-row kNN that knn_exact's whole-matrix version replaced."""
    n = points.shape[0]
    indices = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        d[i] = np.inf
        order = np.argsort(d, kind="stable")[:k]
        indices[i] = order
        dists[i] = d[order]
    return indices, dists


@pytest.mark.parametrize("kind", ["normal", "grid", "overflow"])
def test_knn_equals_reference_exactly(kind):
    # 1-5 dims, and the pipeline's 128-dim embeddings; small integer grids
    # are full of distance ties, and rows scaled by 1e200 overflow to inf.
    rng = np.random.default_rng(["normal", "grid", "overflow"].index(kind))
    with np.errstate(over="ignore"):
        for trial in range(30):
            n = int(rng.integers(6, 64))
            dim = 128 if trial % 5 == 0 else int(rng.integers(1, 6))
            if kind == "grid":
                points = rng.integers(0, 3, (n, dim)).astype(np.float64)
            else:
                points = rng.normal(0, 1, (n, dim))
                if kind == "overflow":
                    points[rng.random(n) < 0.3] *= 1e200
            for k in (1, 5):
                indices, dists = knn_exact(points, k)
                ref_indices, ref_dists = reference_knn_exact(points, k)
                assert np.array_equal(indices, ref_indices)
                assert np.array_equal(dists, ref_dists)


def test_knn_coincident_points_tie_to_lower_index():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
    indices, dists = knn_exact(points, 2)
    assert list(indices[2]) == [0, 1]
    assert list(dists[2]) == [0.0, 0.0]


def test_knn_k_equals_n_minus_one():
    points = np.arange(12, dtype=np.float64).reshape(6, 2)
    indices, _dists = knn_exact(points, 5)
    assert indices.shape == (6, 5)
    for i in range(6):
        assert i not in indices[i]


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
    assert np.array_equal(calibrated.rho, raw[1][:, 0])


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

def target_falloff(x):
    """The curve the layout's (a, b) is fitted to: min_dist 0.1, spread 1.0."""
    return np.where(x < 0.1, 1.0, np.exp(-(x - 0.1)))


def test_curve_fit_tracks_target():
    a, b = fit_curve_params()
    x = np.linspace(0.0, 3.0, 300)
    fitted = 1.0 / (1.0 + a * x ** (2.0 * b))
    assert np.max(np.abs(fitted - target_falloff(x))) < 0.05


def test_curve_fit_deterministic():
    assert fit_curve_params() == fit_curve_params()


def test_curve_fit_matches_layout_defaults():
    import inspect

    sig = inspect.signature(optimize_layout)
    assert fit_curve_params() == (sig.parameters["a"].default, sig.parameters["b"].default)


def test_pinned_default_curve_is_scipys_fit_bit_for_bit():
    from scipy.optimize import curve_fit

    xv = np.linspace(0.0, 3.0, 300)
    params, _ = curve_fit(lambda x, a, b: 1.0 / (1.0 + a * x ** (2.0 * b)),
                          xv, target_falloff(xv), p0=(1.0, 1.0))
    pinned = [x.hex() for x in fit_curve_params()]
    assert pinned == ["0x1.93b2910d7fed7p+0", "0x1.ca456b5c9a65dp-1"]
    assert pinned == [float(x).hex() for x in params]


# --- connectivity ------------------------------------------------------------------

def _random_symmetric(rng, n, density):
    upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), k=1)
    return upper + upper.T


def _connectivity_cases():
    rng = np.random.default_rng(31)
    cases = [_random_symmetric(rng, n, density)
             for n in (2, 3, 5, 8, 13, 21, 34) for density in (0.05, 0.15, 0.3, 0.6)
             for _ in range(4)]
    blocks = np.zeros((10, 10))
    blocks[:6, :6] = _random_symmetric(rng, 6, 1.0)
    blocks[6:, 6:] = _random_symmetric(rng, 4, 1.0)
    isolated = _random_symmetric(rng, 9, 1.0)
    isolated[4, :] = isolated[:, 4] = 0.0
    return cases + [blocks, isolated, np.zeros((1, 1)), np.zeros((7, 7)),
                    _random_symmetric(rng, 12, 1.0)]


def test_connectivity_sweep_matches_scipy_components():
    from scipy.sparse.csgraph import connected_components

    seen = set()
    for strengths in _connectivity_cases():
        expected = connected_components(strengths, return_labels=False) == 1
        assert reduce_mod._is_connected(strengths) == expected
        seen.add(expected)
    assert seen == {True, False}


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


def test_reduce_reports_the_init_mode_the_layout_used(monkeypatch, caplog):
    modes = []

    def counted(strengths, n_components):
        modes.append(layout_init_mode(strengths, n_components))
        return modes[-1]

    layout_init_mode = reduce_mod._layout_init_mode
    monkeypatch.setattr(reduce_mod, "_layout_init_mode", counted)
    points = np.random.default_rng(24).normal(0.0, 1.0, (20, 16))
    with caplog.at_level("INFO", logger="mobgraph.reduce"):
        _, info = reduce_embeddings(points, n_components=4, epochs=5, seed=0)
    # the report reads the mode that the layout asked for
    assert modes == ["spectral"]
    assert info["init"] == "spectral"
    assert "layout init: spectral" in caplog.messages


def test_layout_skips_tiny_corpus(caplog):
    strengths = np.zeros((4, 4))
    strengths[0, 1] = strengths[1, 0] = 1.0
    with caplog.at_level("WARNING", logger="mobgraph.reduce"):
        coords, _ = optimize_layout(FuzzyGraph(strengths), n_components=4, seed=0)
    assert coords.shape == (4, 4)
    assert any("skipping optimization" in m for m in caplog.messages)


def test_layout_of_a_graph_without_edges_is_its_random_init():
    coords, done = optimize_layout(FuzzyGraph(np.zeros((8, 8))), n_components=2, seed=3)
    assert done == {"init": "random", "optimized": True}
    assert coords.tobytes() == reduce_mod._random_init(8, 2, 3).tobytes()


def test_layout_rejects_bad_parameters():
    fuzzy = FuzzyGraph(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        optimize_layout(fuzzy, a=0.0)
    with pytest.raises(ValueError):
        optimize_layout(fuzzy, epochs=0)
    with pytest.raises(ValueError, match="negative_rate"):
        optimize_layout(fuzzy, negative_rate=0)
    with pytest.raises(ValueError):
        optimize_layout(FuzzyGraph(np.zeros((0, 0))))


def curve_power(x, y):
    """x ** y as the layout takes it, an array's ** a float: on a CPU with
    AVX-512, numpy computes it with SIMD code whose last bit can differ
    from Python's ** (and from numpy's scalar power)."""
    return float((np.array([x]) ** y)[0])


def reference_optimize_layout(fuzzy, n_components, a, b, epochs, negative_rate, seed):
    """The lockstep layout as plain loops over epochs, due edges and
    negative slots: one rng.integers draw per slot, every move from the
    coordinates at the epoch's start, and each point's moves summed from
    0.0 (as a head, as a tail, then as the owner of negative samples, each
    in edge and slot order) and added after the epoch. Initialization goes
    through the module's own functions, so a test that patches them
    patches both."""

    def clip(x):
        if x > 4.0:
            return 4.0
        if x < -4.0:
            return -4.0
        return x

    def squared_distance(p, q):
        d2 = 0.0
        for t in range(n_components):
            diff = p[t] - q[t]
            d2 += diff * diff
        return d2

    strengths = fuzzy.strengths
    n = strengths.shape[0]
    if reduce_mod._layout_init_mode(strengths, n_components) == "random":
        init = reduce_mod._random_init(n, n_components, seed)
    else:
        init = reduce_mod._spectral_init(strengths, n_components, seed)
    mx = float(strengths.max())
    mu = strengths.copy()
    mu[mu < mx / epochs] = 0.0
    heads, tails = np.nonzero(mu)
    eps_attract = mx / mu[heads, tails]
    next_attract = eps_attract.copy()
    eps_negative = eps_attract / negative_rate
    next_negative = eps_negative.copy()
    emb = [[float(x) for x in row] for row in init]
    rng = rng_for(seed, "layout")
    for epoch in range(epochs):
        alpha = 1.0 - epoch / epochs
        as_head, as_tail, as_owner = [], [], []  # (point, move) pairs
        for e in range(heads.shape[0]):
            if next_attract[e] > epoch:
                continue
            i, j = int(heads[e]), int(tails[e])
            cur, oth = emb[i], emb[j]
            d2 = squared_distance(cur, oth)
            if d2 > 0.0:
                coeff = (-2.0 * a * b * curve_power(d2, b - 1.0)) / (
                    a * curve_power(d2, b) + 1.0)
            else:
                coeff = 0.0
            move = [clip(coeff * (cur[t] - oth[t])) * alpha for t in range(n_components)]
            as_head.append((i, move))
            as_tail.append((j, [-x for x in move]))
            next_attract[e] += eps_attract[e]
            n_neg = int((epoch - next_negative[e]) / eps_negative[e])
            for _ in range(n_neg):
                kidx = int(rng.integers(0, n))
                if kidx == i:
                    continue
                oth = emb[kidx]
                d2 = squared_distance(cur, oth)
                if d2 > 0.0:
                    coeff = (2.0 * b) / ((0.001 + d2) * (a * curve_power(d2, b) + 1.0))
                    move = [clip(coeff * (cur[t] - oth[t])) * alpha
                            for t in range(n_components)]
                else:
                    move = [4.0 * alpha] * n_components
                as_owner.append((i, move))
            next_negative[e] += n_neg * eps_negative[e]
        sums = [[0.0] * n_components for _ in range(n)]
        for point, move in as_head + as_tail + as_owner:
            for t in range(n_components):
                sums[point][t] += move[t]
        for point in range(n):
            for t in range(n_components):
                emb[point][t] += sums[point][t]
    return np.array(emb, dtype=np.float64)


def fuzzy_for(points, n_neighbors=5):
    return fuzzy_union(smooth_knn(knn_exact(points, n_neighbors)))


def assert_matches_reference(fuzzy, n_components, negative_rate, epochs=60, seed=3):
    a, b = fit_curve_params()
    ours, _ = optimize_layout(fuzzy, n_components=n_components, a=a, b=b, epochs=epochs,
                           negative_rate=negative_rate, seed=seed)
    ref = reference_optimize_layout(fuzzy, n_components, a, b, epochs,
                                    negative_rate, seed)
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_components", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("negative_rate", [1, 5])
@pytest.mark.parametrize("init", ["random", "spectral"])
def test_layout_matches_reference(init, n_components, negative_rate):
    rng = np.random.default_rng(40 + n_components + negative_rate)
    if init == "random":  # two far blobs: the fuzzy graph is disconnected
        points = two_blobs(rng, separation=100.0)
    else:
        points = rng.normal(0.0, 1.0, (20, 16))
    fuzzy = fuzzy_for(points)
    assert reduce_mod._layout_init_mode(fuzzy.strengths, n_components) == init
    assert_matches_reference(fuzzy, n_components, negative_rate)


def test_layout_matches_reference_on_a_longer_run():
    fuzzy = fuzzy_for(np.random.default_rng(45).normal(0.0, 1.0, (30, 8)))
    # An edge fires strength/max times an epoch and draws negative_rate
    # noise points each time: tens of thousands of draws over the run.
    strengths = fuzzy.strengths
    assert (strengths / strengths.max()).sum() * 100 * 5 > 20_000
    assert_matches_reference(fuzzy, 4, 5, epochs=100)


def test_layout_matches_reference_on_coincident_points(monkeypatch):
    """Points laid out on top of each other take the d2 == 0 branches:
    attraction does nothing, repulsion moves by the clip bound."""
    def stacked_init(n, n_components, seed):
        return np.repeat(np.arange(n // 5, dtype=np.float64), 5)[:n, None] * np.ones(
            n_components)

    monkeypatch.setattr(reduce_mod, "_random_init", stacked_init)
    fuzzy = fuzzy_for(two_blobs(np.random.default_rng(46), separation=100.0))
    for n_components in (2, 4):
        assert_matches_reference(fuzzy, n_components, 5)


def test_layout_of_coincident_points_raises_no_warning(monkeypatch):
    """The d2 == 0 rows never evaluate 0.0 ** (b - 1), which divides by
    zero, not even in a branch whose value is thrown away."""
    monkeypatch.setattr(reduce_mod, "_random_init", lambda n, n_components, seed:
                        np.zeros((n, n_components)))
    fuzzy = fuzzy_for(two_blobs(np.random.default_rng(46), separation=100.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coords, _ = optimize_layout(fuzzy, n_components=2, epochs=20, seed=0)
    assert np.isfinite(coords).all()


def test_layout_sums_the_moves_of_edges_sharing_a_point():
    """In epoch 1 of 2 every edge of full strength fires once and, at
    negative_rate 1, draws no noise. Point 0 is in both edges 0-1 and 0-2,
    so it moves by the sum of what each edge alone moves it by; points 1
    and 2 each move as with their edge alone."""
    def layout(pairs):
        strengths = np.zeros((3, 3))
        for i, j in pairs:
            strengths[i, j] = strengths[j, i] = 1.0
        coords, _ = optimize_layout(FuzzyGraph(strengths), n_components=1, epochs=2,
                                    negative_rate=1, seed=4)
        return coords

    init = reduce_mod._random_init(3, 1, 4)
    both, first, second = layout([(0, 1), (0, 2)]), layout([(0, 1)]), layout([(0, 2)])
    assert first[0, 0] != init[0, 0] and second[0, 0] != init[0, 0]
    assert both[0, 0] - init[0, 0] == pytest.approx(
        (first[0, 0] - init[0, 0]) + (second[0, 0] - init[0, 0]), rel=1e-12)
    assert both[1, 0] == first[1, 0]
    assert both[2, 0] == second[2, 0]


def test_layout_stops_on_a_non_finite_coordinate(monkeypatch):
    def broken_init(n, n_components, seed):
        init = np.ones((n, n_components))
        init[2, 0] = np.inf
        return init

    monkeypatch.setattr(reduce_mod, "_random_init", broken_init)
    fuzzy = fuzzy_for(two_blobs(np.random.default_rng(46), separation=100.0))
    with pytest.raises(NonFiniteCoordinate, match="epoch 0"):
        optimize_layout(fuzzy, n_components=2, epochs=20, seed=0)


def test_layout_rejects_no_components():
    with pytest.raises(ValueError, match="n_components"):
        optimize_layout(FuzzyGraph(np.ones((8, 8))), n_components=0)


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
