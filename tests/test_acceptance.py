"""Release gate: ten checks, one printed pass/fail line each.

Every test prints its verdict before asserting, so a full run always shows
the complete scoreboard (pytest -rP, or -v with -rP, surfaces the lines).
"""

import itertools
import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist
from xml.etree import ElementTree as ET

from conftest import make_graph, permuted_copy, random_graph
from mobgraph.cli import main
from mobgraph.cliques import clique_census, maximal_cliques
from mobgraph.cluster import (
    adjusted_rand_index,
    cophenetic_correlation,
    cut_tree,
    davies_bouldin,
    silhouette_score,
    single_linkage,
)
from mobgraph.embed import (
    build_vocabulary,
    cosine_similarity,
    pair_gradients,
    pair_objective,
    train_embeddings,
)
from mobgraph.gexf import read_gexf, write_gexf
from mobgraph.ingest import build_co_commenter_graph, channels_in
from mobgraph.pipeline import PipelineConfig, run_pipeline, strip_timings
from mobgraph.reduce import (
    SMOOTH_TOLERANCE,
    MIN_SIGMA_SCALE,
    fit_curve_params,
    knn_exact,
    reduce_embeddings,
    smooth_knn,
)
from mobgraph.synth import SynthConfig, MobSpec, generate_corpus
from mobgraph.wl import extract_document


def _report(num, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"[{verdict}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    """comments.csv from `synth` at its defaults, seed 0."""
    path = tmp_path_factory.mktemp("corpus0")
    assert main(["synth", "--out", str(path), "--seed", "0"]) == 0
    return path / "comments.csv"


def test_criterion_1_synthetic_reproduction(tmp_path_factory):
    wins = 0
    outcomes = []
    slowest = 0.0
    for seed in range(10):
        work = tmp_path_factory.mktemp(f"c1_seed{seed}")
        assert main(["synth", "--out", str(work), "--seed", str(seed)]) == 0
        started = time.perf_counter()
        report = run_pipeline(PipelineConfig(
            input=str(work / "comments.csv"), out=str(work / "out"), seed=seed,
        ))
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        truth = json.loads((work / "truth.json").read_text())["channel_families"]
        channels = report["channels"]
        planted = [truth[c] for c in channels]
        predicted = [report["clustering"]["kmeans"]["labels"][c] for c in channels]
        k = report["clustering"]["kmeans"]["selected_k"]
        ari = adjusted_rand_index(
            np.array([0 if f == "heavy" else 1 for f in planted]),
            np.array(predicted),
        )
        win = k == 2 and ari >= 0.9
        wins += win
        outcomes.append(f"seed {seed}: k={k} ari={ari:.3f}")
    ok = wins >= 8 and slowest < 60.0
    _report(
        1,
        "20-channel two-family synthetic corpus: k=2 and ARI >= 0.9 "
        "for >= 8/10 seeds, < 60 s per run",
        ok,
        f"wins={wins}/10, slowest={slowest:.1f}s; " + "; ".join(outcomes),
    )


def test_criterion_2_wl_isomorphism_invariance():
    rng = np.random.default_rng(2024)
    matched = 0
    for trial in range(100):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        p, _mapping = permuted_copy(rng, g)
        if all(
            Counter(extract_document(g, h).tokens)
            == Counter(extract_document(p, h).tokens)
            for h in (0, 1, 2)
        ):
            matched += 1
    _report(
        2,
        "WL token multisets invariant under node permutation, "
        "100/100 graphs at 0, 1, 2 iterations",
        matched == 100,
        f"matched {matched}/100",
    )


def _exhaustive_maximal_cliques(graph):
    nodes = graph.nodes()
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    adj = [0] * n
    for u, v, _w in graph.edges():
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    found = set()
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(adj[i] & mask != mask & ~(1 << i) for i in members):
            continue
        if any(adj[v] & mask == mask for v in range(n) if not mask >> v & 1):
            continue
        found.add(frozenset(nodes[i] for i in members))
    return found


def test_criterion_3_clique_oracle_equivalence():
    rng = np.random.default_rng(333)
    probs = [0.2, 0.4, 0.6]
    failures = []
    for trial in range(50):
        p = probs[trial % 3]
        n = int(rng.integers(2, 16))
        g = random_graph(rng, n, p, name=f"g{trial}")
        oracle = _exhaustive_maximal_cliques(g)
        ours = set(maximal_cliques(g))
        if ours != oracle:
            failures.append(f"trial {trial}: clique sets differ")
            continue
        for min_size in range(1, 7):
            expected = sum(1 for c in oracle if len(c) >= min_size)
            if clique_census(g, min_size=min_size).count != expected:
                failures.append(f"trial {trial}: census mismatch at {min_size}")
    _report(
        3,
        "maximal cliques equal the exhaustive subset oracle on 50 graphs, "
        "census counts agree for min_size 1..6",
        not failures,
        "; ".join(failures[:3]),
    )


def _silhouette_oracle(points, labels):
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


def _db_oracle(points, labels):
    ids = sorted(set(labels.tolist()))
    cents = {c: points[labels == c].mean(axis=0) for c in ids}
    scat = {
        c: float(np.mean([np.linalg.norm(x - cents[c]) for x in points[labels == c]]))
        for c in ids
    }
    return float(np.mean([
        max((scat[i] + scat[j]) / float(np.linalg.norm(cents[i] - cents[j]))
            for j in ids if j != i)
        for i in ids
    ]))


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(444)
    worst = {"silhouette": 0.0, "davies_bouldin": 0.0, "cophenetic": 0.0}
    for trial in range(20):
        points = rng.normal(0, 1, (20, 4))
        k = 2 + trial % 4
        labels = rng.integers(0, k, 20)
        labels[:k] = np.arange(k)
        worst["silhouette"] = max(
            worst["silhouette"],
            abs(silhouette_score(points, labels) - _silhouette_oracle(points, labels)),
        )
        worst["davies_bouldin"] = max(
            worst["davies_bouldin"],
            abs(davies_bouldin(points, labels) - _db_oracle(points, labels)),
        )
        dendrogram = single_linkage(points)
        z = scipy_linkage(points, method="single")
        oracle_corr, _ = cophenet(z, pdist(points))
        worst["cophenetic"] = max(
            worst["cophenetic"],
            abs(cophenetic_correlation(dendrogram, points) - float(oracle_corr)),
        )
    ok = all(v < 1e-9 for v in worst.values())
    _report(
        4,
        "silhouette, Davies-Bouldin, cophenetic correlation within 1e-9 of "
        "direct oracles on 20 instances",
        ok,
        ", ".join(f"{k} worst {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_5_single_linkage_correctness():
    rng = np.random.default_rng(555)
    failures = []
    for trial in range(20):
        n = int(rng.integers(5, 25))
        points = rng.normal(0, 1, (n, 3))
        dendrogram = single_linkage(points)
        heights = [m[2] for m in dendrogram.merges]
        diff = points[:, None, :] - points[None, :, :]
        dense = np.sqrt((diff * diff).sum(axis=2))
        mst = minimum_spanning_tree(dense).toarray()
        mst_weights = sorted(float(w) for w in mst.ravel() if w > 0)
        if len(heights) != len(mst_weights) or any(
            abs(h - w) > 1e-12 for h, w in zip(heights, mst_weights)
        ):
            failures.append(f"trial {trial}: heights differ from MST")
            continue
        for k in range(1, n):
            coarse = cut_tree(dendrogram, k)
            fine = cut_tree(dendrogram, k + 1)
            owners = {}
            for fc in set(fine.tolist()):
                parent = {int(coarse[i]) for i in range(n) if fine[i] == fc}
                if len(parent) != 1:
                    failures.append(f"trial {trial}: k={k} not a refinement")
                    break
                owners.setdefault(parent.pop(), []).append(fc)
            else:
                split = sum(1 for kids in owners.values() if len(kids) == 2)
                whole = sum(1 for kids in owners.values() if len(kids) == 1)
                if split != 1 or whole != k - 1 or split + whole != len(owners):
                    failures.append(f"trial {trial}: k={k} split count wrong")
    _report(
        5,
        "merge heights equal sorted Euclidean MST weights within 1e-12; "
        "cut_tree(k) -> cut_tree(k+1) splits exactly one cluster",
        not failures,
        "; ".join(failures[:3]),
    )


def _cycle(n, name):
    return make_graph([(f"v{i}", f"v{(i + 1) % n}") for i in range(n)], name)


def _star(n_leaves, name):
    return make_graph([("hub", f"leaf{i}") for i in range(n_leaves)], name)


def test_criterion_6_embedding_separation_and_gradients():
    documents = [extract_document(_cycle(12, f"cyc{i}"), 2) for i in range(10)]
    documents += [extract_document(_star(12, f"star{i}"), 2) for i in range(10)]
    vocab = build_vocabulary(documents, min_count=5)
    wins = 0
    for seed in range(10):
        matrix = train_embeddings(documents, vocab, dim=128, seed=seed, epochs=10)
        intra, inter = [], []
        for i, j in itertools.combinations(range(20), 2):
            sim = cosine_similarity(matrix.vectors[i], matrix.vectors[j])
            ((intra if (i < 10) == (j < 10) else inter)).append(sim)
        wins += np.mean(intra) > np.mean(inter)

    rng = np.random.default_rng(666)
    worst_rel = 0.0
    for _ in range(20):
        dim = 6
        doc_vec = rng.normal(0, 0.8, dim)
        token_vecs = rng.normal(0, 0.8, (5, dim))
        labels = np.zeros(5)
        labels[0] = 1.0
        grad_doc, grad_tokens = pair_gradients(doc_vec, token_vecs, labels)
        h = 1e-6
        for t in range(dim):
            bumped = doc_vec.copy()
            bumped[t] += h
            plus = pair_objective(bumped, token_vecs, labels)
            bumped[t] -= 2 * h
            minus = pair_objective(bumped, token_vecs, labels)
            fd = (plus - minus) / (2 * h)
            scale = max(abs(grad_doc[t]), abs(fd), 1e-8)
            worst_rel = max(worst_rel, abs(grad_doc[t] - fd) / scale)
        for r in range(5):
            for t in range(dim):
                bumped = token_vecs.copy()
                bumped[r, t] += h
                plus = pair_objective(doc_vec, bumped, labels)
                bumped[r, t] -= 2 * h
                minus = pair_objective(doc_vec, bumped, labels)
                fd = (plus - minus) / (2 * h)
                scale = max(abs(grad_tokens[r, t]), abs(fd), 1e-8)
                worst_rel = max(worst_rel, abs(grad_tokens[r, t] - fd) / scale)
    ok = wins >= 9 and worst_rel < 1e-5
    _report(
        6,
        "intra-family cosine beats inter-family for >= 9/10 seeds; "
        "objective gradients match finite differences within 1e-5",
        ok,
        f"wins={wins}/10, worst rel err={worst_rel:.2e}",
    )


def test_criterion_7_reduction_structure_preservation():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(7000 + seed)
        blob_a = rng.normal(0.0, 1.0, (10, 128))
        blob_b = rng.normal(0.0, 1.0, (10, 128))
        blob_b[:, 0] += 20.0
        points = np.vstack([blob_a, blob_b])
        coords, _info = reduce_embeddings(points, n_components=4, seed=seed)
        intra = max(
            float(np.linalg.norm(coords[i] - coords[j]))
            for block in (range(10), range(10, 20))
            for i, j in itertools.combinations(block, 2)
        )
        inter = min(
            float(np.linalg.norm(coords[i] - coords[j]))
            for i in range(10) for j in range(10, 20)
        )
        wins += intra < inter

    rng = np.random.default_rng(777)
    cal_points = rng.normal(0, 1, (30, 8))
    neighbors = smooth_knn(knn_exact(cal_points, 5))
    target = math.log2(5)
    worst_gap = 0.0
    for i in range(30):
        row = neighbors.dists[i]
        if neighbors.sigma[i] <= MIN_SIGMA_SCALE * float(row.mean()):
            continue
        psum = sum(
            math.exp(-(d - neighbors.rho[i]) / neighbors.sigma[i])
            if d > neighbors.rho[i] else 1.0
            for d in row
        )
        worst_gap = max(worst_gap, abs(psum - target))

    a, b = fit_curve_params()
    x = np.linspace(0.0, 3.0, 300)
    psi = np.where(x < 0.1, 1.0, np.exp(-(x - 0.1)))
    fitted = 1.0 / (1.0 + a * x ** (2.0 * b))
    curve_dev = float(np.max(np.abs(fitted - psi)))

    ok = wins >= 8 and worst_gap < SMOOTH_TOLERANCE and curve_dev < 0.05
    _report(
        7,
        "two 20-sigma 128-d blobs stay separated in 4-d for >= 8/10 seeds; "
        "smooth-kNN solves to log2(k) within 1e-5; curve fit within 0.05",
        ok,
        f"wins={wins}/10, sigma gap={worst_gap:.2e}, curve dev={curve_dev:.3f}",
    )


def test_criterion_8_determinism(default_corpus, tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(input=str(default_corpus), out=str(out), seed=0, threads=1)
    first_report = strip_timings(run_pipeline(config))
    tracked = ["embeddings.csv", "reduced.csv", "cliques.csv"]
    first = {name: (out / name).read_bytes() for name in tracked}
    second_report = strip_timings(run_pipeline(config))
    second = {name: (out / name).read_bytes() for name in tracked}
    stable = [name for name in tracked if first[name] == second[name]]
    ok = stable == tracked and first_report == second_report
    _report(
        8,
        "two single-threaded runs: byte-identical embeddings.csv, reduced.csv, "
        "cliques.csv, and report minus timings",
        ok,
        f"stable files: {stable}, report equal: {first_report == second_report}",
    )


def test_criterion_9_gexf_round_trip(tmp_path):
    rng = np.random.default_rng(999)
    ns = "http://www.gexf.net/1.2draft"
    failures = []
    for trial in range(100):
        n = int(rng.integers(0, 25))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.8)),
                         name=f"g{trial}", max_weight=5)
        path = tmp_path / f"g{trial}.gexf"
        write_gexf(g, path)
        back = read_gexf(path)
        if back != g or back.name != g.name:
            failures.append(f"trial {trial}: round trip changed the graph")
            continue
        root = ET.parse(path).getroot()
        graph_el = root.find(f"{{{ns}}}graph")
        structural = (
            root.tag == f"{{{ns}}}gexf"
            and root.get("version") == "1.2"
            and graph_el is not None
            and graph_el.get("defaultedgetype") == "undirected"
            and graph_el.find(f"{{{ns}}}nodes") is not None
            and graph_el.find(f"{{{ns}}}edges") is not None
            and all(
                node.get("id") is not None
                for node in graph_el.find(f"{{{ns}}}nodes")
            )
            and all(
                edge.get("source") is not None and edge.get("target") is not None
                for edge in graph_el.find(f"{{{ns}}}edges")
            )
        )
        if not structural:
            failures.append(f"trial {trial}: structure checks failed")
    _report(
        9,
        "100 random graphs survive GEXF write/read exactly and the files "
        "carry 1.2 structure",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_10_co_commenter_weights():
    rng = np.random.default_rng(1010)
    failures = []
    for trial in range(10):
        config = SynthConfig(
            n_channels=3,
            videos_per_channel=int(rng.integers(3, 9)),
            organic_commenters=int(rng.integers(5, 14)),
            organic_prob=float(rng.uniform(0.15, 0.5)),
            mobs=[MobSpec(
                size=int(rng.integers(2, 5)),
                channels=[0, 1],
                prob=float(rng.uniform(0.3, 0.9)),
            )],
            seed=trial,
        )
        records, _ = generate_corpus(config)
        for channel in channels_in(records):
            graph = build_co_commenter_graph(records, channel)
            videos_by_commenter = {}
            for r in records:
                if r.channel_id != channel:
                    continue
                videos_by_commenter.setdefault(r.commenter_id, set()).add(r.video_id)
            expected = {}
            commenters = sorted(videos_by_commenter)
            for i, u in enumerate(commenters):
                for v in commenters[i + 1:]:
                    shared = len(videos_by_commenter[u] & videos_by_commenter[v])
                    if shared >= 1:
                        expected[(u, v)] = float(shared)
            ours = {(u, v): w for u, v, w in graph.edges()}
            if ours != expected:
                failures.append(f"trial {trial} {channel}: weights differ")
        shuffled = list(records)
        rng.shuffle(shuffled)
        for channel in channels_in(records):
            if build_co_commenter_graph(shuffled, channel) != build_co_commenter_graph(
                records, channel
            ):
                failures.append(f"trial {trial} {channel}: order dependence")
    _report(
        10,
        "edge weights equal brute-force shared-video counts and are "
        "input-order invariant",
        not failures,
        "; ".join(failures[:3]),
    )
