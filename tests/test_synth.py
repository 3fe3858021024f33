import hashlib
import io
import json
import math

import numpy as np
import pytest

from mobgraph.errors import InvalidConfig
from mobgraph.ingest import build_co_commenter_graph, write_comments_csv
from mobgraph.synth import (
    MobSpec,
    SynthConfig,
    generate_corpus,
    two_family_config,
    validate_config,
    write_ground_truth,
)


def test_generation_is_deterministic():
    config = two_family_config(seed=3, n_channels=4, videos_per_channel=5,
                               organic_commenters=8)
    records_a, truth_a = generate_corpus(config)
    records_b, truth_b = generate_corpus(config)
    assert records_a == records_b
    assert truth_a == truth_b
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_comments_csv(records_a, buf_a)
    write_comments_csv(records_b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


# The corpora of perfbench/workloads.py at seed 0, whose CSV bytes are the
# benchmark's input files: those change if any of these records do.
@pytest.mark.parametrize("size,records,digest", [
    (dict(n_channels=12, videos_per_channel=40, organic_commenters=100), 8434,
     "298791522429e24b9039520d381098f7d22534d555f47ae4168a2dd294b1121b"),
    (dict(n_channels=60, videos_per_channel=20, organic_commenters=30,
          heavy_mob_size=8, heavy_mob_prob=0.5), 9055,
     "a58dba3686f8a7996a4da65f18eab668cc65aaef8552ae7f79e03019e802481a"),
    (dict(n_channels=12, videos_per_channel=40, organic_commenters=50), 6065,
     "c863d4dc387f743870c3711839192fbfdb2f19f64de7e5d6d0c32c01d7f831f9"),
], ids=["census_dense", "many_sparse", "stagewise_jsonl"])
def test_benchmark_corpora_are_pinned(size, records, digest):
    corpus, _ = generate_corpus(two_family_config(seed=0, **size))
    buf = io.StringIO()
    write_comments_csv(corpus, buf)
    assert len(corpus) == records
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_seed_changes_corpus():
    base = two_family_config(seed=0, n_channels=4, videos_per_channel=5,
                             organic_commenters=8)
    other = two_family_config(seed=1, n_channels=4, videos_per_channel=5,
                              organic_commenters=8)
    assert generate_corpus(base)[0] != generate_corpus(other)[0]


def test_identifier_shapes_and_uniqueness():
    config = SynthConfig(n_channels=3, videos_per_channel=2, organic_commenters=4,
                         organic_prob=1.0, seed=1)
    records, truth = generate_corpus(config)
    assert sorted({r.channel_id for r in records}) == ["ch00", "ch01", "ch02"]
    assert all(r.video_id.startswith(r.channel_id + "_v") for r in records)
    assert all(r.commenter_id.startswith(r.channel_id + "_u") for r in records)
    comment_ids = [r.comment_id for r in records]
    assert len(comment_ids) == len(set(comment_ids))
    assert len(records) == 3 * 2 * 4  # prob 1.0: every commenter on every video


def test_sure_mob_forms_full_weight_clique():
    config = SynthConfig(
        n_channels=1,
        videos_per_channel=7,
        organic_commenters=0,
        mobs=[MobSpec(size=5, channels=[0], prob=1.0)],
        seed=2,
    )
    records, truth = generate_corpus(config)
    graph = build_co_commenter_graph(records, "ch00")
    members = sorted(truth.commenter_mobs)
    assert graph.nodes() == members
    edges = graph.edges()
    assert len(edges) == 10  # complete graph on five members
    assert all(w == 7.0 for _u, _v, w in edges)


def test_organic_edge_count_tracks_expectation():
    # commenters i, j share a video with prob p*p, some video with
    # 1 - (1 - p*p)^V; edges are C(N,2) weakly correlated indicators
    n, v, p = 30, 20, 0.2
    q = 1.0 - (1.0 - p * p) ** v
    expected = math.comb(n, 2) * q
    sigma_one = math.sqrt(math.comb(n, 2) * q * (1 - q)) * 2.0  # inflate for correlation
    runs = 30
    counts = []
    for seed in range(runs):
        config = SynthConfig(n_channels=1, videos_per_channel=v,
                             organic_commenters=n, organic_prob=p, seed=seed)
        records, _ = generate_corpus(config)
        counts.append(len(build_co_commenter_graph(records, "ch00").edges()))
    mean = float(np.mean(counts))
    bound = 3.0 * sigma_one / math.sqrt(runs)
    assert abs(mean - expected) < bound, (mean, expected, bound)


def test_default_family_labels():
    config = SynthConfig(
        n_channels=2, videos_per_channel=2, organic_commenters=2,
        mobs=[MobSpec(size=2, channels=[0], prob=0.5)], seed=0,
    )
    _, truth = generate_corpus(config)
    assert truth.channel_families == {"ch00": "mobbed", "ch01": "organic"}


def test_explicit_family_labels():
    config = SynthConfig(n_channels=2, videos_per_channel=1, organic_commenters=1,
                         families=["x", "y"], seed=0)
    _, truth = generate_corpus(config)
    assert truth.channel_families == {"ch00": "x", "ch01": "y"}


def test_mob_membership_ground_truth():
    config = SynthConfig(
        n_channels=1, videos_per_channel=1, organic_commenters=0,
        mobs=[MobSpec(size=2, channels=[0], prob=1.0),
              MobSpec(size=1, channels=[0], prob=1.0)],
        seed=0,
    )
    _, truth = generate_corpus(config)
    assert truth.commenter_mobs == {
        "mob00_u00": "mob00",
        "mob00_u01": "mob00",
        "mob01_u00": "mob01",
    }


def test_two_family_layout():
    config = two_family_config(seed=0)
    assert config.n_channels == 20
    assert config.families == ["heavy"] * 10 + ["light"] * 10
    assert [m.size for m in config.mobs] == [12, 12, 12, 12, 3, 3]
    heavy_channels = set(range(10))
    for mob in config.mobs[:4]:
        assert set(mob.channels) <= heavy_channels
    for mob in config.mobs[4:]:
        assert set(mob.channels) <= set(range(10, 20))
    covered = set()
    for mob in config.mobs:
        covered |= set(mob.channels)
    assert covered == set(range(20))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_two_family_rejects_bad_sizes(n):
    with pytest.raises(InvalidConfig):
        two_family_config(n_channels=n)


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(n_channels=0),
        SynthConfig(videos_per_channel=0),
        SynthConfig(organic_commenters=-1),
        SynthConfig(organic_prob=1.5),
        SynthConfig(mobs=[MobSpec(size=0, channels=[0], prob=0.5)]),
        SynthConfig(mobs=[MobSpec(size=2, channels=[0], prob=-0.1)]),
        SynthConfig(mobs=[MobSpec(size=2, channels=[99], prob=0.5)]),
        SynthConfig(n_channels=3, families=["a", "b"]),
    ],
)
def test_validate_config_rejects(config):
    with pytest.raises(InvalidConfig):
        validate_config(config)


def test_ground_truth_json():
    config = SynthConfig(n_channels=1, videos_per_channel=1, organic_commenters=1,
                         mobs=[MobSpec(size=1, channels=[0], prob=1.0)], seed=0)
    _, truth = generate_corpus(config)
    buf = io.StringIO()
    write_ground_truth(truth, buf)
    payload = json.loads(buf.getvalue())
    assert payload == {
        "channel_families": truth.channel_families,
        "commenter_mobs": truth.commenter_mobs,
    }
