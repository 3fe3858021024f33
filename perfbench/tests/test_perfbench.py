"""Tests of the benchmark itself, on corpora the size of the synth defaults.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from reference import expected as reference_counts

END_TO_END = {
    "wall_s": "s", "comments_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "failed_frac": "fraction",
    "ingest.parse_s": "s", "ingest.records": "count",
    "ingest.graph_build_s": "s", "ingest.edges": "count",
    "gexf.write_s": "s", "gexf.bytes": "bytes",
    "wl.extract_s": "s", "wl.tokens": "count",
    "embed.train_s": "s", "embed.updates": "count", "embed.kept_frac": "fraction",
    "reduce.neighbors_s": "s", "reduce.curve_fit_s": "s", "reduce.layout_s": "s",
    "reduce.layout_edges": "count",
    "cluster.compute_s": "s",
    "cliques.census_s": "s", "cliques.channel_p50_s": "s", "cliques.channel_max_s": "s",
    "cliques.enumerated": "count", "cliques.counted": "count", "cliques.per_s": "1/s",
    "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}

# Every workload shrunk to the synth defaults: 20 channels x 40 videos x 50.
SMALL = {
    name: dataclasses.replace(w, channels=20, videos=40, organic=50)
    for name, w in workloads.WORKLOADS.items()
}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", SMALL)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_declares_the_printed_names():
    assert run.units("end_to_end") == END_TO_END
    assert run.units("per_layer") == PER_LAYER
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(small, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for metric, unit in want.items():
        assert f"\n{metric} " in out and out.split(f"\n{metric} ", 1)[1].split("\n")[0].endswith(f" {unit}")
    # Times are measured on every workload, never a constant 0.
    assert all(m["value"] > 0 for m in result["metrics"].values()
               if m["unit"] == "s" or not trace)
    assert "# stage " in out


def test_altered_clique_count_counts_as_failed(small, tmp_path):
    workload = SMALL["census_dense"]
    source = tmp_path / "comments.csv"
    workloads.write_corpus(workloads.corpus(workload, 0), str(source), "csv")
    truth = reference_counts(str(source), "csv", workloads.CLIQUE_MIN_SIZE)
    tampered = dataclasses.replace(truth, counts=dict(truth.counts))
    tampered.counts["ch00"] += 1

    record = run.run_workload(workload, 0, 0, False, tmp_path, expected=tampered)
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1

    # The same outputs pass against the true counts, and fail once the
    # program's own report is altered for one channel.
    out = tmp_path / "out"
    assert run.check(workload, out, {}, truth) == []
    report = json.loads((out / "report.json").read_text())
    report["cliques"]["counts"]["ch03"] += 1
    (out / "report.json").write_text(json.dumps(report))
    assert run.check(workload, out, {}, truth) == [
        f"ch03: {truth.counts['ch03'] + 1} cliques, expected {truth.counts['ch03']}"
    ]


def test_seed_changes_the_corpus_and_nothing_else(tmp_path):
    for workload in SMALL.values():
        first, again, other = (workloads.corpus(workload, s) for s in (0, 0, 1))
        assert first == again
        assert first != other
        assert {r[0] for r in first} == {r[0] for r in other}
        # The processes a repetition starts do not depend on the seed: the
        # program receives the seed only through the input file.
        plans = [
            workloads.commands(workload, "child.py", "in", "out", "result.json", trace)
            for trace in (None, "trace")
        ]
        for plan in plans:
            assert all(arg != "--seed" for _label, argv in plan for arg in argv)
        paths = []
        for seed in (0, 1):
            path = tmp_path / f"{workload.name}-{seed}.{workload.suffix}"
            workloads.write_corpus(workloads.corpus(workload, seed), str(path),
                                   workload.format)
            paths.append(path.read_bytes())
        assert paths[0] != paths[1]


def test_self_time_subtracts_children_and_merges_threads():
    spans = [
        [1, None, "pipeline.run_pipeline", "pipeline", 0.0, 10.0, 0.0, {}],
        [2, 1, "cliques.clique_census", "cliques", 1.0, 4.0, 0.0, {}],
        [3, 1, "cliques.clique_census", "cliques", 2.0, 5.0, 0.0, {}],  # other thread
        [4, 1, "embed.train_embeddings", "embed", 6.0, 8.0, 0.0, {}],
        [5, 4, "embed.build_vocabulary", "embed", 6.5, 7.0, 0.0, {}],
    ]
    self_s = tracing.layer_self_times(spans)
    assert self_s == pytest.approx({"pipeline": 4.0, "cliques": 4.0, "embed": 2.0})
    assert sum(self_s.values()) == pytest.approx(10.0)  # the root span's length


def test_tracer_records_spans_without_changing_results():
    from mobgraph import cliques, synth, ingest

    records, _ = synth.generate_corpus(synth.two_family_config(n_channels=4))
    graph = ingest.build_co_commenter_graph(records, "ch00")
    want = cliques.clique_census(graph)
    tracer = tracing.Tracer()
    census = tracer.wrap(cliques.clique_census, "cliques.clique_census", "cliques")
    got = census(graph)
    assert got == want
    [span] = tracer.spans
    assert span[2:4] == ["cliques.clique_census", "cliques"]
    assert span[7] == {"enumerated": sum(want.histogram.values()), "counted": want.count}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench").exists()
