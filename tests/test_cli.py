import json

import pytest

from mobgraph.cli import STEPS, _config, build_parser, main
from mobgraph.errors import InvalidConfig, PipelineStageError
from mobgraph.pipeline import (
    CONFIG_FIELDS,
    PipelineConfig,
    fields_read,
    load_config_file,
    resolve_config,
    run_pipeline,
    strip_timings,
)

SYNTH_ARGS = ["--channels", "8", "--videos", "10", "--organic", "12"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--out", str(path), "--seed", "0"] + SYNTH_ARGS)
    assert code == 0
    return path


@pytest.fixture(scope="module")
def pipeline_out(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "pipeline",
        "--input", str(corpus_dir / "comments.csv"),
        "--out", str(out),
        "--seed", "0",
    ])
    assert code == 0
    return out


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# --- end to end --------------------------------------------------------------------

def test_synth_artifacts(corpus_dir):
    assert (corpus_dir / "comments.csv").exists()
    truth = json.loads((corpus_dir / "truth.json").read_text())
    assert set(truth["channel_families"].values()) == {"heavy", "light"}
    assert len(truth["channel_families"]) == 8


def test_pipeline_artifacts(pipeline_out):
    for name in ("embeddings.csv", "reduced.csv", "cliques.csv",
                 "dendrogram.json", "report.json"):
        assert (pipeline_out / name).exists(), name
    gexf_files = sorted(p.name for p in (pipeline_out / "graphs").glob("*.gexf"))
    assert gexf_files == [f"ch{c:02d}.gexf" for c in range(8)]
    assert not (pipeline_out / "INCOMPLETE").exists()


def test_pipeline_report_structure(pipeline_out):
    report = json.loads((pipeline_out / "report.json").read_text())
    assert report["channels"] == [f"ch{c:02d}" for c in range(8)]
    assert report["deterministic"] is True
    assert set(report["clustering"]) == {"kmeans", "hierarchical"}
    assert set(report["clustering"]["kmeans"]["labels"]) == set(report["channels"])
    assert report["cliques"]["min_size"] == 5
    ranked = [row[0] for row in report["ranking"]["overall"]]
    assert sorted(ranked) == report["channels"]
    counts = [row[2] for row in report["ranking"]["overall"]]
    assert counts == sorted(counts, reverse=True)
    assert set(report["timings"]) >= {"ingest", "graphs", "wl", "embed",
                                      "reduce", "cluster", "cliques"}


def test_pipeline_rerun_is_byte_identical(corpus_dir, tmp_path):
    out = tmp_path / "re"
    args = ["pipeline", "--input", str(corpus_dir / "comments.csv"),
            "--out", str(out), "--seed", "3"]
    assert main(args) == 0
    tracked = ["embeddings.csv", "reduced.csv", "cliques.csv", "dendrogram.json"]
    first = {name: read_bytes(out / name) for name in tracked}
    first_report = strip_timings(json.loads((out / "report.json").read_text()))
    assert main(args) == 0
    for name in tracked:
        assert read_bytes(out / name) == first[name], name
    second_report = strip_timings(json.loads((out / "report.json").read_text()))
    assert second_report == first_report


def test_pipeline_threads_do_not_change_artifacts(corpus_dir, pipeline_out, tmp_path):
    out = tmp_path / "threaded"
    code = main([
        "pipeline", "--input", str(corpus_dir / "comments.csv"),
        "--out", str(out), "--seed", "0", "--threads", "3",
    ])
    assert code == 0
    for name in ("embeddings.csv", "reduced.csv", "cliques.csv", "dendrogram.json"):
        assert read_bytes(out / name) == read_bytes(pipeline_out / name), name


def test_pipeline_missing_input(tmp_path, capsys):
    out = tmp_path / "broken"
    code = main(["pipeline", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: stage 'ingest' failed")
    marker = out / "INCOMPLETE"
    assert marker.exists()
    assert "ingest" in marker.read_text()


def test_pipeline_clears_stale_marker(corpus_dir, tmp_path):
    out = tmp_path / "stale"
    out.mkdir()
    (out / "INCOMPLETE").write_text("failed at stage: embed\n")
    code = main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--seed", "0"])
    assert code == 0
    assert not (out / "INCOMPLETE").exists()


def test_pipeline_cluster_space_ablation(corpus_dir, tmp_path):
    out = tmp_path / "ablation"
    code = main([
        "pipeline", "--input", str(corpus_dir / "comments.csv"),
        "--out", str(out), "--seed", "0", "--cluster-space", "embeddings",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["cluster_space"] == "embeddings"
    stages = tmp_path / "stages"  # the subcommand clusters embeddings.csv the same way
    assert main(["cluster", "--input", str(out / "embeddings.csv"), "--out", str(stages),
                 "--cluster-space", "embeddings"]) == 0
    assert read_bytes(stages / "dendrogram.json") == read_bytes(out / "dendrogram.json")


# --- configuration layering ----------------------------------------------------------

def test_config_file_and_flag_precedence(corpus_dir, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 5, "dim": 16, "min_count": 2}))
    out = tmp_path / "layered"
    code = main([
        "pipeline", "--config", str(config_path),
        "--input", str(corpus_dir / "comments.csv"),
        "--out", str(out), "--seed", "7",
    ])
    assert code == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["seed"] == 7  # flag beats file
    assert config["dim"] == 16  # file beats default
    assert config["min_count"] == 2
    assert config["lr"] == 0.025  # untouched default


def test_config_file_unknown_key(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sneaky": 1}))
    code = main(["pipeline", "--config", str(config_path), "--input", "x.csv"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_threads_env_fallback(corpus_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("MOBGRAPH_THREADS", "2")
    out = tmp_path / "env"
    code = main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--seed", "0"])
    assert code == 0
    assert json.loads((out / "report.json").read_text())["config"]["threads"] == 2


def test_threads_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("MOBGRAPH_THREADS", "many")
    code = main(["pipeline", "--input", "whatever.csv"])
    assert code == 1
    assert "MOBGRAPH_THREADS" in capsys.readouterr().err


def test_resolve_config_layers():
    config = resolve_config({"dim": 32}, {"seed": 9, "k_max": None})
    assert config.dim == 32
    assert config.seed == 9
    assert config.k_max is None  # None override is skipped, default kept
    assert config.format == "csv"
    with pytest.raises(InvalidConfig):
        resolve_config({"format": "parquet"}, {})
    with pytest.raises(InvalidConfig):
        resolve_config({}, {"cluster_space": "raw"})
    with pytest.raises(InvalidConfig):
        resolve_config({}, {"threads": 0})
    with pytest.raises(InvalidConfig):
        resolve_config({"mystery": 1}, {})


def test_load_config_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(InvalidConfig):
        load_config_file(path)
    path.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_config_file(path)


def test_run_pipeline_stage_error_names_stage(tmp_path):
    config = PipelineConfig(input=str(tmp_path / "missing.csv"),
                            out=str(tmp_path / "out"))
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(config)
    assert err.value.stage == "ingest"


# --- individual subcommands -----------------------------------------------------------

def test_ingest_summary(corpus_dir, capsys):
    code = main(["ingest", "--input", str(corpus_dir / "comments.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "across 8 channels" in out
    assert "ch00:" in out


def test_graphs_command(corpus_dir, tmp_path, capsys):
    out = tmp_path / "graphs"
    code = main(["graphs", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.glob("*.gexf")) == [
        f"ch{c:02d}.gexf" for c in range(8)
    ]
    merged_out = tmp_path / "merged"
    code = main(["graphs", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(merged_out), "--merged"])
    assert code == 0
    assert [p.name for p in merged_out.glob("*.gexf")] == ["merged.gexf"]


def assert_chain_matches(comments, pipeline_out, out, extra=()):
    """Run embed -> reduce -> cluster -> cliques with the same settings
    `extra` gave `pipeline`, and compare every artifact with its output."""
    extra = list(extra)
    assert main(["embed", "--input", comments, "--out", str(out), *extra]) == 0
    assert read_bytes(out / "embeddings.csv") == read_bytes(
        pipeline_out / "embeddings.csv"
    )
    assert main(["reduce", "--input", str(out / "embeddings.csv"),
                 "--out", str(out), *extra]) == 0
    assert read_bytes(out / "reduced.csv") == read_bytes(pipeline_out / "reduced.csv")
    assert main(["cluster", "--input", str(out / "reduced.csv"),
                 "--out", str(out), *extra]) == 0
    assert (out / "cluster.json").exists()
    assert read_bytes(out / "dendrogram.json") == read_bytes(
        pipeline_out / "dendrogram.json"
    )
    clustering = json.loads((out / "cluster.json").read_text())
    report = json.loads((pipeline_out / "report.json").read_text())
    assert clustering == report["clustering"]
    assert main(["cliques", "--input", comments, "--out", str(out),
                 "--report", str(pipeline_out / "report.json"), *extra]) == 0
    assert read_bytes(out / "cliques.csv") == read_bytes(pipeline_out / "cliques.csv")


def test_stagewise_chain_matches_pipeline(corpus_dir, pipeline_out, tmp_path, capsys):
    assert_chain_matches(str(corpus_dir / "comments.csv"), pipeline_out,
                         tmp_path / "stages")


def test_stagewise_chain_matches_pipeline_tuned_config(corpus_dir, tmp_path, capsys):
    config_path = tmp_path / "tuned.json"
    config_path.write_text(json.dumps(
        {"dim": 16, "epochs": 3, "min_count": 2, "umap_epochs": 50, "n_init": 3}
    ))
    comments = str(corpus_dir / "comments.csv")
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--input", comments,
                 "--out", str(run)]) == 0
    assert_chain_matches(comments, run, tmp_path / "stages",
                         ["--config", str(config_path)])


def test_hostile_channel_id_writes_nothing_outside_out(tmp_path, capsys):
    # Unchecked, graphs/../../escaped.gexf would land in tmp_path itself.
    source = tmp_path / "comments.csv"
    source.write_text("channel_id,video_id,commenter_id,comment_id\n" + "".join(
        f"{channel},v1,u{i},{channel}{i}\n"
        for channel in ("ch00", "../../escaped") for i in range(3)
    ))
    run, stages = tmp_path / "run", tmp_path / "stages"
    codes = [main(["pipeline", "--input", str(source), "--out", str(run)]),
             main(["graphs", "--input", str(source), "--out", str(stages / "graphs")])]
    outside = [p for p in tmp_path.rglob("*")
               if p not in (source, run, stages)
               and run not in p.parents and stages not in p.parents]
    assert outside == []
    assert codes == [1, 1]
    assert "not a safe file name" in capsys.readouterr().err


# --- flags -----------------------------------------------------------------------------

def subcommands():
    return build_parser()._subparsers._group_actions[0].choices


def flag_dests(subparser):
    return [a.dest for a in subparser._actions if a.dest != "help"]


def test_pipeline_has_one_flag_per_config_field():
    dests = flag_dests(subcommands()["pipeline"])
    assert sorted(dests) == sorted([*CONFIG_FIELDS, "config"])


def test_stage_flags_are_the_fields_their_steps_read():
    own = {"input", "artifact", "out", "config", "strict", "merged", "report"}
    parsers = subcommands()
    for name, steps in STEPS.items():
        dests = flag_dests(parsers[name])
        assert len(dests) == len(set(dests)), name
        assert set(dests) - own == set(fields_read(steps)), name
        assert set(fields_read(steps)) <= set(CONFIG_FIELDS), name


def test_no_flags_resolve_to_default_config(monkeypatch):
    monkeypatch.delenv("MOBGRAPH_THREADS", raising=False)
    parser = build_parser()
    assert _config(parser.parse_args(["pipeline"])) == PipelineConfig()
    for name in STEPS:
        args = parser.parse_args([name, "--input", "x.csv"])
        expected = PipelineConfig(input=None if name in ("reduce", "cluster") else "x.csv")
        assert _config(args) == expected, name


def test_report_command(pipeline_out, capsys):
    code = main(["report", "--input", str(pipeline_out / "report.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "k-means: k=" in out
    assert "clique census" in out


def test_synth_flag_defaults_mirror_library_defaults():
    import inspect

    from mobgraph.synth import two_family_config

    parser = build_parser()
    synth = next(
        a for a in parser._subparsers._group_actions[0].choices.items()
        if a[0] == "synth"
    )[1]
    defaults = {a.dest: a.default for a in synth._actions}
    sig = inspect.signature(two_family_config)
    pairs = {
        "channels": "n_channels",
        "videos": "videos_per_channel",
        "organic": "organic_commenters",
        "organic_prob": "organic_prob",
        "heavy_mob_size": "heavy_mob_size",
        "heavy_mob_prob": "heavy_mob_prob",
        "light_mob_size": "light_mob_size",
        "light_mob_prob": "light_mob_prob",
    }
    for flag, param in pairs.items():
        assert defaults[flag] == sig.parameters[param].default, flag


def test_report_command_missing_file(tmp_path, capsys):
    code = main(["report", "--input", str(tmp_path / "absent.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
