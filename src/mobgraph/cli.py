"""Command-line entry points. Each stage subcommand runs its entries of
pipeline.STAGES through pipeline.run_steps, the lifecycle `pipeline` runs
all of them through: so chained they write the bytes `pipeline` writes, and
a failed run leaves only an INCOMPLETE marker in --out. Settings resolve the
same way everywhere: defaults, then --config, then flags, and every setting
flag is generated from a PipelineConfig field. One printer shows a
report.json."""

from __future__ import annotations

import argparse
import inspect
import signal
import sys
from pathlib import Path

from . import embed as embed_mod
from . import ingest as ingest_mod
from . import pipeline
from . import reduce as reduce_mod
from . import synth as synth_mod
from .errors import MobgraphError
from .textio import has_type, json_value, read_json, write_json
from .pipeline import (
    CHOICES,
    CONFIG_FIELDS,
    FIELD_TYPES,
    PipelineConfig,
    RunState,
    load_config_file,
    resolve_config,
    run_pipeline,
)

CLUSTER_JSON = "cluster.json"  # what `cluster` writes of the report: its clustering
# What `report` prints of a report.json, checked before anything is printed.
REPORT_KEYS = (
    *(f"clustering.kmeans.{k}" for k in ("selected_k", "silhouette", "davies_bouldin")),
    *(f"clustering.hierarchical.{k}" for k in
      ("selected_k", "silhouette", "davies_bouldin", "cophenetic_correlation")),
    "channels", "cliques.min_size", "ranking.overall",
)


def _stages(*steps) -> tuple:
    """The pipeline.STAGES entries of the given steps, in run order."""
    return tuple(entry for entry in pipeline.STAGES if entry[1] in steps)


def _write_cluster_json(state: RunState) -> None:
    write_json(state.clustering, state.out_dir / CLUSTER_JSON)


# Stage subcommand -> (the STAGES entries it runs, the glob patterns of what
# it writes into --out): pipeline.run_steps' arguments. Its flags are the
# config fields those entries read.
STEPS = {
    "ingest": (_stages(pipeline.read_comments), ()),
    "graphs": (_stages(pipeline.read_comments, pipeline.write_graphs), ("*.gexf",)),
    "embed": (_stages(pipeline.read_comments, pipeline.extract_documents,
                      pipeline.embed_documents), (pipeline.ARTIFACTS["embeddings"],)),
    "reduce": (_stages(pipeline.reduce_points), (pipeline.ARTIFACTS["reduced"],)),
    "cluster": ((*_stages(pipeline.cluster_points), ("cluster", _write_cluster_json, ())),
                (CLUSTER_JSON, pipeline.ARTIFACTS["dendrogram"])),
    "cliques": (_stages(pipeline.read_comments, pipeline.start_census, pipeline.count_cliques),
                (pipeline.ARTIFACTS["cliques"],)),
}


def add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    """--config, and one --kebab-case flag per named PipelineConfig field,
    typed as in FIELD_TYPES. Every default is None, so an unset flag leaves
    the config file or the field default in force."""
    parser.add_argument("--config", default=None, help="JSON config file")
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=FIELD_TYPES[name],
                            choices=CHOICES.get(name), default=None,
                            help=f"default: {CONFIG_FIELDS[name].default}")


def _add_stage(sub, name: str, func, help: str):
    """A stage subcommand: --input, the file help names before its arrow,
    --out, and the flags of the config fields its steps read."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--input", required=True, help=help.split(" -> ")[0] + " path")
    if name != "ingest":
        p.add_argument("--out", default=None, help="output directory")
    add_config_flags(p, pipeline.fields_read(STEPS[name][0]))
    return p


def _synth_params() -> dict[str, inspect.Parameter]:
    """two_family_config's parameters, keyed by their synth flag's dest."""
    short = {"n_channels": "channels", "videos_per_channel": "videos",
             "organic_commenters": "organic"}
    params = inspect.signature(synth_mod.two_family_config).parameters.values()
    return {short.get(p.name, p.name): p for p in params}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobgraph",
        description=(
            "Co-commenter network pipeline: build per-channel graphs from "
            "comment tables, embed and cluster them, and rank channels by "
            "their maximal-clique censuses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_stage(sub, "ingest", cmd_ingest,
                   "comment table -> parsed, validated and counted per channel")
    p.add_argument("--strict", action="store_true",
                   help="error on duplicate comment ids instead of dropping them")

    _add_stage(sub, "graphs", cmd_graphs, "comment table -> one GEXF file per channel")
    _add_stage(sub, "embed", cmd_embed, "comment table -> embeddings.csv")
    _add_stage(sub, "reduce", cmd_reduce, "embeddings.csv -> reduced.csv")
    _add_stage(sub, "cluster", cmd_cluster, "reduced.csv -> cluster.json + dendrogram.json")

    p = _add_stage(sub, "cliques", cmd_cliques, "comment table -> cliques.csv census")
    p.add_argument("--report", default=None,
                   help="report.json or cluster.json: the census rows' cluster labels")

    p = sub.add_parser("synth", help="write a synthetic two-family corpus")
    p.add_argument("--out", default="out")
    for dest, param in _synth_params().items():
        p.add_argument("--" + dest.replace("_", "-"), type=type(param.default),
                       default=param.default)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    add_config_flags(p, CONFIG_FIELDS)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="print a human-readable summary of a report.json")
    p.add_argument("--input", required=True, help="report.json path")
    p.set_defaults(func=cmd_report)

    return parser


def _config(args: argparse.Namespace) -> PipelineConfig:
    file_values = load_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_FIELDS}
    return resolve_config(file_values, flags)


def cmd_ingest(args: argparse.Namespace) -> int:
    state = RunState(_config(args))
    pipeline.read_comments(state, on_duplicate="error" if args.strict else "warn")
    total = sum(map(len, state.records.values()))
    print(f"parsed {total} records across {len(state.channels)} channels")
    for c in state.channels:
        print(f"  {c}: {len(state.records[c])} comments")
    return 0


def cmd_graphs(args: argparse.Namespace) -> int:
    state = RunState(_config(args))
    pipeline.run_steps(state, *STEPS["graphs"])
    for name, stats in state.graph_stats.items():
        path = state.out_dir / f"{name}.gexf"
        print(f"{path}: {stats['nodes']} nodes, {stats['edges']} edges")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    state = RunState(_config(args))
    pipeline.run_steps(state, *STEPS["embed"])
    matrix = state.matrix
    print(f"{state.out_dir / pipeline.ARTIFACTS['embeddings']}: {len(matrix.graph_ids)} graphs, "
          f"dim {matrix.dim}, vocabulary {len(state.vocab)}")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    state = RunState(_config(args))
    state.matrix = embed_mod.read_embeddings_csv(state.config.input)
    pipeline.run_steps(state, *STEPS["reduce"])
    coords, info = state.coords, state.reduce_info
    print(f"{state.out_dir / pipeline.ARTIFACTS['reduced']}: {coords.shape[0]} points in "
          f"{coords.shape[1]} dimensions "
          f"(a={info['a']:.4f}, b={info['b']:.4f}, init={info['init']})")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    state = RunState(_config(args))
    state.channels, state.coords = reduce_mod.read_reduced_csv(state.config.input)
    pipeline.run_steps(state, *STEPS["cluster"])
    _print_clustering(state.clustering)
    return 0


def cmd_cliques(args: argparse.Namespace) -> int:
    state = RunState(_config(args))
    if args.report:  # a report.json, or a cluster.json: the report's clustering
        data = read_json(args.report)
        key = "kmeans.labels" if "kmeans" in data else "clustering.kmeans.labels"
        labels = json_value(data, key, args.report)
        if not isinstance(labels, dict) or not all(has_type(v, int) for v in labels.values()):
            raise MobgraphError(f"{args.report}: {key!r} must be an object of integers")
        state.clustering = {"kmeans": {"labels": labels}}
    pipeline.run_steps(state, *STEPS["cliques"])
    for census in sorted(state.censuses, key=lambda c: (-c.count, c.channel_id)):
        print(f"  {census.channel_id}: {census.count} maximal cliques "
              f">= {census.min_size} members")
    print(f"wrote {state.out_dir / pipeline.ARTIFACTS['cliques']}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = synth_mod.two_family_config(**{
        param.name: getattr(args, dest) for dest, param in _synth_params().items()
    })
    records, truth = synth_mod.generate_corpus(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    comments = out_dir / "comments.csv"
    ingest_mod.write_comments_csv(records, comments)
    truth_path = out_dir / "truth.json"
    synth_mod.write_ground_truth(truth, truth_path)
    print(f"{comments}: {len(records)} comments across {config.n_channels} channels")
    print(f"{truth_path}: ground-truth families and mob membership")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = _config(args)
    _print_report(run_pipeline(config))
    print(f"report: {Path(config.out) / pipeline.REPORT}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = read_json(args.input, *REPORT_KEYS)
    for name in ("kmeans", "hierarchical"):
        if not has_type(report["clustering"][name]["silhouette"], float):
            raise MobgraphError(f"{args.input}: 'clustering.{name}.silhouette' must be a number")
    for key in ("channels", "warnings"):
        value = report.get(key, [])
        if not isinstance(value, list) or not all(has_type(v, str) for v in value):
            raise MobgraphError(f"{args.input}: {key!r} must be a list of strings")
    rows = report["ranking"]["overall"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == 3
        and all(map(has_type, row, (str, int, int))) for row in rows
    ):
        raise MobgraphError(f"{args.input}: 'ranking.overall' must be a list of "
                            "[channel, cluster, count] rows")
    _print_report(report)
    return 0


def _print_clustering(clustering: dict) -> None:
    km, hier = clustering["kmeans"], clustering["hierarchical"]
    print(f"k-means: k={km['selected_k']}, silhouette {km['silhouette']:.4f}, "
          f"Davies-Bouldin {km['davies_bouldin']}")
    print(f"cut-tree: k={hier['selected_k']}, silhouette {hier['silhouette']:.4f}, "
          f"Davies-Bouldin {hier['davies_bouldin']}, "
          f"cophenetic {hier['cophenetic_correlation']}")


def _print_report(report: dict) -> None:
    """The summary `report` and `pipeline` print of a report.json."""
    channels, warnings = report["channels"], report.get("warnings", [])
    print(f"channels ({len(channels)}): {', '.join(channels)}")
    _print_clustering(report["clustering"])
    print(f"clique census (min size {report['cliques']['min_size']}):")
    for channel, cluster, count in report["ranking"]["overall"]:
        print(f"  {channel} (cluster {cluster}): {count}")
    if warnings:
        print("warnings:")
        for message in warnings:
            print(f"  {message}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM (kill, timeout) stops a run the way Ctrl-C does, through the
    # cleanup that shuts the workers down; by default it would orphan them.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except (MobgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
