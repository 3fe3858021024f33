"""Command-line entry points. Each stage subcommand runs the pipeline's own
stage functions (see pipeline.STAGES) on the inputs it is given; `pipeline`
chains them all. Settings resolve the same way everywhere: defaults, then
--config, then $MOBGRAPH_THREADS for threads, then flags, and every setting
flag is generated from a PipelineConfig field."""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import embed as embed_mod
from . import ingest as ingest_mod
from . import pipeline
from . import reduce as reduce_mod
from . import synth as synth_mod
from .errors import MobgraphError
from .textio import write_json
from .pipeline import (
    CHOICES,
    CONFIG_FIELDS,
    PipelineConfig,
    RunState,
    load_config_file,
    resolve_config,
    run_pipeline,
)

THREADS_ENV = "MOBGRAPH_THREADS"
_FLAG_TYPES = {"int": int, "float": float, "str": str}

# Stage subcommand -> the pipeline steps it runs, in order. Its flags are
# the config fields those steps read.
STEPS = {
    "ingest": (pipeline.read_comments,),
    "graphs": (pipeline.read_comments, pipeline.build_graphs, pipeline.write_graphs),
    "embed": (pipeline.read_comments, pipeline.build_graphs,
              pipeline.extract_documents, pipeline.embed_documents),
    "reduce": (pipeline.reduce_points,),
    "cluster": (pipeline.cluster_points,),
    "cliques": (pipeline.read_comments, pipeline.build_graphs, pipeline.count_cliques),
}


def add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    """--config, and one --kebab-case flag per named PipelineConfig field,
    typed from the field's annotation text. Every default is None, so an
    unset flag leaves the config file or the field default in force."""
    parser.add_argument("--config", default=None, help="JSON config file")
    for name in names:
        spec = CONFIG_FIELDS[name]
        flag = "--" + name.replace("_", "-")
        if spec.type == "bool":
            parser.add_argument(flag, action=argparse.BooleanOptionalAction,
                                default=None, help=f"default: {spec.default}")
        else:
            parser.add_argument(flag, type=_FLAG_TYPES[spec.type.split(" | ")[0]],
                                choices=CHOICES.get(name), default=None,
                                help=f"default: {spec.default}")


def _add_stage(sub, name: str, func, help: str, input_help: str | None = None):
    """A stage subcommand: --input, --out, and the flags of the config fields
    its steps read. --input names the comment table unless input_help says
    otherwise; it then lands in `args.artifact`, not in the config."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    if input_help is None:
        p.add_argument("--input", required=True, help="comment table path")
    else:
        p.add_argument("--input", dest="artifact", required=True, help=input_help)
    if name != "ingest":
        p.add_argument("--out", default=None, help="output directory")
    add_config_flags(p, pipeline.fields_read(STEPS[name]))
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

    p = _add_stage(sub, "ingest", cmd_ingest, "parse and validate a comment table")
    p.add_argument("--strict", action="store_true",
                   help="error on duplicate comment ids instead of dropping them")

    p = _add_stage(sub, "graphs", cmd_graphs, "comment table -> one GEXF file per channel")
    p.add_argument("--merged", action="store_true",
                   help="one merged graph over the whole corpus instead of per channel")

    _add_stage(sub, "embed", cmd_embed, "comment table -> embeddings.csv")
    _add_stage(sub, "reduce", cmd_reduce, "embeddings.csv -> reduced.csv",
               input_help="embeddings CSV path")
    _add_stage(sub, "cluster", cmd_cluster, "reduced.csv -> cluster.json + dendrogram.json",
               input_help="reduced CSV path (embeddings CSV with --cluster-space embeddings)")

    p = _add_stage(sub, "cliques", cmd_cliques, "comment table -> cliques.csv census")
    p.add_argument("--report", default=None,
                   help="report.json supplying cluster labels for the census rows")

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
    raw = os.environ.get(THREADS_ENV)
    if raw is not None:
        try:
            file_values["threads"] = int(raw)
        except ValueError:
            raise MobgraphError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_FIELDS}
    return resolve_config(file_values, flags)


def _state(args: argparse.Namespace) -> RunState:
    """A fresh run state for a subcommand that writes to its --out."""
    config = _config(args)
    Path(config.out).mkdir(parents=True, exist_ok=True)
    return RunState(config)


def cmd_ingest(args: argparse.Namespace) -> int:
    state = RunState(_config(args))
    pipeline.read_comments(state, on_duplicate="error" if args.strict else "warn")
    print(f"parsed {len(state.records)} records across {len(state.channels)} channels")
    per_channel = Counter(r.channel_id for r in state.records)
    for c in state.channels:
        print(f"  {c}: {per_channel[c]} comments")
    return 0


def cmd_graphs(args: argparse.Namespace) -> int:
    state = _state(args)
    pipeline.read_comments(state)
    if args.merged:
        state.channels = [None]  # one graph over the whole corpus
    pipeline.build_graphs(state)
    pipeline.write_graphs(state)
    for graph in state.graphs.values():
        path = state.out_dir / f"{graph.name}.gexf"
        print(f"{path}: {graph.n_nodes} nodes, {graph.n_edges} edges")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    state = _state(args)
    for step in STEPS["embed"]:
        step(state)
    matrix = state.matrix
    print(f"{state.out_dir / 'embeddings.csv'}: {len(matrix.graph_ids)} graphs, "
          f"dim {matrix.dim}, vocabulary {len(state.vocab)}")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    state = _state(args)
    state.matrix = embed_mod.read_embeddings_csv(args.artifact)
    pipeline.reduce_points(state)
    coords, info = state.coords, state.reduce_info
    print(f"{state.out_dir / 'reduced.csv'}: {coords.shape[0]} points in "
          f"{coords.shape[1]} dimensions "
          f"(a={info['a']:.4f}, b={info['b']:.4f}, init={info['init']})")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    state = _state(args)
    if state.config.cluster_space == "reduced":
        state.channels, state.coords = reduce_mod.read_reduced_csv(args.artifact)
    else:
        state.matrix = embed_mod.read_embeddings_csv(args.artifact)
        state.channels = state.matrix.graph_ids
    pipeline.cluster_points(state)
    clustering = state.clustering
    write_json(clustering, state.out_dir / "cluster.json")
    print(f"k-means selected k={clustering['kmeans']['selected_k']} "
          f"(silhouette {clustering['kmeans']['silhouette']:.4f})")
    print(f"cut-tree selected k={clustering['hierarchical']['selected_k']} "
          f"(silhouette {clustering['hierarchical']['silhouette']:.4f})")
    coph = clustering["hierarchical"]["cophenetic_correlation"]
    if coph is not None:
        print(f"cophenetic correlation: {coph:.4f}")
    return 0


def cmd_cliques(args: argparse.Namespace) -> int:
    state = _state(args)
    if args.report:
        with open(args.report, "r", encoding="utf-8") as f:
            state.clustering = json.load(f)["clustering"]
    for step in STEPS["cliques"]:
        step(state)
    for census in sorted(state.censuses, key=lambda c: (-c.count, c.channel_id)):
        print(f"  {census.channel_id}: {census.count} maximal cliques "
              f">= {census.min_size} members")
    print(f"wrote {state.out_dir / 'cliques.csv'}")
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
    report = run_pipeline(config)
    km = report["clustering"]["kmeans"]
    print(f"channels: {len(report['channels'])}")
    print(f"k-means selected k={km['selected_k']} (silhouette {km['silhouette']:.4f})")
    top = report["ranking"]["overall"][:3]
    for channel, cluster, count in top:
        print(f"  {channel} (cluster {cluster}): {count} cliques "
              f">= {report['cliques']['min_size']} members")
    print(f"report: {Path(config.out) / 'report.json'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as f:
        report = json.load(f)
    km = report["clustering"]["kmeans"]
    hier = report["clustering"]["hierarchical"]
    print(f"channels ({len(report['channels'])}): {', '.join(report['channels'])}")
    print(f"k-means: k={km['selected_k']}, silhouette {km['silhouette']:.4f}, "
          f"Davies-Bouldin {km['davies_bouldin']}")
    print(f"cut-tree: k={hier['selected_k']}, silhouette {hier['silhouette']:.4f}, "
          f"Davies-Bouldin {hier['davies_bouldin']}, "
          f"cophenetic {hier['cophenetic_correlation']}")
    print(f"clique census (min size {report['cliques']['min_size']}):")
    for channel, cluster, count in report["ranking"]["overall"]:
        print(f"  {channel} (cluster {cluster}): {count}")
    if report.get("warnings"):
        print("warnings:")
        for message in report["warnings"]:
            print(f"  {message}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MobgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
