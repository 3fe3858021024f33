"""End-to-end orchestration: comments in, ranked channels and artifacts out.

Stage order: ingest -> graphs -> wl -> embed -> reduce -> cluster -> cliques
-> rank -> report. Each step is one function over a RunState; `STAGES` lists
them in order with the config fields they read, and both run_pipeline and
the CLI subcommands call these same functions. The first failing stage
aborts the run, names itself in the raised error, and leaves an INCOMPLETE
marker in the output directory. Given one seed, two runs produce
byte-identical artifacts except timings.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import cliques as cliques_mod
from . import cluster as cluster_mod
from . import embed as embed_mod
from . import gexf as gexf_mod
from . import ingest as ingest_mod
from . import reduce as reduce_mod
from . import wl as wl_mod
from .errors import (
    CoincidentCentroids,
    DegenerateVariance,
    InvalidConfig,
    PipelineStageError,
    SingleCluster,
    TooFewPoints,
)
from .graph import Graph
from .textio import write_json

logger = logging.getLogger(__name__)

INCOMPLETE_MARKER = "INCOMPLETE"


@dataclass
class PipelineConfig:
    """All knobs of the pipeline; defaults are the reference operating point."""

    input: str | None = None
    out: str = "out"
    format: str = "csv"
    seed: int = 0
    threads: int = 1
    min_shared_videos: int = 1
    include_isolated: bool = False
    wl_iterations: int = 2
    wl_weight_buckets: bool = False
    dim: int = 128
    lr: float = 0.025
    min_count: int = 5
    epochs: int = 10
    negative: int = 5
    umap_neighbors: int = 5
    umap_min_dist: float = 0.1
    umap_components: int = 4
    umap_spread: float = 1.0
    umap_epochs: int = 500
    umap_negative_rate: int = 5
    k_min: int = 2
    k_max: int | None = None  # None: min(10, n_channels - 1)
    cluster_space: str = "reduced"  # or "embeddings", for ablation
    clique_min_size: int = 5
    clique_budget: int = 10_000_000
    n_init: int = 10


CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}
CHOICES = {"format": ("csv", "json-lines"), "cluster_space": ("reduced", "embeddings")}


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file: one flat object, keys = PipelineConfig fields."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config file {path}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise InvalidConfig(f"config file {path}: expected a JSON object")
    for key in data:
        if key not in CONFIG_FIELDS:
            raise InvalidConfig(f"unknown config key {key!r}")
    return data


def resolve_config(file_values: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then config-file values, then explicit overrides (None skipped)."""
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in CONFIG_FIELDS:
                raise InvalidConfig(f"unknown config key {key!r}")
            if value is not None:
                merged[key] = value
    config = PipelineConfig(**merged)
    for key, allowed in CHOICES.items():
        value = getattr(config, key)
        if value not in allowed:
            raise InvalidConfig(
                f"{key} must be {' or '.join(map(repr, allowed))}, got {value!r}"
            )
    if config.threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {config.threads}")
    return config


def compute_clustering(
    points,
    channels: list[str],
    k_min: int = 2,
    k_max: int | None = None,
    seed: int = 0,
    n_init: int = 10,
    out_dir: Path | None = None,
) -> dict:
    """Model selection, both clusterings, and quality metrics for one point
    set; writes dendrogram.json when out_dir is given. Metrics that are
    undefined for the data at hand come back as None with a logged warning."""
    k_star, scores = cluster_mod.select_k_by_silhouette(
        points, k_min=k_min, k_max=k_max, seed=seed, n_init=n_init
    )
    km = cluster_mod.kmeans(points, k_star, seed=seed, n_init=n_init)
    dendrogram = cluster_mod.single_linkage(points)
    cut_scores: dict[int, float] = {}
    for k in scores:  # the k range select_k_by_silhouette resolved
        cut_scores[k] = cluster_mod.silhouette_score(
            points, cluster_mod.cut_tree(dendrogram, k)
        )
    cut_k = max(cut_scores, key=lambda k: (cut_scores[k], -k))
    cut_labels = cluster_mod.cut_tree(dendrogram, cut_k)

    def guarded(fn: Callable[[], float], what: str) -> float | None:
        try:
            return fn()
        except (CoincidentCentroids, SingleCluster, DegenerateVariance,
                TooFewPoints) as exc:
            logger.warning("%s unavailable: %s", what, exc)
            return None

    cophenetic = guarded(
        lambda: cluster_mod.cophenetic_correlation(dendrogram, points),
        "cophenetic correlation",
    )
    db_kmeans = guarded(
        lambda: cluster_mod.davies_bouldin(points, km.labels),
        "Davies-Bouldin (k-means labels)",
    )
    db_cut = guarded(
        lambda: cluster_mod.davies_bouldin(points, cut_labels),
        "Davies-Bouldin (cut-tree labels)",
    )
    if out_dir is not None:
        write_json(
            {
                "leaves": channels,
                "merges": [
                    [left, right, height, size]
                    for left, right, height, size in dendrogram.merges
                ],
                "n_leaves": dendrogram.n_leaves,
            },
            out_dir / "dendrogram.json",
        )
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
            "labels": {c: int(l) for c, l in zip(channels, cut_labels)},
            "davies_bouldin": db_cut,
            "cophenetic_correlation": cophenetic,
        },
    }


class _WarningCollector(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _map_channels(
    channels: list[str], fn: Callable[[str], object], threads: int
) -> dict[str, object]:
    if threads <= 1 or len(channels) <= 1:
        return {c: fn(c) for c in channels}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(fn, channels)
    return dict(zip(channels, results))


def strip_timings(report: dict) -> dict:
    """Copy of the report without the wall-clock section; everything else is
    covered by the determinism guarantee."""
    return {k: v for k, v in report.items() if k != "timings"}


# --- stages -----------------------------------------------------------------


@dataclass
class RunState:
    """What the stages hand one another. Each stage reads the fields it
    needs and fills in the ones it makes; a CLI subcommand fills in its
    inputs from earlier artifacts instead. Artifacts are written to
    config.out, GEXF files to graphs_dir."""

    config: PipelineConfig
    graphs_dir: Path | None = None  # None: config.out
    records: list[ingest_mod.CommentRecord] = field(default_factory=list)
    # A None channel stands for one graph over the whole corpus.
    channels: list[str | None] = field(default_factory=list)
    graphs: dict[str | None, Graph] = field(default_factory=dict)
    documents: list[wl_mod.GraphDocument] = field(default_factory=list)
    vocab: embed_mod.Vocabulary | None = None
    matrix: embed_mod.EmbeddingMatrix | None = None
    coords: object = None  # (n_channels, umap_components) array
    reduce_info: dict = field(default_factory=dict)
    clustering: dict = field(default_factory=dict)
    censuses: list[cliques_mod.CliqueCensus] = field(default_factory=list)
    ranking: cliques_mod.SuspiciousnessRanking | None = None
    timings: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def out_dir(self) -> Path:
        return Path(self.config.out)

    @property
    def labels(self) -> dict:
        """k-means label per channel; empty until clustering is known."""
        return self.clustering["kmeans"]["labels"] if self.clustering else {}


def read_comments(state: RunState, on_duplicate: str = "warn") -> None:
    config = state.config
    if config.input is None:
        raise InvalidConfig("no input file configured")
    state.records = ingest_mod.parse_comments(
        config.input, format=config.format, on_duplicate=on_duplicate
    )
    state.channels = ingest_mod.channels_in(state.records)


def build_graphs(state: RunState) -> None:
    config = state.config
    build = functools.partial(
        ingest_mod.build_co_commenter_graph,
        state.records,
        min_shared_videos=config.min_shared_videos,
        include_isolated=config.include_isolated,
    )
    state.graphs = _map_channels(state.channels, build, config.threads)


def _over_graphs(state: RunState, fn: Callable, **kwargs) -> list:
    """fn(graph, **kwargs) for every channel's graph, in channel order."""
    def call(channel: str | None):
        return fn(state.graphs[channel], **kwargs)

    return list(_map_channels(state.channels, call, state.config.threads).values())


def write_graphs(state: RunState) -> None:
    directory = state.graphs_dir or state.out_dir
    directory.mkdir(parents=True, exist_ok=True)
    _over_graphs(state, lambda graph: gexf_mod.write_gexf(graph, directory / f"{graph.name}.gexf"))


def extract_documents(state: RunState) -> None:
    config = state.config
    state.documents = _over_graphs(
        state,
        wl_mod.extract_document,
        iterations=config.wl_iterations,
        weight_buckets=config.wl_weight_buckets,
    )


def embed_documents(state: RunState) -> None:
    config = state.config
    state.vocab = embed_mod.build_vocabulary(state.documents, min_count=config.min_count)
    state.matrix = embed_mod.train_embeddings(
        state.documents,
        state.vocab,
        dim=config.dim,
        initial_lr=config.lr,
        epochs=config.epochs,
        negative=config.negative,
        seed=config.seed,
    )
    embed_mod.write_embeddings_csv(state.matrix, state.out_dir / "embeddings.csv")


def reduce_points(state: RunState) -> None:
    config = state.config
    state.coords, state.reduce_info = reduce_mod.reduce_embeddings(
        state.matrix.vectors,
        n_neighbors=config.umap_neighbors,
        min_dist=config.umap_min_dist,
        n_components=config.umap_components,
        spread=config.umap_spread,
        epochs=config.umap_epochs,
        negative_rate=config.umap_negative_rate,
        seed=config.seed,
    )
    reduce_mod.write_reduced_csv(
        state.matrix.graph_ids, state.coords, state.out_dir / "reduced.csv"
    )


def cluster_points(state: RunState) -> None:
    config = state.config
    points = state.coords if config.cluster_space == "reduced" else state.matrix.vectors
    state.clustering = compute_clustering(
        points,
        state.channels,
        k_min=config.k_min,
        k_max=config.k_max,
        seed=config.seed,
        n_init=config.n_init,
        out_dir=state.out_dir,
    )


def count_cliques(state: RunState) -> None:
    config = state.config
    state.censuses = _over_graphs(
        state,
        cliques_mod.clique_census,
        min_size=config.clique_min_size,
        budget=config.clique_budget,
    )
    cliques_mod.write_census_csv(state.censuses, state.labels, state.out_dir / "cliques.csv")


def rank(state: RunState) -> None:
    state.ranking = cliques_mod.rank_channels(state.censuses, state.labels)


def write_report(state: RunState) -> None:
    from . import __version__

    config = state.config
    state.report = {
        "channels": state.channels,
        "config": dataclasses.asdict(config),
        "graph_stats": {
            c: {"nodes": state.graphs[c].n_nodes, "edges": state.graphs[c].n_edges}
            for c in state.channels
        },
        "clustering": state.clustering,
        "reduce_info": state.reduce_info,
        "cliques": {
            "min_size": config.clique_min_size,
            "counts": {c.channel_id: c.count for c in state.censuses},
        },
        "ranking": {
            "overall": [list(row) for row in state.ranking.overall],
            "per_cluster": {
                str(cluster): [list(row) for row in rows]
                for cluster, rows in state.ranking.per_cluster.items()
            },
        },
        "artifacts": {
            "graphs_dir": "graphs",
            "embeddings": "embeddings.csv",
            "reduced": "reduced.csv",
            "dendrogram": "dendrogram.json",
            "cliques": "cliques.csv",
        },
        "deterministic": True,
        "version": __version__,
        "warnings": state.warnings,
        "timings": state.timings,
    }
    write_json(state.report, state.out_dir / "report.json")


# The pipeline in run order: (stage name in report timings, step, the
# PipelineConfig fields the step reads besides input and out). The CLI
# builds each subcommand's flags from the fields of the steps it runs.
STAGES: tuple[tuple[str, Callable[[RunState], None], tuple[str, ...]], ...] = (
    ("ingest", read_comments, ("format",)),
    ("graphs", build_graphs, ("threads", "min_shared_videos", "include_isolated")),
    ("graphs", write_graphs, ("threads",)),
    ("wl", extract_documents, ("threads", "wl_iterations", "wl_weight_buckets")),
    ("embed", embed_documents, ("seed", "dim", "lr", "min_count", "epochs", "negative")),
    ("reduce", reduce_points, (
        "seed", "umap_neighbors", "umap_min_dist", "umap_components",
        "umap_spread", "umap_epochs", "umap_negative_rate",
    )),
    ("cluster", cluster_points, ("seed", "cluster_space", "k_min", "k_max", "n_init")),
    ("cliques", count_cliques, ("threads", "clique_min_size", "clique_budget")),
    ("rank", rank, ()),
    ("report", write_report, ()),
)


def fields_read(steps) -> list[str]:
    """The config fields the given steps read, in PipelineConfig order."""
    wanted = {name for _, step, names in STAGES if step in steps for name in names}
    return [name for name in CONFIG_FIELDS if name in wanted]


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and return the consolidated report (also written
    to out/report.json)."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    marker = out_dir / INCOMPLETE_MARKER
    if marker.exists():
        marker.unlink()

    collector = _WarningCollector()
    root = logging.getLogger("mobgraph")
    root.addHandler(collector)
    state = RunState(config, graphs_dir=out_dir / "graphs", warnings=collector.messages)
    stage = STAGES[0][0]
    try:
        for stage, step, _fields in STAGES:
            started = time.perf_counter()
            step(state)
            elapsed = time.perf_counter() - started
            state.timings[stage] = state.timings.get(stage, 0.0) + elapsed
        return state.report
    except Exception as exc:  # noqa: BLE001 - stage context is the contract
        marker.write_text(f"failed at stage: {stage}\n{exc}\n", encoding="utf-8")
        raise PipelineStageError(stage, exc) from exc
    finally:
        root.removeHandler(collector)
