"""End-to-end orchestration: comments in, ranked channels and artifacts out.

Stage order: ingest -> graphs -> wl -> embed -> reduce -> cluster -> cliques
-> rank -> report; the clique census is queued before embed and read after
cluster, so with worker processes it runs behind those three. Each step is
one function over a RunState; `STAGES` lists them in order with the config
fields they read, and both run_pipeline and the CLI subcommands call these
same functions. The first failing stage aborts the run, names itself in the
raised error, and leaves an INCOMPLETE marker in the output directory in
place of every artifact; so does an interrupt. Given one seed, two runs
produce byte-identical artifacts except timings.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import cliques as cliques_mod
from . import cluster as cluster_mod
from . import embed as embed_mod
from . import gexf as gexf_mod
from . import ingest as ingest_mod
from . import reduce as reduce_mod
from . import wl as wl_mod
from .errors import InvalidConfig, InvalidK, MobgraphError, PipelineStageError
from .graph import Graph
from .textio import has_type, read_json, temp_files, write_json

if TYPE_CHECKING:
    from concurrent.futures.process import ProcessPoolExecutor

INCOMPLETE_MARKER = "INCOMPLETE"
REPORT = "report.json"
GRAPHS_DIR = "graphs"
# The files run_pipeline writes besides the report and the GEXF graphs,
# keyed as in report["artifacts"].
ARTIFACTS = {
    "embeddings": "embeddings.csv",
    "reduced": "reduced.csv",
    "dendrogram": "dendrogram.json",
    "cliques": "cliques.csv",
}


@dataclass
class PipelineConfig:
    """All knobs of the pipeline; defaults are the reference operating point."""

    input: str | None = None
    out: str = "out"
    format: str = "csv"
    seed: int = 0
    threads: int = 1
    min_shared_videos: int = 1
    wl_iterations: int = 2
    dim: int = 128
    lr: float = 0.025
    min_count: int = 5
    epochs: int = 10
    negative: int = 5
    umap_neighbors: int = 5
    umap_components: int = 4
    umap_epochs: int = 500
    umap_negative_rate: int = 5
    k_min: int = 2
    k_max: int | None = None  # None: min(10, n_channels - 1)
    clique_min_size: int = 5
    clique_budget: int = cliques_mod.DEFAULT_CLIQUE_BUDGET
    n_init: int = 10


CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}
# The type of each field's values, from its annotation; None means "not set".
_TYPES = {"int": int, "float": float, "str": str}
FIELD_TYPES = {name: _TYPES[f.type.split(" | ")[0]] for name, f in CONFIG_FIELDS.items()}
CHOICES = {"format": ("csv", "json-lines")}
# The least value of each integer setting that its stage can run with.
LOWER_BOUNDS = {
    "threads": 1, "min_shared_videos": 1, "wl_iterations": 0, "dim": 1,
    "min_count": 1, "epochs": 1, "negative": 0, "umap_neighbors": 1,
    "umap_components": 1, "umap_epochs": 1, "umap_negative_rate": 1,
    "clique_min_size": 1, "clique_budget": 1, "n_init": 1,
}


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file: one flat object, keys = PipelineConfig fields."""
    try:
        data = read_json(path)
    except MobgraphError as exc:
        raise InvalidConfig(f"config file {exc}") from None
    return data


def resolve_config(file_values: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then config-file values, then explicit overrides (None skipped)."""
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in CONFIG_FIELDS:
                raise InvalidConfig(f"unknown config key {key!r}")
            if value is not None and not has_type(value, FIELD_TYPES[key]):
                raise InvalidConfig(f"{key} must be {FIELD_TYPES[key].__name__}, got {value!r}")
            if value is not None:
                merged[key] = value
    config = PipelineConfig(**merged)
    for key, allowed in CHOICES.items():
        value = getattr(config, key)
        if value not in allowed:
            raise InvalidConfig(
                f"{key} must be {' or '.join(map(repr, allowed))}, got {value!r}"
            )
    for key, least in LOWER_BOUNDS.items():
        value = getattr(config, key)
        if value < least:
            raise InvalidConfig(f"{key} must be >= {least}, got {value}")
    return config


# Model selection is cluster's. cluster_points calls it through this
# module's binding, which perfbench's tracer wraps as a span of its own.
compute_clustering = cluster_mod.compute_clustering


class _WarningCollector(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


# The RunState of a worker process. Its pool's initializer sets it to the
# parent's, inherited at fork with the records, so a task pickles nothing but
# a module-level function's name, a channel id and small keyword arguments.
_worker_state: RunState | None = None
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _start_worker(state: RunState, parent: int) -> None:
    global _worker_state
    _worker_state = state
    if sys.platform == "linux":
        # Die with the parent, even one killed outright: a worker holds the
        # pool's call queue open itself, so it would never see end-of-file.
        # The signal follows the forking thread, the parent's main thread.
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
        if os.getppid() != parent:  # the parent died before prctl took effect
            os._exit(1)
    # Ctrl-C reaches the whole process group; only the parent acts on it.
    # SIGTERM ends a worker outright, whatever handler the parent has.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The census runs behind the parent's embed, reduce and cluster, and
    # should take only the CPU time those leave idle.
    os.nice(10)


def _run_channel(state: RunState, fn: Callable, channel: str | None, kwargs: dict) -> object:
    """fn(graph, **kwargs) on the graph of one channel, built here from its
    records; the graph is dropped once fn returns."""
    config = state.config
    graph = ingest_mod.build_co_commenter_graph(
        state.records[channel], channel,
        min_shared_videos=config.min_shared_videos,
    )
    return fn(graph, **kwargs)


def _run_task(fn: Callable, channel: str | None, kwargs: dict) -> object:
    return _run_channel(_worker_state, fn, channel, kwargs)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_channels(state: RunState, fn: Callable, **kwargs) -> Callable[[], list]:
    """Start fn(graph, **kwargs) on every channel; return a call that waits
    for the results and returns them in channel order. Each task builds its
    channel's graph. fn is a module-level function, sent to the run's
    workers by name (see RunState.workers). Without workers the tasks run
    here, when the returned call is made. Either way the call raises the
    error of the first failing channel, as a serial run does."""
    pool = state.workers()
    if pool is None:
        return lambda: [_run_channel(state, fn, c, kwargs) for c in state.channels]
    pending = [pool.submit(_run_task, fn, c, kwargs) for c in state.channels]
    return lambda: [future.result() for future in pending]


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
    config.out, GEXF files to gexf_dir."""

    config: PipelineConfig
    gexf_dir: Path | None = None  # None: config.out
    # The records of each channel, in input order; None keys the whole
    # corpus, and a None channel stands for one graph over all of it.
    records: dict[str | None, list[ingest_mod.CommentRecord]] = field(default_factory=dict)
    channels: list[str | None] = field(default_factory=list)
    graph_stats: dict[str, dict[str, int]] = field(default_factory=dict)  # by graph name
    documents: list[wl_mod.GraphDocument] = field(default_factory=list)
    vocab: embed_mod.Vocabulary | None = None
    matrix: embed_mod.EmbeddingMatrix | None = None
    coords: object = None  # (n_channels, umap_components) array
    reduce_info: dict = field(default_factory=dict)
    clustering: dict = field(default_factory=dict)
    pending_censuses: Callable[[], list] | None = None  # from _map_channels
    censuses: list[cliques_mod.CliqueCensus] = field(default_factory=list)
    ranking: cliques_mod.SuspiciousnessRanking | None = None
    timings: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)
    pool: ProcessPoolExecutor | None = field(default=None, init=False, repr=False)

    @property
    def out_dir(self) -> Path:
        return Path(self.config.out)

    @property
    def labels(self) -> dict:
        """k-means label per channel; empty until clustering is known."""
        return self.clustering["kmeans"]["labels"] if self.clustering else {}

    def workers(self) -> ProcessPoolExecutor | None:
        """The run's one pool of worker processes, or None when its channels
        run serially in this process: threads 1, one channel, one usable CPU,
        or no fork. The first call with threads > 1 forks up to that many
        workers, which inherit the records."""
        if self.pool is None:
            workers = min(self.config.threads, len(self.channels), _usable_cpus())
            if workers > 1:
                import multiprocessing

                if "fork" in multiprocessing.get_all_start_methods():
                    from concurrent.futures.process import ProcessPoolExecutor

                    # fork, not spawn: a spawned worker would need the records
                    # pickled to it. The only other threads at fork time are
                    # numpy's idle BLAS pool; the workers call no BLAS.
                    self.pool = ProcessPoolExecutor(
                        workers, mp_context=multiprocessing.get_context("fork"),
                        initializer=_start_worker, initargs=(self, os.getpid()),
                    )
        return self.pool

    def close(self, kill: bool = False) -> None:
        """Shut the worker pool down: cancel the tasks not started, and wait
        for the workers to exit. The running tasks are waited for, unless
        kill is set (a failed or interrupted run) and they are census tasks,
        which can take minutes: then the workers are killed."""
        if self.pool is None:
            return
        # Every stage before start_census gathered all its results, so once
        # it has run only census tasks can be running. Only those are safe
        # to kill: a census, or its error, is about a kilobyte, sent in one
        # atomic pipe write, while a worker killed partway through sending a
        # larger result (a WL document) leaves the pool reading the rest for
        # ever. The other tasks take seconds, and are waited for.
        if kill and self.pending_censuses is not None:
            processes = list((self.pool._processes or {}).values())
            for process in processes:
                process.kill()
            for process in processes:
                process.join()
        self.pool.shutdown(wait=True, cancel_futures=True)
        self.pool = None

    def __enter__(self) -> RunState:
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(kill=exc_type is not None)


def read_comments(state: RunState, on_duplicate: str = "warn") -> None:
    config = state.config
    if config.input is None:
        raise InvalidConfig("no input file configured")
    records = ingest_mod.parse_comments(
        config.input, format=config.format, on_duplicate=on_duplicate
    )
    state.records = {None: records}
    for record in records:
        state.records.setdefault(record.channel_id, []).append(record)
    state.channels = ingest_mod.channels_in(records)


def check_corpus_size(state: RunState) -> None:
    """Fail before any graph is built when the corpus has too few channels
    for the reduce or cluster settings, instead of after the expensive
    stages have run and written their artifacts."""
    n = len(state.channels)
    check_umap_neighbors(n, state.config)
    check_k_range(n, state.config)


def check_umap_neighbors(n: int, config: PipelineConfig) -> None:
    """InvalidConfig when n channels are too few for the reduce neighbours."""
    if n <= config.umap_neighbors:
        raise InvalidConfig(
            f"{n} channels is too few for umap_neighbors={config.umap_neighbors}; "
            f"reduce needs more channels than neighbours"
        )


def check_k_range(n: int, config: PipelineConfig) -> None:
    """InvalidConfig, explaining the k range, when n channels leave model
    selection no k to try."""
    try:
        cluster_mod.k_range(n, config.k_min, config.k_max)
    except InvalidK:
        raise InvalidConfig(
            f"{n} channels leave no k to select with k_min={config.k_min}, "
            f"k_max={config.k_max} (k_min must be >= 2 and k_max <= channels; "
            f"k_max defaults to min(10, channels - 1))"
        ) from None


def _write_gexf(graph: Graph, directory: Path) -> tuple[str, dict[str, int]]:
    gexf_mod.write_gexf(graph, directory / f"{graph.name}.gexf")
    return graph.name, {"nodes": graph.n_nodes, "edges": graph.n_edges}


def write_graphs(state: RunState) -> None:
    directory = state.gexf_dir or state.out_dir
    directory.mkdir(parents=True, exist_ok=True)
    state.graph_stats = dict(_map_channels(state, _write_gexf, directory=directory)())


def extract_documents(state: RunState) -> None:
    config = state.config
    state.documents = _map_channels(
        state, wl_mod.extract_document, iterations=config.wl_iterations
    )()


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
    embed_mod.write_embeddings_csv(state.matrix, state.out_dir / ARTIFACTS["embeddings"])


def reduce_points(state: RunState) -> None:
    config = state.config
    check_umap_neighbors(len(state.matrix.graph_ids), config)
    state.coords, state.reduce_info = reduce_mod.reduce_embeddings(
        state.matrix.vectors,
        n_neighbors=config.umap_neighbors,
        n_components=config.umap_components,
        epochs=config.umap_epochs,
        negative_rate=config.umap_negative_rate,
        seed=config.seed,
    )
    reduce_mod.write_reduced_csv(
        state.matrix.graph_ids, state.coords, state.out_dir / ARTIFACTS["reduced"]
    )


def cluster_points(state: RunState) -> None:
    config = state.config
    check_k_range(len(state.channels), config)
    state.clustering = compute_clustering(
        state.coords,
        state.channels,
        k_min=config.k_min,
        k_max=config.k_max,
        seed=config.seed,
        n_init=config.n_init,
        dendrogram_path=state.out_dir / ARTIFACTS["dendrogram"],
    )


def start_census(state: RunState) -> None:
    """Queue every channel's clique census with the run's workers, which
    count while this process embeds, reduces and clusters. Without workers
    nothing runs until count_cliques reads the results."""
    config = state.config
    state.pending_censuses = _map_channels(
        state,
        cliques_mod.clique_census,
        min_size=config.clique_min_size,
        budget=config.clique_budget,
    )


def count_cliques(state: RunState) -> None:
    state.censuses = state.pending_censuses()
    cliques_mod.write_census_csv(
        state.censuses, state.labels, state.out_dir / ARTIFACTS["cliques"]
    )


def rank(state: RunState) -> None:
    state.ranking = cliques_mod.rank_channels(state.censuses, state.labels)


def write_report(state: RunState) -> None:
    from . import __version__

    config = state.config
    state.report = {
        "channels": state.channels,
        "config": dataclasses.asdict(config),
        "graph_stats": state.graph_stats,
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
        "artifacts": {"graphs_dir": GRAPHS_DIR, **ARTIFACTS},
        "deterministic": True,
        "version": __version__,
        "warnings": state.warnings,
        "timings": state.timings,
    }
    write_json(state.report, state.out_dir / REPORT)


# The fields every per-channel step reads, through _map_channels.
_CHANNEL_FIELDS = ("threads", "min_shared_videos")
# The pipeline in run order: (stage name in report timings, step, the
# PipelineConfig fields the step reads besides input and out). The CLI
# builds each subcommand's flags from the fields of the steps it runs.
STAGES: tuple[tuple[str, Callable[[RunState], None], tuple[str, ...]], ...] = (
    ("ingest", read_comments, ("format",)),
    ("ingest", check_corpus_size, ("umap_neighbors", "k_min", "k_max")),
    ("graphs", write_graphs, _CHANNEL_FIELDS),
    ("wl", extract_documents, (*_CHANNEL_FIELDS, "wl_iterations")),
    ("cliques", start_census, (*_CHANNEL_FIELDS, "clique_min_size", "clique_budget")),
    ("embed", embed_documents, ("seed", "dim", "lr", "min_count", "epochs", "negative")),
    ("reduce", reduce_points, (
        "seed", "umap_neighbors", "umap_components", "umap_epochs", "umap_negative_rate",
    )),
    ("cluster", cluster_points, ("seed", "k_min", "k_max", "n_init")),
    ("cliques", count_cliques, ()),
    ("rank", rank, ()),
    ("report", write_report, ()),
)


def fields_read(steps) -> list[str]:
    """The config fields the given steps read, in PipelineConfig order."""
    wanted = {name for _, step, names in STAGES if step in steps for name in names}
    return [name for name in CONFIG_FIELDS if name in wanted]


def _remove_artifacts(out_dir: Path) -> None:
    """Delete what run_pipeline writes in out_dir, temp files of a write cut
    short included. Other files in out_dir are kept."""
    names = (INCOMPLETE_MARKER, REPORT, *ARTIFACTS.values())
    graphs = out_dir / GRAPHS_DIR
    for path in (*(out_dir / name for name in names), *graphs.glob("*.gexf"),
                 *temp_files(out_dir, *names), *temp_files(graphs, "*.gexf")):
        path.unlink(missing_ok=True)


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and return the consolidated report (also written
    to out/report.json)."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    marker = out_dir / INCOMPLETE_MARKER
    _remove_artifacts(out_dir)

    collector = _WarningCollector()
    root = logging.getLogger("mobgraph")
    root.addHandler(collector)
    state = RunState(config, gexf_dir=out_dir / GRAPHS_DIR, warnings=collector.messages)
    stage = STAGES[0][0]
    try:
        with state:  # the workers are gone before any cleanup below
            for stage, step, _fields in STAGES:
                started = time.perf_counter()
                step(state)
                elapsed = time.perf_counter() - started
                state.timings[stage] = state.timings.get(stage, 0.0) + elapsed
        return state.report
    except BaseException as exc:  # noqa: BLE001 - stage context is the contract
        _remove_artifacts(out_dir)
        if not isinstance(exc, Exception):  # Ctrl-C, or a signal handler's exit
            marker.write_text(f"failed at stage: {stage}\ninterrupted\n", encoding="utf-8")
            raise
        marker.write_text(f"failed at stage: {stage}\n{exc}\n", encoding="utf-8")
        raise PipelineStageError(stage, exc) from exc
    finally:
        root.removeHandler(collector)
