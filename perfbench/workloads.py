"""The benchmark's workloads: how each corpus is generated and how it is run.

A corpus comes from mobgraph's synthetic generator and the workload seed
only; the program under test sees nothing but the written input file. The
commands that run it do not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass

CLIQUE_MIN_SIZE = 5  # the pipeline default the reference counts against
SUBCOMMANDS = ("ingest", "graphs", "embed", "reduce", "cluster", "cliques")


@dataclass(frozen=True)
class Workload:
    name: str
    channels: int
    videos: int
    organic: int
    mode: str  # "pipeline": one run_pipeline call; "stagewise": six CLI processes
    format: str = "csv"
    threads: int = 1
    heavy_mob_size: int = 12
    heavy_mob_prob: float = 0.6

    @property
    def suffix(self) -> str:
        return "csv" if self.format == "csv" else "jsonl"


# Each is sized so that one 35 s run holds four to eight repetitions; the
# larger corpora first proposed took 8-15 s a repetition (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("census_dense", channels=12, videos=40, organic=100,
                 mode="pipeline", threads=2),
        Workload("many_sparse", channels=60, videos=20, organic=30,
                 mode="pipeline", heavy_mob_size=8, heavy_mob_prob=0.5),
        Workload("stagewise_jsonl", channels=12, videos=40, organic=50,
                 mode="stagewise", format="json-lines"),
    )
}

COLUMNS = ("channel_id", "video_id", "commenter_id", "comment_id")


def corpus(workload: Workload, seed: int) -> list[tuple[str, str, str, str]]:
    from mobgraph import synth

    config = synth.two_family_config(
        seed=seed,
        n_channels=workload.channels,
        videos_per_channel=workload.videos,
        organic_commenters=workload.organic,
        heavy_mob_size=workload.heavy_mob_size,
        heavy_mob_prob=workload.heavy_mob_prob,
    )
    records, _truth = synth.generate_corpus(config)
    return [(r.channel_id, r.video_id, r.commenter_id, r.comment_id) for r in records]


def write_corpus(rows, path: str, fmt: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        if fmt == "csv":
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(COLUMNS)
            writer.writerows(rows)
        else:
            for row in rows:
                f.write(json.dumps(dict(zip(COLUMNS, row))) + "\n")


def commands(workload: Workload, child: str, source: str, out: str,
             result: str, trace: str | None) -> list[tuple[str, list[str]]]:
    """(label, argv) of each process one repetition starts, in order.

    Every process runs child.py, which times its `import mobgraph.cli` and
    then does what `python -m mobgraph.cli` or run_pipeline would do.
    """
    def child_argv(label: str, *args: str) -> list[str]:
        trace_path = "-" if trace is None else f"{trace}.{label}"
        return [sys.executable, child, result, trace_path, *args]

    if workload.mode == "pipeline":
        return [("pipeline", child_argv("pipeline", "pipeline", source, workload.format,
                                        out, str(workload.threads)))]
    fmt = ["--format", workload.format]
    args = {
        "ingest": ["--input", source, *fmt],
        "graphs": ["--input", source, *fmt, "--out", f"{out}/graphs"],
        "embed": ["--input", source, *fmt, "--out", out],
        "reduce": ["--input", f"{out}/embeddings.csv", "--out", out],
        "cluster": ["--input", f"{out}/reduced.csv", "--out", out],
        "cliques": ["--input", source, *fmt, "--out", out],
    }
    return [(sub, child_argv(sub, "cli", sub, *args[sub])) for sub in SUBCOMMANDS]
