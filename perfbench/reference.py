"""Expected clique counts, computed without any mobgraph code.

Reads the written comment table with the standard library, applies the
documented input rules (first record wins for a repeated comment_id, blank
CSV lines skipped), joins two commenters of one channel when they commented
on a common video, and counts maximal cliques with networkx.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import combinations

import networkx as nx


@dataclass
class Reference:
    comments: int
    counts: dict[str, int]  # channel -> maximal cliques with >= min_size members
    edges: int
    maximal_cliques: int  # all sizes

    def ranking(self) -> list[tuple[str, int]]:
        """Channels by count, descending, ties by channel id."""
        return sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))


def read_rows(path: str, fmt: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        if fmt == "csv":
            return [row for row in csv.DictReader(f) if row]
        return [json.loads(line) for line in f]


def expected(path: str, fmt: str, min_size: int) -> Reference:
    seen: set[str] = set()
    videos: dict[str, dict[str, set[str]]] = {}
    comments = 0
    for row in read_rows(path, fmt):
        if row["comment_id"] in seen:
            continue
        seen.add(row["comment_id"])
        comments += 1
        videos.setdefault(row["channel_id"], {}).setdefault(
            row["video_id"], set()
        ).add(row["commenter_id"])
    counts = {}
    edges = cliques = 0
    for channel, by_video in videos.items():
        graph = nx.Graph()
        for commenters in by_video.values():
            graph.add_edges_from(combinations(sorted(commenters), 2))
        edges += graph.number_of_edges()
        sizes = [len(c) for c in nx.find_cliques(graph)]
        cliques += len(sizes)
        counts[channel] = sum(1 for s in sizes if s >= min_size)
    return Reference(comments=comments, counts=counts, edges=edges,
                     maximal_cliques=cliques)
