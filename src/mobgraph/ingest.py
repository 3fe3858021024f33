"""Comment-corpus parsing and co-commenter graph construction.

Input is a comment table (CSV or JSON-lines) with one row per comment event.
From it we build, per channel, an undirected graph whose nodes are commenters
and whose edge weights count the videos both endpoints commented on.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable

import numpy as np

from .errors import DuplicateCommentId, EmptyChannel, MalformedRow, MissingColumn
from .graph import Graph
from .textio import Source, TextTarget, open_text

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("channel_id", "video_id", "commenter_id", "comment_id")
OPTIONAL_COLUMNS = ("published_at", "text")
CSV_HEADER = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
# What a channel or commenter id may not hold: control characters (XML cannot
# carry most of them), surrogates, and the non-characters U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True, slots=True)
class CommentRecord:
    """One comment event. published_at and text are carried, never analyzed."""

    channel_id: str
    video_id: str
    commenter_id: str
    comment_id: str
    published_at: str | None = None
    text: str | None = None


def parse_comments(
    source: Source,
    format: str = "csv",
    on_duplicate: str = "warn",
) -> list[CommentRecord]:
    """Parse comment records from a CSV or JSON-lines stream, in input order.

    on_duplicate: "warn" keeps the first record with a given comment_id and
    logs the rest; "error" raises DuplicateCommentId.
    """
    if format not in ("csv", "json-lines"):
        raise ValueError(f"unknown format {format!r}; use 'csv' or 'json-lines'")
    if on_duplicate not in ("warn", "error"):
        raise ValueError(f"on_duplicate must be 'warn' or 'error', got {on_duplicate!r}")
    records: list[CommentRecord] = []
    seen: set[str] = set()
    # One string per distinct id, shared by every record that holds it. A
    # channel or commenter id is checked when it is first seen.
    channels: dict[str, str] = {}
    commenters: dict[str, str] = {}
    videos: dict[str, str] = {}
    with open_text(source) as stream:
        rows = _iter_csv(stream) if format == "csv" else _iter_json_lines(stream)
        for line, (channel, video, commenter, comment_id, published, text) in rows:
            if not channel:
                raise MalformedRow(line, "empty or missing channel_id")
            if not video:
                raise MalformedRow(line, "empty or missing video_id")
            if not commenter:
                raise MalformedRow(line, "empty or missing commenter_id")
            if not comment_id:
                raise MalformedRow(line, "empty or missing comment_id")
            if channel not in channels:
                _check_channel(line, channel)
                channels[channel] = channel
            if commenter not in commenters:
                _check_gexf_text(line, "commenter_id", commenter)
                commenters[commenter] = commenter
            if comment_id in seen:
                if on_duplicate == "error":
                    raise DuplicateCommentId(comment_id, line)
                logger.warning(
                    "dropping duplicate comment_id %r at line %d", comment_id, line
                )
                continue
            seen.add(comment_id)
            records.append(CommentRecord(
                channels[channel], videos.setdefault(video, video), commenters[commenter],
                comment_id, published or None, text or None))
    return records


def _check_channel(line: int, channel: str) -> None:
    """A channel id becomes a file name, graphs/<channel>.gexf, and is
    written into GEXF."""
    if channel in (".", "..") or any(c in channel for c in "/\\"):
        raise MalformedRow(line, f"channel_id {channel!r} is not a safe file name")
    _check_gexf_text(line, "channel_id", channel)


def _check_gexf_text(line: int, col: str, value: str) -> None:
    if _NOT_XML.search(value):
        raise MalformedRow(line, f"{col} {value!r} holds a character "
                                 f"that GEXF cannot carry")


# A row: its CSV_HEADER values in that order, None for an absent column.
Row = tuple[str | None, ...]


def _iter_csv(stream: IO[str]) -> Iterable[tuple[int, Row]]:
    """The CSV rows, with an error of the reader itself (a NUL byte before
    Python 3.11, a field over csv.field_size_limit()) as MalformedRow."""
    reader = csv.reader(stream)
    try:
        yield from _csv_rows(reader)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None


def _csv_rows(reader) -> Iterable[tuple[int, Row]]:
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("channel_id") from None
    positions = {name: i for i, name in enumerate(header)}
    for col in REQUIRED_COLUMNS:
        if col not in positions:
            raise MissingColumn(col)
    width = len(header)
    # An absent optional column reads the None appended to each row.
    pick = itemgetter(*(positions.get(col, width) for col in CSV_HEADER))
    for row in reader:
        if not row:
            continue  # blank line
        if len(row) != width:
            raise MalformedRow(
                reader.line_num, f"expected {width} fields, got {len(row)}"
            )
        row.append(None)
        yield reader.line_num, pick(row)


def _iter_json_lines(stream: IO[str]) -> Iterable[tuple[int, Row]]:
    for line, raw in enumerate(stream, start=1):
        raw = raw.rstrip("\n").rstrip("\r")
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedRow(line, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise MalformedRow(line, "expected a JSON object")
        row = tuple(map(obj.get, CSV_HEADER))
        for col, value in zip(CSV_HEADER, row):
            if value is not None and not isinstance(value, str):
                raise MalformedRow(line, f"{col} must be a string")
        for col in REQUIRED_COLUMNS:
            if col not in obj:
                raise MalformedRow(line, f"missing key {col!r}")
        yield line, row


def write_comments_csv(records: Iterable[CommentRecord], sink: TextTarget) -> None:
    """Write records in the same CSV layout parse_comments reads."""
    with open_text(sink, "w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [r.channel_id, r.video_id, r.commenter_id, r.comment_id,
                 r.published_at or "", r.text or ""]
            )


def channels_in(records: Iterable[CommentRecord]) -> list[str]:
    """Distinct channel ids, sorted."""
    return sorted({r.channel_id for r in records})


def build_co_commenter_graph(
    records: Iterable[CommentRecord],
    channel: str | None,
    min_shared_videos: int = 1,
) -> Graph:
    """Build the weighted co-commenter graph for one channel.

    channel=None merges the whole corpus into a single graph (cross-channel
    edges included). Multiple comments by one commenter on one video count
    once. Edges below min_shared_videos are dropped, and a commenter left
    without a retained edge is not a node.
    """
    if min_shared_videos < 1:
        raise ValueError(f"min_shared_videos must be >= 1, got {min_shared_videos}")
    if channel is None:
        selected = list(records)
        name = "merged"
    else:
        selected = [r for r in records if r.channel_id == channel]
        name = channel
    if not selected:
        raise EmptyChannel(channel)

    # Each commenter's code is its rank in sorted id order. A (video,
    # commenter) pair is one int64 key, video-major, so the sorted distinct
    # keys hold each video's commenters as one ascending run.
    commenters = sorted({r.commenter_id for r in selected})
    n = len(commenters)
    code = dict(zip(commenters, range(n)))
    videos: dict[str, int] = {}
    pairs = {videos.setdefault(r.video_id, len(videos)) * n + code[r.commenter_id]
             for r in selected}
    video, commenter = np.divmod(np.sort(np.fromiter(pairs, np.int64, len(pairs))), n)
    _, firsts, sizes = np.unique(video, return_index=True, return_counts=True)

    # Every co-commenting pair u < v of every video, one group size at a time.
    keys = [np.empty(0, dtype=np.int64)]
    for size in sorted(set(sizes[sizes > 1].tolist())):
        group = commenter[firsts[sizes == size, None] + np.arange(size)]
        u, v = np.triu_indices(size, 1)
        keys.append((group[:, u] * n + group[:, v]).ravel())
    keys, shared = np.unique(np.concatenate(keys), return_counts=True)
    kept = shared >= min_shared_videos
    u, v = np.divmod(keys[kept], n)
    del keys
    # A commenter left without an edge is not a node.
    nodes = np.flatnonzero(np.bincount(np.concatenate([u, v]), minlength=n))
    u, v = (np.searchsorted(nodes, end).astype(np.int32) for end in (u, v))
    return Graph(name, [commenters[i] for i in nodes.tolist()], u, v, shared[kept])
