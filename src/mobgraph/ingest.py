"""Comment-corpus parsing and co-commenter graph construction.

Input is a comment table (CSV or JSON-lines) with one row per comment event.
From it we build, per channel, an undirected graph whose nodes are commenters
and whose edge weights count the videos both endpoints commented on.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import DuplicateCommentId, EmptyChannel, MalformedRow, MissingColumn
from .graph import Graph
from .textio import Source, TextTarget, open_text

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("channel_id", "video_id", "commenter_id", "comment_id")
OPTIONAL_COLUMNS = ("published_at", "text")
CSV_HEADER = REQUIRED_COLUMNS + OPTIONAL_COLUMNS


@dataclass(frozen=True)
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
    with open_text(source) as stream:
        rows = _iter_csv(stream) if format == "csv" else _iter_json_lines(stream)
        for line, fields in rows:
            record = _make_record(line, fields)
            if record.comment_id in seen:
                if on_duplicate == "error":
                    raise DuplicateCommentId(record.comment_id, line)
                logger.warning(
                    "dropping duplicate comment_id %r at line %d", record.comment_id, line
                )
                continue
            seen.add(record.comment_id)
            records.append(record)
    return records


def _make_record(line: int, fields: dict[str, str | None]) -> CommentRecord:
    for col in ("channel_id", "video_id", "commenter_id"):
        value = fields.get(col)
        if not value:
            raise MalformedRow(line, f"empty or missing {col}")
    if fields.get("comment_id") is None:
        raise MalformedRow(line, "missing comment_id")
    channel = fields["channel_id"]  # becomes a file name: graphs/<channel>.gexf
    if channel in (".", "..") or any(c in channel for c in "/\\\0"):
        raise MalformedRow(line, f"channel_id {channel!r} is not a safe file name")
    return CommentRecord(
        channel_id=fields["channel_id"],  # type: ignore[arg-type]
        video_id=fields["video_id"],  # type: ignore[arg-type]
        commenter_id=fields["commenter_id"],  # type: ignore[arg-type]
        comment_id=fields["comment_id"],  # type: ignore[arg-type]
        published_at=fields.get("published_at") or None,
        text=fields.get("text") or None,
    )


def _iter_csv(stream: IO[str]) -> Iterable[tuple[int, dict[str, str | None]]]:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("channel_id") from None
    positions = {name: i for i, name in enumerate(header)}
    for col in REQUIRED_COLUMNS:
        if col not in positions:
            raise MissingColumn(col)
    for row in reader:
        if not row:
            continue  # blank line
        line = reader.line_num
        if len(row) != len(header):
            raise MalformedRow(
                line, f"expected {len(header)} fields, got {len(row)}"
            )
        fields: dict[str, str | None] = {}
        for col in CSV_HEADER:
            pos = positions.get(col)
            fields[col] = row[pos] if pos is not None else None
        yield line, fields


def _iter_json_lines(stream: IO[str]) -> Iterable[tuple[int, dict[str, str | None]]]:
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
        fields: dict[str, str | None] = {}
        for col in CSV_HEADER:
            value = obj.get(col)
            if value is None:
                fields[col] = None
            elif isinstance(value, str):
                fields[col] = value
            else:
                raise MalformedRow(line, f"{col} must be a string")
        for col in REQUIRED_COLUMNS:
            if col not in obj:
                raise MalformedRow(line, f"missing key {col!r}")
        yield line, fields


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
    include_isolated: bool = False,
) -> Graph:
    """Build the weighted co-commenter graph for one channel.

    channel=None merges the whole corpus into a single graph (cross-channel
    edges included). Multiple comments by one commenter on one video count
    once. Edges below min_shared_videos are dropped; commenters left without
    a retained edge appear only when include_isolated is set.
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

    commenters_by_video: dict[str, set[str]] = {}
    for r in selected:
        commenters_by_video.setdefault(r.video_id, set()).add(r.commenter_id)

    shared: dict[tuple[str, str], int] = {}
    for commenters in commenters_by_video.values():
        group = sorted(commenters)
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                key = (u, v)
                shared[key] = shared.get(key, 0) + 1

    graph = Graph(name)
    if include_isolated:
        for commenters in commenters_by_video.values():
            for u in commenters:
                graph.add_node(u)
    for (u, v), count in shared.items():
        if count >= min_shared_videos:
            graph.add_edge(u, v, float(count))
    return graph
