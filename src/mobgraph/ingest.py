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
from operator import attrgetter, itemgetter
from typing import IO, Iterable

import numpy as np

from .errors import DuplicateCommentId, EmptyChannel, MalformedRow, MissingColumn, MobgraphError
from .graph import Graph
from .textio import JSON_DECODER, MAX_NAME_BYTES, Source, TextTarget, open_text, write_csv

logger = logging.getLogger(__name__)

# The columns read; any other CSV column or JSON key is ignored.
COLUMNS = ("channel_id", "video_id", "commenter_id", "comment_id")
# What a channel or commenter id may not hold: control characters (XML cannot
# carry most of them), surrogates, and the non-characters U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True, slots=True)
class CommentRecord:
    """One comment event: who commented on which video of which channel."""

    channel_id: str
    video_id: str
    commenter_id: str
    comment_id: str


def parse_comments(
    source: Source,
    format: str = "csv",
    on_duplicate: str = "warn",
) -> list[CommentRecord]:
    """Parse comment records from a CSV or JSON-lines stream, in input order.

    on_duplicate: "warn" keeps the first record with a given comment_id and
    drops the rest, logging one warning for them all; "error" raises
    DuplicateCommentId.
    """
    if format not in ("csv", "json-lines"):
        raise ValueError(f"unknown format {format!r}; use 'csv' or 'json-lines'")
    if on_duplicate not in ("warn", "error"):
        raise ValueError(f"on_duplicate must be 'warn' or 'error', got {on_duplicate!r}")
    records: list[CommentRecord] = []
    seen: set[str] = set()
    dropped = 0
    first_dropped: tuple[str, int] | None = None  # (comment_id, line)
    # One string per distinct id, shared by every record that holds it. A
    # channel or commenter id is checked when it is first seen.
    channels: dict[str, str] = {}
    commenters: dict[str, str] = {}
    videos: dict[str, str] = {}
    with open_text(source) as stream:
        rows = _iter_csv(stream) if format == "csv" else _iter_json_lines(stream)
        for line, row in rows:
            if not all(row):
                column = next(col for col, value in zip(COLUMNS, row) if not value)
                raise MalformedRow(line, f"empty or missing {column}")
            channel, video, commenter, comment_id = row
            if channel not in channels:
                _check_channel(line, channel)
                channels[channel] = channel
            if commenter not in commenters:
                _check_gexf_text(line, "commenter_id", commenter)
                commenters[commenter] = commenter
            if comment_id in seen:
                if on_duplicate == "error":
                    raise DuplicateCommentId(comment_id, line)
                dropped += 1
                first_dropped = first_dropped or (comment_id, line)
                continue
            seen.add(comment_id)
            records.append(CommentRecord(
                channels[channel], videos.setdefault(video, video), commenters[commenter],
                comment_id))
    if dropped:
        logger.warning("dropped %d record(s) with a duplicate comment_id, the first %r "
                       "at line %d", dropped, *first_dropped)
    return records


def _check_channel(line: int, channel: str) -> None:
    """A channel id becomes a file name, graphs/<channel>.gexf, which must
    fit MAX_NAME_BYTES, and is written into GEXF."""
    if channel in (".", "..") or any(c in channel for c in "/\\"):
        raise MalformedRow(line, f"channel_id {channel!r} is not a safe file name")
    _check_gexf_text(line, "channel_id", channel)
    size = len(f"{channel}.gexf".encode("utf-8"))
    if size > MAX_NAME_BYTES:
        raise MalformedRow(line, f"channel_id is too long for a file name: <channel_id>.gexf "
                                 f"has {size} bytes, at most {MAX_NAME_BYTES} fit")


def _check_gexf_text(line: int, col: str, value: str) -> None:
    if _NOT_XML.search(value):
        raise MalformedRow(line, f"{col} {value!r} holds a character "
                                 f"that GEXF cannot carry")


# A row: its COLUMNS values in that order.
Row = tuple[str | None, ...]


def _iter_csv(stream: IO[str]) -> Iterable[tuple[int, Row]]:
    """The CSV rows, with an error of the reader itself (a NUL byte before
    Python 3.11, a field over csv.field_size_limit()) as MalformedRow."""
    reader = csv.reader(stream)
    try:
        header = next(reader, [])  # an empty file lacks channel_id
        for col in COLUMNS:
            if header.count(col) > 1:
                raise MalformedRow(reader.line_num,
                                   f"column {col!r} appears more than once in the header")
        for col in COLUMNS:
            if col not in header:
                raise MissingColumn(col)
        width = len(header)
        pick = itemgetter(*map(header.index, COLUMNS))
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) != width:
                raise MalformedRow(
                    reader.line_num, f"expected {width} fields, got {len(row)}"
                )
            yield reader.line_num, pick(row)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None


def _iter_json_lines(stream: IO[str]) -> Iterable[tuple[int, Row]]:
    for line, raw in enumerate(stream, start=1):
        raw = raw.rstrip("\n").rstrip("\r")
        if not raw.strip():
            continue
        try:
            obj = JSON_DECODER.decode(raw)
        except json.JSONDecodeError as exc:
            raise MalformedRow(line, f"invalid JSON: {exc.msg}") from None
        except MobgraphError as exc:  # a repeated key
            raise MalformedRow(line, str(exc)) from None
        if not isinstance(obj, dict):
            raise MalformedRow(line, "expected a JSON object")
        row = tuple(map(obj.get, COLUMNS))
        for col, value in zip(COLUMNS, row):
            if value is not None and not isinstance(value, str):
                raise MalformedRow(line, f"{col} must be a string")
        for col in COLUMNS:
            if col not in obj:
                raise MalformedRow(line, f"missing key {col!r}")
        yield line, row


def write_comments_csv(records: Iterable[CommentRecord], sink: TextTarget) -> None:
    """Write records in the same CSV layout parse_comments reads."""
    write_csv(sink, COLUMNS, map(attrgetter(*COLUMNS), records))


def channels_in(records: Iterable[CommentRecord]) -> list[str]:
    """Distinct channel ids, sorted."""
    return sorted({r.channel_id for r in records})


@dataclass(frozen=True, slots=True)
class ChannelTable:
    """One channel's comments, reduced to what its graph is built from. A
    commenter's code is its index in commenters; a (video, commenter) pair
    is the int64 key video * len(commenters) + commenter, video-major, so
    the sorted keys hold each video's commenters as one ascending run."""

    commenters: list[str]  # distinct ids, sorted
    pairs: np.ndarray  # the distinct pair keys, sorted
    comments: int  # the channel's records, repeats of a pair included


def channel_tables(records: Iterable[CommentRecord]) -> dict[str, ChannelTable]:
    """Each channel's ChannelTable, keyed by channel id in sorted order. A
    video's code is its rank in the order the channel's records first name it."""
    grouped: dict[str, list[CommentRecord]] = {}
    for r in records:
        grouped.setdefault(r.channel_id, []).append(r)
    tables = {}
    for channel in sorted(grouped):
        selected = grouped.pop(channel)
        commenters = sorted({r.commenter_id for r in selected})
        n = len(commenters)
        code = dict(zip(commenters, range(n)))
        videos: dict[str, int] = {}
        pairs = {videos.setdefault(r.video_id, len(videos)) * n + code[r.commenter_id]
                 for r in selected}
        tables[channel] = ChannelTable(
            commenters, np.sort(np.fromiter(pairs, np.int64, len(pairs))), len(selected))
    return tables


def build_co_commenter_graph(
    records: Iterable[CommentRecord] | ChannelTable,
    channel: str,
    min_shared_videos: int = 1,
) -> Graph:
    """Build the weighted co-commenter graph for one channel, from comment
    records of any channels or from the channel's ChannelTable.

    Multiple comments by one commenter on one video count once. Edges below
    min_shared_videos are dropped, and a commenter left without a retained
    edge is not a node.
    """
    if min_shared_videos < 1:
        raise ValueError(f"min_shared_videos must be >= 1, got {min_shared_videos}")
    table = records if isinstance(records, ChannelTable) else channel_tables(
        r for r in records if r.channel_id == channel).get(channel)
    if table is None:
        raise EmptyChannel(channel)
    commenters = table.commenters
    n = len(commenters)
    video, commenter = np.divmod(table.pairs, n)
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
    return Graph(channel, [commenters[i] for i in nodes.tolist()], u, v, shared[kept])
