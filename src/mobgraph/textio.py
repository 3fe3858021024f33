"""Text artifacts: one way to open them, and the layouts shared by several.

Every reader and writer takes a path or an already open stream. A path is
opened as UTF-8 without newline translation and closed again; a stream is
used as given (a binary one is decoded as UTF-8) and left open for its
owner. Readers also take the content itself as bytes, skip a UTF-8 byte
order mark at the start, and raise a MobgraphError naming input that is not
UTF-8. A path opened for writing is replaced whole once the writer is done,
never left half written; `temp_files` finds the temp files of writers whose
process died before that.
"""

from __future__ import annotations

import contextlib
import csv
import fnmatch
import io
import json
import math
import os
import re
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

from .errors import MobgraphError

TextTarget = Union[str, Path, IO[str], IO[bytes]]
Source = Union[TextTarget, bytes]


@contextlib.contextmanager
def replacing(path: str | Path, mode: str, **kwargs) -> Iterator[IO]:
    """open() for writing, through a temp file beside path: it is renamed
    onto path when the block ends, and deleted if the block raises, which
    leaves path as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_TEMP_NAME = re.compile(r"\.(.+)\.[0-9a-f]{8}\.tmp")


def temp_files(directory: Path, *patterns: str) -> list[Path]:
    """The temp files that replacing() left in directory, for the targets
    whose names match one of the glob patterns."""
    found = []
    for path in directory.glob(".*.tmp"):
        match = _TEMP_NAME.fullmatch(path.name)
        if match and any(fnmatch.fnmatchcase(match[1], p) for p in patterns):
            found.append(path)
    return found


@contextlib.contextmanager
def open_text(target: Source, mode: str = "r") -> Iterator[IO[str]]:
    # Spreadsheet programs write a byte order mark into "CSV UTF-8".
    encoding = "utf-8" if mode == "w" else "utf-8-sig"
    try:
        if isinstance(target, (str, Path)):
            opener = replacing if mode == "w" else open
            with opener(target, mode, encoding=encoding, newline="") as f:
                yield f
        elif isinstance(target, (bytes, io.RawIOBase, io.BufferedIOBase)):
            raw = io.BytesIO(target) if isinstance(target, bytes) else target
            wrapper = io.TextIOWrapper(raw, encoding=encoding, newline="")
            try:
                yield wrapper
            finally:
                wrapper.detach()  # closing the wrapper would close the caller's stream
        else:
            yield target
    except UnicodeDecodeError:
        name = target if isinstance(target, (str, Path)) else getattr(target, "name", "input")
        raise MobgraphError(f"{name} is not UTF-8 text") from None


def has_type(value, kind: type) -> bool:
    """Whether a value read from JSON is a kind (int, float or str): a bool is
    none of them, and an int is a float."""
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and not isinstance(value, bool)


def read_json(path: str | Path, *keys: str) -> dict:
    """The JSON object in path, which must hold each of keys; anything else
    is a MobgraphError naming the file. A dotted key such as
    "clustering.kmeans" asks for nested objects."""
    with open_text(path) as stream:
        try:
            data = json.load(stream)
        except json.JSONDecodeError as exc:
            raise MobgraphError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise MobgraphError(f"{path}: expected a JSON object")
    for dotted in keys:
        node, parents = data, []
        for key in dotted.split("."):
            if not isinstance(node, dict) or key not in node:
                inside = f" in {'.'.join(parents)!r}" if parents else ""
                raise MobgraphError(f"{path}: no {key!r} key{inside}")
            node = node[key]
            parents.append(key)
    return data


def write_json(payload, sink: TextTarget) -> None:
    """Sorted keys, two-space indent, trailing newline."""
    with open_text(sink, "w") as out:
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")


def write_id_table(graph_ids, rows: np.ndarray, prefix: str, sink: TextTarget) -> None:
    """CSV with header graph_id,{prefix}0..{prefix}{d-1}, one row per graph;
    floats via repr so they read back bit for bit."""
    with open_text(sink, "w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["graph_id"] + [f"{prefix}{i}" for i in range(rows.shape[1])])
        for gid, row in zip(graph_ids, rows):
            writer.writerow([gid] + [repr(float(x)) for x in row])


def read_id_table(source: TextTarget, what: str) -> tuple[list[str], np.ndarray]:
    """Read a write_id_table CSV back. Anything else, a cell that is not a
    finite number or a graph_id seen before included, is a MobgraphError
    naming the file (`what` CSV when source is not a path) and the line."""
    name = source if isinstance(source, (str, Path)) else f"{what} CSV"
    with open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader, None)
            if not header or header[0] != "graph_id":
                raise MobgraphError(f"{name}: line 1: expected a header starting with graph_id")
            lines: dict[str, int] = {}  # graph_id -> its line
            rows: list[list[float]] = []
            for row in reader:
                if len(row) != len(header):
                    raise MobgraphError(f"{name}: line {reader.line_num}: expected "
                                        f"{len(header)} fields, got {len(row)}")
                values = [float(x) for x in row[1:]]
                for cell, value in zip(row[1:], values):
                    if not math.isfinite(value):
                        raise MobgraphError(f"{name}: line {reader.line_num}: "
                                            f"{cell!r} is not a finite number")
                if row[0] in lines:
                    raise MobgraphError(f"{name}: line {reader.line_num}: graph_id "
                                        f"{row[0]!r} repeats line {lines[row[0]]}")
                lines[row[0]] = reader.line_num
                rows.append(values)
        except (csv.Error, ValueError) as exc:  # the reader's own errors; float()'s
            raise MobgraphError(f"{name}: line {reader.line_num}: {exc}") from None
    return list(lines), np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)
