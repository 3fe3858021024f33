"""Text artifacts: one way to open them, and the layouts shared by several.

Every reader and writer takes a path or an already open stream. A path is
opened as UTF-8 without newline translation and closed again; a stream is
used as given (a binary one is decoded as UTF-8) and left open for its
owner. Readers also take the content itself as bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

TextTarget = Union[str, Path, IO[str]]
Source = Union[str, Path, bytes, IO[bytes], IO[str]]


@contextlib.contextmanager
def open_text(target: Source, mode: str = "r") -> Iterator[IO[str]]:
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as f:
            yield f
    elif isinstance(target, (bytes, io.RawIOBase, io.BufferedIOBase)):
        raw = io.BytesIO(target) if isinstance(target, bytes) else target
        wrapper = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        try:
            yield wrapper
        finally:
            wrapper.detach()  # closing the wrapper would close the caller's stream
    else:
        yield target


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
    """Read a write_id_table CSV back; `what` names it in the error."""
    with open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader)
        if not header or header[0] != "graph_id":
            raise ValueError(f"{what} CSV must start with a graph_id column")
        ids: list[str] = []
        rows: list[list[float]] = []
        for row in reader:
            ids.append(row[0])
            rows.append([float(x) for x in row[1:]])
    return ids, np.array(rows, dtype=np.float64)
