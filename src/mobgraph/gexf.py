"""GEXF 1.2 serialization for co-commenter graphs.

The channel id travels in <meta><description>. Output is byte-deterministic:
nodes and edges are written in sorted order with a fixed layout.
"""

from __future__ import annotations

import io
import math
import xml.etree.ElementTree as ET
from bisect import bisect_left
from typing import IO, Iterable, Iterator

from .errors import DirectedGraphUnsupported, MalformedGexf
from .graph import Graph
from .textio import Source, TextTarget, open_text

GEXF_XMLNS = "http://www.gexf.net/1.2draft"

# The escapes ElementTree's serializer applies to text and attribute values.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\r": "&#13;", "\n": "&#10;", "\t": "&#09;",
})


def _format_weight(w: float) -> str:
    if w == int(w):
        return str(int(w))
    return repr(w)


def _write_block(out: IO[str], tag: str, empty: bool, children: Iterable[str]) -> None:
    """A four-space-indented element around its children's lines."""
    if empty:
        out.write(f"    <{tag} />\n")
        return
    out.write(f"    <{tag}>\n")
    out.writelines(children)
    out.write(f"    </{tag}>\n")


def _edge_lines(graph: Graph, ids: list[str]) -> Iterator[str]:
    """One string per node: the lines of its edges to later nodes, in
    graph.edges() order; ids holds each node's escaped id."""
    indptr = graph.indptr.tolist()
    idx = 0
    for u, source in enumerate(ids):
        row = graph.indices[indptr[u]:indptr[u + 1]].tolist()
        first = bisect_left(row, u)  # where the later neighbours start
        weights = graph.weights[indptr[u] + first:indptr[u + 1]].tolist()
        yield "".join(
            f'      <edge id="{idx + i}" source="{source}" target="{ids[v]}" '
            f'weight="{_format_weight(w)}" />\n'
            for i, (v, w) in enumerate(zip(row[first:], weights))
        )
        idx += len(weights)


def write_gexf(graph: Graph, sink: TextTarget) -> None:
    """Serialize an undirected weighted graph as GEXF 1.2, in the bytes that
    ElementTree writes after indent(); a path is replaced whole, never left
    half written. The edges are written node by node, so no more than one
    node's lines are held at a time."""
    name = graph.name.translate(_TEXT_ESCAPES)
    description = f"<description>{name}</description>" if name else "<description />"
    ids = [nid.translate(_ATTR_ESCAPES) for nid in graph.ids]
    with open_text(sink, "w") as out:
        out.write(
            "<?xml version='1.0' encoding='utf-8'?>\n"
            f'<gexf xmlns="{GEXF_XMLNS}" version="1.2">\n'
            f"  <meta>\n    {description}\n  </meta>\n"
            '  <graph defaultedgetype="undirected" mode="static">\n'
        )
        _write_block(out, "nodes", not ids,
                     (f'      <node id="{nid}" label="{nid}" />\n' for nid in ids))
        _write_block(out, "edges", graph.n_edges == 0, _edge_lines(graph, ids))
        out.write("  </graph>\n</gexf>\n")


def read_gexf(source: Source) -> Graph:
    """Parse a GEXF 1.2 document back into a Graph.

    Accepts both namespaced and plain-tag documents. Only undirected graphs
    are supported; a missing edge weight defaults to 1 per the format.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    try:
        root = ET.parse(source).getroot()
    except ET.ParseError as exc:
        raise MalformedGexf(f"XML parse error: {exc}") from None
    local = root.tag.rpartition("}")[2]
    if local != "gexf":
        raise MalformedGexf(f"root element is <{local}>, expected <gexf>")

    name = ""
    for desc in root.iterfind("{*}meta/{*}description"):
        name = desc.text or ""

    graph_el = root.find("{*}graph")
    if graph_el is None:
        raise MalformedGexf("no <graph> element")
    edge_type = graph_el.get("defaultedgetype", "undirected")
    if edge_type != "undirected":
        raise DirectedGraphUnsupported(
            f"defaultedgetype={edge_type!r}; only undirected graphs are supported"
        )

    declared: set[str] = set()
    for node_el in graph_el.iterfind("{*}nodes/{*}node"):
        nid = node_el.get("id")
        if nid is None:
            raise MalformedGexf("node without id")
        if nid in declared:
            raise MalformedGexf(f"duplicate node id {nid!r}")
        declared.add(nid)
    ids = sorted(declared)
    position = dict(zip(ids, range(len(ids))))

    edges: dict[tuple[int, int], float] = {}  # by node positions, ascending
    for edge_el in graph_el.iterfind("{*}edges/{*}edge"):
        if edge_el.get("type", "undirected") != "undirected":
            raise DirectedGraphUnsupported(
                f"edge {edge_el.get('id')!r} has a directed type"
            )
        u = edge_el.get("source")
        v = edge_el.get("target")
        if u is None or v is None:
            raise MalformedGexf("edge missing source or target")
        if u not in position or v not in position:
            raise MalformedGexf(f"edge references undeclared node: {u!r}-{v!r}")
        if u == v:
            raise MalformedGexf(f"self-loop on node {u!r}")
        pair = tuple(sorted((position[u], position[v])))
        if pair in edges:
            raise MalformedGexf(f"duplicate edge {u!r}-{v!r}")
        raw = edge_el.get("weight", "1")
        try:
            weight = float(raw)
        except ValueError:
            raise MalformedGexf(f"non-numeric weight {raw!r}") from None
        if not 0 < weight < math.inf:
            raise MalformedGexf(f"weight {raw!r} is not positive and finite")
        edges[pair] = weight
    rows = sorted((u, v, weight) for (u, v), weight in edges.items())
    return Graph(name, ids, *zip(*rows))
