"""GEXF 1.2 serialization for co-commenter graphs.

The channel id travels in <meta><description>. Output is byte-deterministic:
nodes and edges are written in sorted order with a fixed layout.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET

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


def _block(tag: str, children: list[str]) -> list[str]:
    """A four-space-indented element around six-space-indented children."""
    if not children:
        return [f"    <{tag} />"]
    return [f"    <{tag}>", *children, f"    </{tag}>"]


def write_gexf(graph: Graph, sink: TextTarget) -> None:
    """Serialize an undirected weighted graph as GEXF 1.2, in the bytes that
    ElementTree writes after indent(); a path is replaced whole, never left
    half written."""
    name = graph.name.translate(_TEXT_ESCAPES)
    ids = (nid.translate(_ATTR_ESCAPES) for nid in graph.nodes())
    nodes = [f'      <node id="{nid}" label="{nid}" />' for nid in ids]
    edges = [
        f'      <edge id="{idx}" source="{u.translate(_ATTR_ESCAPES)}" '
        f'target="{v.translate(_ATTR_ESCAPES)}" weight="{_format_weight(w)}" />'
        for idx, (u, v, w) in enumerate(graph.edges())
    ]
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<gexf xmlns="{GEXF_XMLNS}" version="1.2">',
        "  <meta>",
        f"    <description>{name}</description>" if name else "    <description />",
        "  </meta>",
        '  <graph defaultedgetype="undirected" mode="static">',
        *_block("nodes", nodes),
        *_block("edges", edges),
        "  </graph>",
        "</gexf>",
        "",
    ]
    with open_text(sink, "w") as out:
        out.write("\n".join(lines))


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

    graph = Graph(name)
    for node_el in graph_el.iterfind("{*}nodes/{*}node"):
        nid = node_el.get("id")
        if nid is None:
            raise MalformedGexf("node without id")
        if graph.has_node(nid):
            raise MalformedGexf(f"duplicate node id {nid!r}")
        graph.add_node(nid)

    for edge_el in graph_el.iterfind("{*}edges/{*}edge"):
        if edge_el.get("type", "undirected") != "undirected":
            raise DirectedGraphUnsupported(
                f"edge {edge_el.get('id')!r} has a directed type"
            )
        u = edge_el.get("source")
        v = edge_el.get("target")
        if u is None or v is None:
            raise MalformedGexf("edge missing source or target")
        if not graph.has_node(u) or not graph.has_node(v):
            raise MalformedGexf(f"edge references undeclared node: {u!r}-{v!r}")
        if u == v:
            raise MalformedGexf(f"self-loop on node {u!r}")
        if graph.has_edge(u, v):
            raise MalformedGexf(f"duplicate edge {u!r}-{v!r}")
        raw = edge_el.get("weight", "1")
        try:
            weight = float(raw)
        except ValueError:
            raise MalformedGexf(f"non-numeric weight {raw!r}") from None
        if not weight > 0:
            raise MalformedGexf(f"non-positive weight {raw!r}")
        graph.add_edge(u, v, weight)
    return graph
