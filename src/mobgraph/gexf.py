"""GEXF 1.2 serialization for co-commenter graphs.

The channel id travels in <meta><description>. Output is byte-deterministic:
nodes and edges are written in sorted order with a fixed layout.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import IO, Union

from .errors import DirectedGraphUnsupported, MalformedGexf
from .graph import Graph, canonical_edge
from .textio import replacing

GEXF_XMLNS = "http://www.gexf.net/1.2draft"

Sink = Union[str, Path, IO[bytes]]
Source = Union[str, Path, bytes, IO[bytes]]


def _format_weight(w: float) -> str:
    if w == int(w):
        return str(int(w))
    return repr(w)


def write_gexf(graph: Graph, sink: Sink) -> None:
    """Serialize an undirected weighted graph as GEXF 1.2; a path is
    replaced whole, never left half written."""
    root = ET.Element("gexf", {"xmlns": GEXF_XMLNS, "version": "1.2"})
    meta = ET.SubElement(root, "meta")
    ET.SubElement(meta, "description").text = graph.name
    graph_el = ET.SubElement(
        root, "graph", {"defaultedgetype": "undirected", "mode": "static"}
    )
    nodes_el = ET.SubElement(graph_el, "nodes")
    for nid in graph.nodes():
        ET.SubElement(nodes_el, "node", {"id": nid, "label": nid})
    edges_el = ET.SubElement(graph_el, "edges")
    for idx, (u, v, w) in enumerate(graph.edges()):
        ET.SubElement(
            edges_el,
            "edge",
            {"id": str(idx), "source": u, "target": v, "weight": _format_weight(w)},
        )
    tree = ET.ElementTree(root)
    ET.indent(tree)
    payload = ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"
    if isinstance(sink, (str, Path)):
        with replacing(sink, "wb") as f:
            f.write(payload)
    else:
        sink.write(payload)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(element: ET.Element, name: str) -> list[ET.Element]:
    return [child for child in element if _local(child.tag) == name]


def read_gexf(source: Source) -> Graph:
    """Parse a GEXF 1.2 document back into a Graph.

    Accepts both namespaced and plain-tag documents. Only undirected graphs
    are supported; a missing edge weight defaults to 1 per the format.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            data = f.read()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    try:
        root = ET.parse(io.BytesIO(data)).getroot()
    except ET.ParseError as exc:
        raise MalformedGexf(f"XML parse error: {exc}") from None
    if _local(root.tag) != "gexf":
        raise MalformedGexf(f"root element is <{_local(root.tag)}>, expected <gexf>")

    name = ""
    for meta in _children(root, "meta"):
        for desc in _children(meta, "description"):
            name = desc.text or ""

    graphs = _children(root, "graph")
    if not graphs:
        raise MalformedGexf("no <graph> element")
    graph_el = graphs[0]
    edge_type = graph_el.get("defaultedgetype", "undirected")
    if edge_type != "undirected":
        raise DirectedGraphUnsupported(
            f"defaultedgetype={edge_type!r}; only undirected graphs are supported"
        )

    graph = Graph(name)
    for nodes_el in _children(graph_el, "nodes"):
        for node_el in _children(nodes_el, "node"):
            nid = node_el.get("id")
            if nid is None:
                raise MalformedGexf("node without id")
            if graph.has_node(nid):
                raise MalformedGexf(f"duplicate node id {nid!r}")
            graph.add_node(nid)

    seen_pairs: set[tuple[str, str]] = set()
    for edges_el in _children(graph_el, "edges"):
        for edge_el in _children(edges_el, "edge"):
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
            key = canonical_edge(u, v)
            if key in seen_pairs:
                raise MalformedGexf(f"duplicate edge {u!r}-{v!r}")
            seen_pairs.add(key)
            raw = edge_el.get("weight", "1")
            try:
                weight = float(raw)
            except ValueError:
                raise MalformedGexf(f"non-numeric weight {raw!r}") from None
            if not weight > 0:
                raise MalformedGexf(f"non-positive weight {raw!r}")
            graph.add_edge(u, v, weight)
    return graph
