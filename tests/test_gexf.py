import io
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import make_graph, neighbours, random_graph
from mobgraph.errors import DirectedGraphUnsupported, MalformedGexf
from mobgraph.gexf import read_gexf, write_gexf
from mobgraph.graph import Graph


def reference_write_gexf(graph: Graph, sink) -> None:
    """The ElementTree writer that write_gexf replaced, kept as the oracle
    for its bytes."""
    root = ET.Element("gexf", {"xmlns": "http://www.gexf.net/1.2draft", "version": "1.2"})
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
        weight = str(int(w)) if w == int(w) else repr(w)
        ET.SubElement(
            edges_el,
            "edge",
            {"id": str(idx), "source": u, "target": v, "weight": weight},
        )
    ET.indent(ET.ElementTree(root))
    payload = ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as f:
            f.write(payload)
    else:
        sink.write(payload)


HOSTILE_CHARS = ['"', "&", "<", ">", "'", "\t", "\r", "\n", " ", "é", "漢", "😀", "a", "b", "7"]


def hostile_string(rng: np.random.Generator) -> str:
    """Empty, whitespace-only, or a random mix of XML-special, whitespace
    and non-ASCII characters."""
    kind = rng.integers(0, 8)
    if kind == 0:
        return ""
    if kind == 1:
        return "".join(rng.choice([" ", "\t", "\n", "\r"], size=int(rng.integers(1, 4))))
    return "".join(rng.choice(HOSTILE_CHARS, size=int(rng.integers(1, 7))))


def hostile_graph(rng: np.random.Generator) -> Graph:
    name = hostile_string(rng)
    ids = sorted({hostile_string(rng) for _ in range(int(rng.integers(0, 9)))})
    edges = [(u, v, float(rng.choice([1.0, 3.0, 2.5, 0.1, 1e-7])))
             for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < 0.4]
    return make_graph(edges, name, nodes=ids)


def test_bytes_match_elementtree_writer_on_hostile_graphs(tmp_path):
    rng = np.random.default_rng(2024)
    path, ref_path = tmp_path / "g.gexf", tmp_path / "ref.gexf"
    for trial in range(500):
        graph = hostile_graph(rng)
        expected = io.BytesIO()
        reference_write_gexf(graph, expected)
        got = io.BytesIO()
        write_gexf(graph, got)
        assert got.getvalue() == expected.getvalue(), f"trial {trial}: {graph!r}"
        write_gexf(graph, path)
        reference_write_gexf(graph, ref_path)
        assert path.read_bytes() == ref_path.read_bytes(), f"trial {trial}: {graph!r}"


def round_trip(graph: Graph) -> Graph:
    buf = io.BytesIO()
    write_gexf(graph, buf)
    return read_gexf(buf.getvalue())


def test_empty_graph_round_trip():
    g = Graph("empty-channel")
    back = round_trip(g)
    assert back == g
    assert back.name == "empty-channel"


def test_triangle_weights_preserved():
    g = make_graph([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)], "tri")
    back = round_trip(g)
    assert back == g
    assert neighbours(back, "b")["c"] == 2.0


def test_non_integer_weight_round_trip():
    g = make_graph([("a", "b", 2.5)], "w")
    assert neighbours(round_trip(g), "a")["b"] == 2.5


def test_hundred_random_round_trips():
    rng = np.random.default_rng(23)
    for trial in range(100):
        n = int(rng.integers(0, 20))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)),
                         name=f"chan{trial}", max_weight=5)
        back = round_trip(g)
        assert back == g, f"trial {trial}"
        assert back.name == g.name


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12, 0.4, name="det", max_weight=4)
    a, b = io.BytesIO(), io.BytesIO()
    write_gexf(g, a)
    write_gexf(g, b)
    assert a.getvalue() == b.getvalue()
    path = tmp_path / "g.gexf"
    write_gexf(g, path)
    assert path.read_bytes() == a.getvalue()


def test_failed_write_leaves_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "chan.gexf"
    old = make_graph([("a", "b")], "old")
    write_gexf(old, path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    new = make_graph([("c", "d")], "new")
    with pytest.raises(OSError, match="rename failed"):
        write_gexf(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["chan.gexf"]


def test_gexf_structure_markers():
    g = make_graph([("a", "b", 2.0)], "chan")
    buf = io.BytesIO()
    write_gexf(g, buf)
    text = buf.getvalue().decode("utf-8")
    assert 'version="1.2"' in text
    assert 'defaultedgetype="undirected"' in text
    assert 'weight="2"' in text
    assert "<description>chan</description>" in text
    assert "http://www.gexf.net/1.2draft" in text


def test_reads_namespaced_document():
    doc = b"""<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="http://www.gexf.net/1.2draft" version="1.2">
  <meta><description>ns-chan</description></meta>
  <graph defaultedgetype="undirected">
    <nodes><node id="x"/><node id="y"/></nodes>
    <edges><edge id="0" source="x" target="y" weight="4"/></edges>
  </graph>
</gexf>"""
    g = read_gexf(doc)
    assert g.name == "ns-chan"
    assert neighbours(g, "x")["y"] == 4.0


def test_missing_weight_defaults_to_one():
    doc = b"""<gexf version="1.2"><graph defaultedgetype="undirected">
    <nodes><node id="x"/><node id="y"/></nodes>
    <edges><edge id="0" source="x" target="y"/></edges>
    </graph></gexf>"""
    assert neighbours(read_gexf(doc), "x")["y"] == 1.0


def test_directed_graph_rejected():
    doc = b"""<gexf version="1.2"><graph defaultedgetype="directed">
    <nodes/><edges/></graph></gexf>"""
    with pytest.raises(DirectedGraphUnsupported):
        read_gexf(doc)


def test_directed_edge_rejected():
    doc = b"""<gexf version="1.2"><graph defaultedgetype="undirected">
    <nodes><node id="x"/><node id="y"/></nodes>
    <edges><edge id="0" source="x" target="y" type="directed"/></edges>
    </graph></gexf>"""
    with pytest.raises(DirectedGraphUnsupported):
        read_gexf(doc)


@pytest.mark.parametrize("doc,detail", [
    (b"not xml at all", "parse error"),
    (b"<gexf version='1.2'></gexf>", "no <graph>"),
    (b"<wrong/>", "expected <gexf>"),
    (b"<gexf><graph defaultedgetype='undirected'><nodes><node/></nodes></graph></gexf>",
     "node without id"),
    (b"<gexf><graph defaultedgetype='undirected'><nodes><node id='x'/></nodes>"
     b"<edges><edge id='0' source='x' target='ghost'/></edges></graph></gexf>",
     "undeclared"),
    (b"<gexf><graph defaultedgetype='undirected'><nodes><node id='x'/></nodes>"
     b"<edges><edge id='0' source='x' target='x'/></edges></graph></gexf>",
     "self-loop"),
    (b"<gexf><graph defaultedgetype='undirected'>"
     b"<nodes><node id='x'/><node id='y'/></nodes>"
     b"<edges><edge id='0' source='x' target='y'/>"
     b"<edge id='1' source='y' target='x'/></edges></graph></gexf>",
     "duplicate edge"),
    (b"<gexf><graph defaultedgetype='undirected'>"
     b"<nodes><node id='x'/><node id='y'/></nodes>"
     b"<edges><edge id='0' source='x' target='y' weight='abc'/></edges></graph></gexf>",
     "non-numeric"),
    *((b"<gexf><graph defaultedgetype='undirected'>"
       b"<nodes><node id='x'/><node id='y'/></nodes>"
       b"<edges><edge id='0' source='x' target='y' weight='" + weight + b"'/></edges>"
       b"</graph></gexf>", "not positive and finite")
      for weight in (b"1e400", b"inf", b"nan", b"0", b"-2.5")),
])
def test_malformed_documents(doc, detail):
    with pytest.raises(MalformedGexf, match=detail):
        read_gexf(doc)
