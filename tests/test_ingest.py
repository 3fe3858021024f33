import codecs
import csv
import io
import json

import numpy as np
import pytest

from mobgraph.cliques import clique_census
from mobgraph.errors import (
    DuplicateCommentId,
    EmptyChannel,
    MalformedRow,
    MissingColumn,
    MobgraphError,
)
from mobgraph.gexf import read_gexf, write_gexf
from mobgraph.ingest import (
    CommentRecord,
    build_co_commenter_graph,
    channels_in,
    parse_comments,
    write_comments_csv,
)
from mobgraph.wl import extract_document


def rec(channel, video, commenter, cid):
    return CommentRecord(channel_id=channel, video_id=video,
                         commenter_id=commenter, comment_id=cid)


def csv_bytes(rows):
    header = "channel_id,video_id,commenter_id,comment_id,published_at,text"
    return ("\n".join([header] + rows) + "\n").encode("utf-8")


# --- parsing ------------------------------------------------------------------

def test_csv_identity_parse_in_order():
    data = csv_bytes([
        "c1,v1,u1,m1,2021-01-01T00:00:00Z,hello",
        "c1,v1,u2,m2,,",
        "c2,v9,u1,m3,,hi",
    ])
    records = parse_comments(data, format="csv")
    assert [r.comment_id for r in records] == ["m1", "m2", "m3"]
    assert records[0].published_at == "2021-01-01T00:00:00Z"
    assert records[0].text == "hello"
    assert records[1].published_at is None
    assert records[2].channel_id == "c2"


def test_csv_missing_commenter_reports_line():
    data = csv_bytes(["c1,v1,u1,m1,,", "c1,v1,,m2,,"])
    with pytest.raises(MalformedRow) as err:
        parse_comments(data)
    assert err.value.line == 3  # header is line 1


def test_csv_missing_required_column():
    data = b"channel_id,video_id,comment_id\nc1,v1,m1\n"
    with pytest.raises(MissingColumn) as err:
        parse_comments(data)
    assert err.value.column == "commenter_id"


def test_csv_wrong_field_count():
    data = csv_bytes(["c1,v1,u1,m1,extra,stuff,overflow"])
    with pytest.raises(MalformedRow) as err:
        parse_comments(data)
    assert "got 7" in str(err.value)


def test_csv_reader_error_names_its_line():
    # The csv module's own error: here a field over the size limit, and on
    # Python 3.10 also a NUL byte.
    big = "x" * (csv.field_size_limit() + 1)
    data = csv_bytes(["c1,v1,u1,m1,,", f"c1,v1,u2,m2,,{big}", "c1,v1,u3,m3,,"])
    with pytest.raises(MalformedRow, match="field larger than field limit") as err:
        parse_comments(data)
    assert err.value.line == 3


def test_csv_optional_columns_may_be_absent():
    data = b"channel_id,video_id,commenter_id,comment_id\nc1,v1,u1,m1\n"
    records = parse_comments(data)
    assert records[0].published_at is None
    assert records[0].text is None


def test_duplicate_warn_keeps_first(caplog):
    data = csv_bytes(["c1,v1,u1,m1,,first", "c1,v2,u2,m1,,second"])
    with caplog.at_level("WARNING", logger="mobgraph.ingest"):
        records = parse_comments(data)
    assert len(records) == 1
    assert records[0].text == "first"
    assert any("duplicate" in message for message in caplog.messages)


def test_duplicate_error_mode():
    data = csv_bytes(["c1,v1,u1,m1,,", "c1,v2,u2,m1,,"])
    with pytest.raises(DuplicateCommentId) as err:
        parse_comments(data, on_duplicate="error")
    assert err.value.comment_id == "m1"


def test_json_lines_parse():
    lines = [
        {"channel_id": "c1", "video_id": "v1", "commenter_id": "u1",
         "comment_id": "m1", "text": "yo"},
        {"channel_id": "c1", "video_id": "v2", "commenter_id": "u2",
         "comment_id": "m2", "published_at": None},
    ]
    data = ("\n".join(json.dumps(l) for l in lines) + "\n").encode()
    records = parse_comments(data, format="json-lines")
    assert [r.comment_id for r in records] == ["m1", "m2"]
    assert records[0].text == "yo"
    assert records[1].published_at is None


def test_json_lines_missing_key_reports_line():
    lines = [
        '{"channel_id": "c1", "video_id": "v1", "commenter_id": "u1", "comment_id": "m1"}',
        '{"channel_id": "c1", "video_id": "v1", "comment_id": "m2"}',
    ]
    with pytest.raises(MalformedRow) as err:
        parse_comments("\n".join(lines).encode(), format="json-lines")
    assert err.value.line == 2


def test_json_lines_bad_json():
    with pytest.raises(MalformedRow) as err:
        parse_comments(b'{"channel_id": broken', format="json-lines")
    assert err.value.line == 1


def comment_table(rows, format):
    """Four-column comment rows as CSV or JSON-lines bytes."""
    if format == "csv":
        lines = ["channel_id,video_id,commenter_id,comment_id"] + [",".join(r) for r in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    keys = ("channel_id", "video_id", "commenter_id", "comment_id")
    return "".join(json.dumps(dict(zip(keys, r))) + "\n" for r in rows).encode("utf-8")


@pytest.mark.parametrize("format", ["csv", "json-lines"])
@pytest.mark.parametrize("channel", ["../escaped", "a/b", "a\\b", "a\0b", ".", "..", ""])
def test_unsafe_channel_id_rejected(format, channel):
    rows = [("c1", "v1", "u1", "m1"), (channel, "v1", "u2", "m2")]
    with pytest.raises(MalformedRow) as err:
        parse_comments(comment_table(rows, format), format=format)
    assert err.value.line == (3 if format == "csv" else 2)  # CSV counts its header


@pytest.mark.parametrize("format", ["csv", "json-lines"])
def test_empty_comment_id_rejected(format):
    # Accepted, a blank id would make every later blank one its duplicate.
    rows = [("c1", "v1", "u1", "m1"), ("c1", "v1", "u2", ""), ("c1", "v2", "u3", "")]
    with pytest.raises(MalformedRow, match="empty or missing comment_id") as err:
        parse_comments(comment_table(rows, format), format=format)
    assert err.value.line == (3 if format == "csv" else 2)  # CSV counts its header


# A lone surrogate cannot be encoded as UTF-8, so only JSON-lines (as \ud800)
# can carry one.
@pytest.mark.parametrize("format,bad", [
    *((f, bad) for f in ("csv", "json-lines")
      for bad in ("a\x0bb", "\x01", "a\tb", "x\x1f", "a\ufffeb", "\uffff")),
    ("json-lines", "\ud800"),
    ("json-lines", "a\udfffb"),
])
@pytest.mark.parametrize("column", ["channel_id", "commenter_id"])
def test_id_gexf_cannot_carry_rejected(format, bad, column):
    row = {"channel_id": "c1", "video_id": "v1", "commenter_id": "u2", "comment_id": "m2"}
    row[column] = bad
    rows = [("c1", "v1", "u1", "m1"), tuple(row.values())]
    with pytest.raises(MalformedRow, match=column) as err:
        parse_comments(comment_table(rows, format), format=format)
    assert err.value.line == (3 if format == "csv" else 2)  # CSV counts its header


def test_ids_with_spaces_and_non_ascii_accepted():
    rows = [("chaîne 1", "v1", "ü ser", "m1"), ("chaîne 1", "v1", "\u732b", "m2")]
    for format in ("csv", "json-lines"):
        assert parse_comments(comment_table(rows, format), format=format) == [
            rec(*row) for row in rows
        ], format


def test_input_not_utf8_names_it(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(comment_table([("c1", "v1", "u1", "m1")], "csv") + b"c1,v1,\xff,m2\n")
    with pytest.raises(MobgraphError, match=r"latin1\.csv is not UTF-8"):
        parse_comments(path)
    with pytest.raises(MobgraphError, match="not UTF-8"):
        parse_comments(path.read_bytes())


@pytest.mark.parametrize("format", ["csv", "json-lines"])
@pytest.mark.parametrize("kind", ["path", "bytes", "binary stream"])
def test_byte_order_mark_is_skipped(tmp_path, format, kind):
    # Spreadsheet programs write one at the start of "CSV UTF-8".
    rows = [("c1", "v1", "u1", "m1"), ("c1", "v2", "u2", "m2")]
    parsed = {}
    for name, prefix in (("plain", b""), ("marked", codecs.BOM_UTF8)):
        source = prefix + comment_table(rows, format)
        if kind == "path":
            (tmp_path / name).write_bytes(source)
            source = tmp_path / name
        elif kind == "binary stream":
            source = io.BytesIO(source)
        parsed[name] = parse_comments(source, format=format)
    assert parsed["marked"] == parsed["plain"] == [rec(*row) for row in rows]


@pytest.mark.parametrize("format", ["csv", "json-lines"])
def test_equal_ids_are_one_string(format):
    rows = [("channel-1", "video-1", "commenter-1", "m1"),
            ("channel-1", "video-1", "commenter-1", "m2"),
            ("channel-1", "video-2", "commenter-1", "m3")]
    first, second, third = parse_comments(comment_table(rows, format), format=format)
    assert first.channel_id is second.channel_id is third.channel_id
    assert first.video_id is second.video_id
    assert first.commenter_id is second.commenter_id is third.commenter_id


def test_trailing_blank_line_skipped_in_both_formats():
    rows = [("c1", "v1", "u1", "m1"), ("c1", "v1", "u2", "m2")]
    expected = [rec(*row) for row in rows]
    for format in ("csv", "json-lines"):
        data = comment_table(rows, format) + b"\n"
        assert parse_comments(data, format=format) == expected, format


def test_csv_and_json_lines_give_equal_records():
    rows = [
        {"channel_id": "c1", "video_id": "v1", "commenter_id": "u1",
         "comment_id": "m1", "published_at": "2020-05-05", "text": "hi, \"you\""},
        {"channel_id": "c1", "video_id": "v2", "commenter_id": "u1",
         "comment_id": "m2", "published_at": "", "text": ""},
        {"channel_id": "c2", "video_id": "v1", "commenter_id": "u2",
         "comment_id": "m3", "published_at": "", "text": "x"},
        {"channel_id": "c2", "video_id": "v9", "commenter_id": "u3",
         "comment_id": "m1", "published_at": "", "text": ""},  # a duplicate
    ]
    # Columns in another order, published_at absent from both tables.
    columns = ["text", "comment_id", "commenter_id", "video_id", "channel_id"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([[row[col] for col in columns] for row in rows])
    jsonl = "".join(json.dumps({col: row[col] for col in columns}) + "\n"
                    for row in rows)
    from_csv = parse_comments(buf.getvalue().encode(), format="csv")
    assert from_csv == parse_comments(jsonl.encode(), format="json-lines")
    assert from_csv == [
        CommentRecord("c1", "v1", "u1", "m1", None, "hi, \"you\""),
        CommentRecord("c1", "v2", "u1", "m2"),
        CommentRecord("c2", "v1", "u2", "m3", None, "x"),
    ]
    # All six columns.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [list(rows[0])] + [list(row.values()) for row in rows])
    jsonl = "".join(json.dumps(row) + "\n" for row in rows)
    from_csv = parse_comments(buf.getvalue().encode(), format="csv")
    assert from_csv == parse_comments(jsonl.encode(), format="json-lines")
    assert from_csv[0].published_at == "2020-05-05"
    assert len(from_csv) == 3


def test_repeated_bad_commenter_fails_at_its_first_line():
    rows = [("c1", "v1", "u1", "m1"), ("c1", "v1", "u\x01", "m2"),
            ("c1", "v2", "u\x01", "m3")]
    messages = {}
    for format in ("csv", "json-lines"):
        data = comment_table(rows, format)
        if format == "json-lines":
            data = b"\n" + data  # a blank first line: rows on the CSV's line numbers
        with pytest.raises(MalformedRow) as err:
            parse_comments(data, format=format)
        assert err.value.line == 3, format
        messages[format] = str(err.value)
    assert messages["csv"] == messages["json-lines"]
    assert "commenter_id 'u\\x01' holds a character" in messages["csv"]


def test_csv_round_trip_through_writer():
    records = [
        rec("c1", "v1", "u1", "m1"),
        CommentRecord("c2", "v2", "u2", "m2", "2020-05-05T10:00:00Z", "some, text"),
    ]
    buf = io.StringIO()
    write_comments_csv(records, buf)
    back = parse_comments(buf.getvalue().encode())
    assert back == records


def test_channels_in_sorted_unique():
    records = [rec("b", "v", "u", "m1"), rec("a", "v", "u", "m2"),
               rec("b", "w", "u", "m3")]
    assert channels_in(records) == ["a", "b"]


# --- graph construction ---------------------------------------------------------

def reference_co_commenter_graph(records, channel, min_shared_videos=1):
    """The dict-of-dicts counting loop the array build replaced, as each
    node's neighbour-to-weight map; a node is a commenter with an edge."""
    selected = [r for r in records if channel is None or r.channel_id == channel]
    commenters_by_video = {}
    for r in selected:
        commenters_by_video.setdefault(r.video_id, set()).add(r.commenter_id)
    shared = {}  # shared[u][v], u < v
    for commenters in commenters_by_video.values():
        group = sorted(commenters)
        for i, u in enumerate(group):
            row = shared.setdefault(u, {})
            for v in group[i + 1:]:
                row[v] = row.get(v, 0) + 1
    adjacency = {}
    for u, row in shared.items():
        for v, count in row.items():
            if count >= min_shared_videos:
                adjacency.setdefault(u, {})[v] = float(count)
                adjacency.setdefault(v, {})[u] = float(count)
    return adjacency


def assert_matches_reference(graph, adjacency):
    """Node by node: the ids, each row's neighbours in order, and their
    weights."""
    assert graph.nodes() == sorted(adjacency)
    for i, u in enumerate(graph.ids):
        row = slice(graph.indptr[i], graph.indptr[i + 1])
        neighbours = sorted(adjacency[u])
        assert [graph.ids[j] for j in graph.indices[row].tolist()] == neighbours
        assert graph.weights[row].tolist() == [adjacency[u][v] for v in neighbours]
        assert graph.neighbors(u) == neighbours


def random_corpus(rng, n_records):
    """Two channels drawing from one pool of video ids, so that merged mode
    joins a video across channels, and commenters who comment on one video
    more than once."""
    return [rec(f"c{rng.integers(2)}", f"v{rng.integers(12)}",
                f"u{rng.integers(25):02d}", f"m{k}") for k in range(n_records)]


@pytest.mark.parametrize("min_shared_videos", [1, 2, 3])
def test_array_build_matches_the_reference(min_shared_videos):
    rng = np.random.default_rng(100 + min_shared_videos)
    for trial in range(40):
        records = random_corpus(rng, int(rng.integers(1, 300)))
        for channel in (*channels_in(records), None):
            graph = build_co_commenter_graph(records, channel, min_shared_videos)
            assert_matches_reference(
                graph, reference_co_commenter_graph(records, channel, min_shared_videos))


def test_merged_mode_joins_a_video_id_across_channels():
    records = [rec("c1", "v1", "A", "m1"), rec("c2", "v1", "B", "m2"),
               rec("c2", "v1", "B", "m3")]
    merged = build_co_commenter_graph(records, None)
    assert merged.edges() == [("A", "B", 1.0)]
    assert_matches_reference(merged, reference_co_commenter_graph(records, None))
    assert build_co_commenter_graph(records, "c2").n_nodes == 0


def test_channel_without_shared_videos_is_an_empty_graph(tmp_path):
    records = [rec("c", f"v{k}", f"u{k}", f"m{k}") for k in range(5)]
    records.append(rec("c", "v0", "u0", "again"))
    graph = build_co_commenter_graph(records, "c")
    assert graph.n_nodes == graph.n_edges == 0
    assert graph.indptr.tolist() == [0]
    assert extract_document(graph).tokens == []
    census = clique_census(graph, min_size=1)
    assert (census.count, census.histogram) == (0, {})
    write_gexf(graph, tmp_path / "c.gexf")
    assert read_gexf(tmp_path / "c.gexf") == graph

def test_single_video_triangle():
    records = [rec("c", "v1", u, f"m{u}") for u in "ABC"]
    g = build_co_commenter_graph(records, "c", min_shared_videos=1)
    assert sorted(g.nodes()) == ["A", "B", "C"]
    assert g.n_edges == 3
    for u, v, w in g.edges():
        assert w == 1.0


def test_per_video_deduplication():
    records = []
    for i, v in enumerate(["v1", "v2", "v3"]):
        records.append(rec("c", v, "A", f"a{i}"))
        records.append(rec("c", v, "B", f"b{i}"))
    records.append(rec("c", "v1", "A", "a-again"))  # A posts twice on v1
    g = build_co_commenter_graph(records, "c")
    assert g.weight("A", "B") == 3.0


def test_weights_match_pairwise_intersection_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        commenters = [f"u{i}" for i in range(6)]
        videos = [f"v{j}" for j in range(5)]
        records = []
        counter = 0
        for u in commenters:
            for v in videos:
                if rng.random() < 0.5:
                    records.append(rec("c", v, u, f"m{counter}"))
                    counter += 1
        if not records:
            continue
        g = build_co_commenter_graph(records, "c")
        videos_of = {}
        for r in records:
            videos_of.setdefault(r.commenter_id, set()).add(r.video_id)
        for i, u in enumerate(commenters):
            for v in commenters[i + 1:]:
                shared = len(videos_of.get(u, set()) & videos_of.get(v, set()))
                if shared >= 1:
                    assert g.has_edge(u, v) and g.weight(u, v) == float(shared)
                else:
                    assert not (g.has_node(u) and g.has_node(v) and g.has_edge(u, v))


def test_order_invariance():
    rng = np.random.default_rng(17)
    records = []
    for counter in range(60):
        records.append(
            rec("c", f"v{rng.integers(6)}", f"u{rng.integers(8)}", f"m{counter}")
        )
    g1 = build_co_commenter_graph(records, "c")
    shuffled = list(records)
    rng.shuffle(shuffled)
    g2 = build_co_commenter_graph(shuffled, "c")
    assert g1 == g2


def test_min_shared_videos_threshold():
    records = [
        rec("c", "v1", "A", "m1"), rec("c", "v1", "B", "m2"),
        rec("c", "v2", "A", "m3"), rec("c", "v2", "B", "m4"),
        rec("c", "v1", "C", "m5"),
    ]
    g = build_co_commenter_graph(records, "c", min_shared_videos=2)
    assert g.has_edge("A", "B")
    assert not g.has_node("C")  # only 1 shared video with A and B


def test_commenter_without_retained_edge_is_not_a_node():
    records = [
        rec("c", "v1", "A", "m1"), rec("c", "v1", "B", "m2"),
        rec("c", "v2", "C", "m3"),
    ]
    assert not build_co_commenter_graph(records, "c").has_node("C")


def test_empty_channel():
    records = [rec("c", "v", "u", "m")]
    with pytest.raises(EmptyChannel):
        build_co_commenter_graph(records, "other")


def test_merged_mode_crosses_channels():
    records = [
        rec("c1", "v1", "A", "m1"), rec("c1", "v1", "B", "m2"),
        rec("c2", "v2", "B", "m3"), rec("c2", "v2", "C", "m4"),
    ]
    merged = build_co_commenter_graph(records, None)
    assert merged.name == "merged"
    assert merged.has_edge("A", "B") and merged.has_edge("B", "C")
    per = build_co_commenter_graph(records, "c1")
    assert not per.has_node("C")
