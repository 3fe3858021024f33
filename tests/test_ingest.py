import codecs
import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from conftest import neighbours
from mobgraph import synth
from mobgraph.cliques import clique_census
from mobgraph.errors import (
    DuplicateCommentId,
    EmptyChannel,
    MalformedRow,
    MissingColumn,
    MobgraphError,
    PipelineStageError,
)
from mobgraph.gexf import read_gexf, write_gexf
from mobgraph.ingest import (
    CommentRecord,
    build_co_commenter_graph,
    channel_tables,
    channels_in,
    parse_comments,
    write_comments_csv,
)
from mobgraph.pipeline import PipelineConfig, run_pipeline
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


@pytest.mark.parametrize("repeated", ["channel_id", "comment_id"])
def test_csv_header_naming_a_column_twice_rejected(repeated):
    # Read by position, the last copy would win: B, not the row's first value.
    data = csv_bytes(["A,v1,u1,c1,,,B"]).replace(b"\n", f",{repeated}\n".encode(), 1)
    with pytest.raises(MalformedRow, match=repr(repeated)) as err:
        parse_comments(data)
    assert err.value.line == 1


def test_csv_optional_columns_may_be_absent():
    data = b"channel_id,video_id,commenter_id,comment_id\nc1,v1,u1,m1\n"
    records = parse_comments(data)
    assert records == [rec("c1", "v1", "u1", "m1")]


def test_duplicate_warn_keeps_first(caplog):
    data = csv_bytes(["c1,v1,u1,m1,,first", "c1,v2,u2,m1,,second"])
    with caplog.at_level("WARNING", logger="mobgraph.ingest"):
        records = parse_comments(data)
    assert len(records) == 1
    assert records[0] == rec("c1", "v1", "u1", "m1")
    assert any("duplicate" in message for message in caplog.messages)


def test_duplicates_give_one_warning(caplog):
    data = csv_bytes(["c1,v1,u1,m1,,", "c1,v2,u2,m2,,", "c1,v3,u3,m2,,",
                      "c1,v4,u4,m1,,", "c1,v5,u5,m2,,"])
    with caplog.at_level("WARNING", logger="mobgraph.ingest"):
        records = parse_comments(data)
    assert [(r.video_id, r.comment_id) for r in records] == [("v1", "m1"), ("v2", "m2")]
    assert caplog.messages == [
        "dropped 3 record(s) with a duplicate comment_id, the first 'm2' at line 4"]


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


@pytest.mark.parametrize("size", [236, 237])
def test_channel_id_too_long_for_its_file_fails_at_ingest(tmp_path, size):
    # graphs/<id>.gexf is written through a temp file 14 bytes longer, so 236
    # bytes is the longest id whose file a 255-byte NAME_MAX lets through.
    # Two-byte characters: the limit counts UTF-8 bytes, not characters.
    long_id = "\u00e9" * (size // 2) + "x" * (size % 2)
    records, _ = synth.generate_corpus(synth.two_family_config(
        n_channels=8, videos_per_channel=10, organic_commenters=12))
    records = [CommentRecord(long_id if r.channel_id == "ch03" else r.channel_id,
                             r.video_id, r.commenter_id, r.comment_id) for r in records]
    write_comments_csv(records, tmp_path / "comments.csv")
    config = PipelineConfig(input=str(tmp_path / "comments.csv"), out=str(tmp_path / "run"))
    if size == 236:
        run_pipeline(config)
        assert (tmp_path / "run" / "graphs" / f"{long_id}.gexf").is_file()
        return
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(config)
    assert err.value.stage == "ingest"
    assert isinstance(err.value.cause, MalformedRow)
    line = 2 + next(k for k, r in enumerate(records) if r.channel_id == long_id)
    assert err.value.cause.line == line
    assert "too long" in str(err.value.cause)
    assert not (tmp_path / "run" / "graphs").exists()


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
@pytest.mark.parametrize("kind", ["path", "bytes", "binary stream", "text stream"])
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
        elif kind == "text stream":
            source = io.StringIO(source.decode("utf-8"))
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
        CommentRecord("c1", "v1", "u1", "m1"),
        CommentRecord("c1", "v2", "u1", "m2"),
        CommentRecord("c2", "v1", "u2", "m3"),
    ]
    # All six columns.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [list(rows[0])] + [list(row.values()) for row in rows])
    jsonl = "".join(json.dumps(row) + "\n" for row in rows)
    from_csv = parse_comments(buf.getvalue().encode(), format="csv")
    assert from_csv == parse_comments(jsonl.encode(), format="json-lines")
    assert len(from_csv) == 3


@pytest.mark.parametrize("format", ["csv", "json-lines"])
def test_columns_besides_the_four_are_ignored(format):
    rows = [("c1", "v1", "u1", "m1"), ("c2", "v1", "u2", "m2")]
    extra = {"published_at": "2020-05-05T10:00:00Z", "text": "hi, there", "likes": "3"}
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["text", "channel_id", "video_id", "published_at",
                         "commenter_id", "likes", "comment_id"])
        writer.writerows([[extra["text"], c, v, extra["published_at"], u, extra["likes"], m]
                          for c, v, u, m in rows])
        data = buf.getvalue().encode()
    else:
        keys = ("channel_id", "video_id", "commenter_id", "comment_id")
        data = "".join(json.dumps({**extra, "text": 7, **dict(zip(keys, row))}) + "\n"
                       for row in rows).encode()
    expected = parse_comments(comment_table(rows, format), format=format)
    assert parse_comments(data, format=format) == expected == [rec(*row) for row in rows]


@pytest.mark.parametrize("repeated", ["channel_id", "text"])
def test_json_lines_row_naming_a_key_twice_rejected(repeated):
    # Read by json.loads, the last copy would win unnoticed: for channel_id, B.
    data = (b'{"channel_id": "A", "video_id": "v1", "commenter_id": "u1", '
            b'"comment_id": "m1", "text": "t", "%s": "B"}\n' % repeated.encode())
    with pytest.raises(MalformedRow) as err:
        parse_comments(data, format="json-lines")
    assert err.value.line == 1
    assert err.value.reason == f"key {repeated!r} appears more than once"


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
        rec("c2", "v2", "u2", "m2, with a comma"),
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
    selected = [r for r in records if r.channel_id == channel]
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
        expected = sorted(adjacency[u])
        assert [graph.ids[j] for j in graph.indices[row].tolist()] == expected
        assert graph.weights[row].tolist() == [adjacency[u][v] for v in expected]
        assert list(neighbours(graph, u)) == expected


def random_corpus(rng, n_records):
    """Two channels drawing from one pool of video ids, so that the records
    relabelled to one channel join a video across channels, and commenters
    who comment on one video more than once."""
    return [rec(f"c{rng.integers(2)}", f"v{rng.integers(12)}",
                f"u{rng.integers(25):02d}", f"m{k}") for k in range(n_records)]


@pytest.mark.parametrize("min_shared_videos", [1, 2, 3])
def test_array_build_matches_the_reference(min_shared_videos):
    rng = np.random.default_rng(100 + min_shared_videos)
    for trial in range(40):
        records = random_corpus(rng, int(rng.integers(1, 300)))
        whole = [dataclasses.replace(r, channel_id="all") for r in records]
        for corpus, channel in [*((records, c) for c in channels_in(records)),
                                (whole, "all")]:
            reference = reference_co_commenter_graph(corpus, channel, min_shared_videos)
            table = channel_tables(corpus)[channel]
            assert table.comments == sum(r.channel_id == channel for r in corpus)
            for source in (corpus, table):
                graph = build_co_commenter_graph(source, channel, min_shared_videos)
                assert_matches_reference(graph, reference)


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
    assert neighbours(g, "A")["B"] == 3.0


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
                    assert neighbours(g, u)[v] == float(shared)
                else:
                    assert not (u in g.ids and v in neighbours(g, u))


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
    assert "B" in neighbours(g, "A")
    assert "C" not in g.ids  # only 1 shared video with A and B


def test_commenter_without_retained_edge_is_not_a_node():
    records = [
        rec("c", "v1", "A", "m1"), rec("c", "v1", "B", "m2"),
        rec("c", "v2", "C", "m3"),
    ]
    assert "C" not in build_co_commenter_graph(records, "c").ids


def test_empty_channel():
    records = [rec("c", "v", "u", "m")]
    with pytest.raises(EmptyChannel):
        build_co_commenter_graph(records, "other")
