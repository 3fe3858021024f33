import io
import json

import numpy as np
import pytest

from mobgraph.errors import (
    DuplicateCommentId,
    EmptyChannel,
    MalformedRow,
    MissingColumn,
)
from mobgraph.ingest import (
    CommentRecord,
    build_co_commenter_graph,
    channels_in,
    parse_comments,
    write_comments_csv,
)


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


def test_trailing_blank_line_skipped_in_both_formats():
    rows = [("c1", "v1", "u1", "m1"), ("c1", "v1", "u2", "m2")]
    expected = [rec(*row) for row in rows]
    for format in ("csv", "json-lines"):
        data = comment_table(rows, format) + b"\n"
        assert parse_comments(data, format=format) == expected, format


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


def test_include_isolated_flag():
    records = [
        rec("c", "v1", "A", "m1"), rec("c", "v1", "B", "m2"),
        rec("c", "v2", "C", "m3"),
    ]
    bare = build_co_commenter_graph(records, "c")
    assert not bare.has_node("C")
    full = build_co_commenter_graph(records, "c", include_isolated=True)
    assert full.has_node("C")
    assert full.degree("C") == 0


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
