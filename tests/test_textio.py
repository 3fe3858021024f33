import codecs
import io
import json
from pathlib import Path

import numpy as np
import pytest

from mobgraph.errors import MobgraphError
from mobgraph.textio import (
    has_type,
    open_text,
    read_id_table,
    read_json,
    replacing,
    temp_files,
    write_id_table,
    write_json,
)


def test_writer_that_raises_partway_leaves_old_target(tmp_path):
    target = tmp_path / "report.json"
    write_json({"run": "old"}, target)
    before = target.read_bytes()
    # json.dump writes the first keys before it reaches the one it cannot encode.
    with pytest.raises(TypeError):
        write_json({"a": list(range(1000)), "z": object()}, target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_open_text_raising_in_the_block_keeps_old_target(tmp_path):
    target = tmp_path / "cliques.csv"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with open_text(target, "w") as out:
            out.write("half of the new\n")
            out.flush()
            raise RuntimeError("crash partway")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cliques.csv"]


def test_finished_write_replaces_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old\n", encoding="utf-8")
    write_json({"run": "new"}, target)
    assert json.loads(target.read_text(encoding="utf-8")) == {"run": "new"}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_temp_files_finds_what_replacing_leaves(tmp_path):
    (tmp_path / "graphs.gexf").write_text("a finished file\n")
    (tmp_path / ".notes.txt.deadbeef.tmp").write_text("not ours\n")
    (tmp_path / ".ch00.gexf.notahex0.tmp").write_text("not a temp name\n")
    with replacing(tmp_path / "ch00.gexf", "w") as out:
        (tmp,) = temp_files(tmp_path, "*.gexf")
        assert tmp.name.startswith(".ch00.gexf.") and tmp.name == Path(out.name).name
        assert temp_files(tmp_path, "cliques.csv") == []
    assert temp_files(tmp_path, "*.gexf") == []


@pytest.mark.parametrize("value, kind, expected", [
    (1, int, True), (True, int, False), (1, float, True), (1.5, float, True),
    (True, float, False), ("1", int, False),
    ("x", str, True), (1.0, int, False),
])
def test_has_type(value, kind, expected):
    assert has_type(value, kind) is expected


def test_writers_write_no_byte_order_mark_and_readers_skip_one(tmp_path):
    target = tmp_path / "config.json"
    write_json({"dim": 16}, target)
    assert target.read_bytes() == b'{\n  "dim": 16\n}\n'
    target.write_bytes(codecs.BOM_UTF8 + target.read_bytes())
    assert read_json(target) == {"dim": 16}
    table = io.StringIO()
    write_id_table(["g1", "g2"], np.array([[0.5], [-2.0]]), "e", table)
    assert table.getvalue() == "graph_id,e0\ng1,0.5\ng2,-2.0\n"
    ids, rows = read_id_table(io.StringIO("\ufeff" + table.getvalue()), "embedding")
    assert ids == ["g1", "g2"] and rows.tolist() == [[0.5], [-2.0]]


def test_read_json_rejects_a_key_repeated_in_any_object(tmp_path):
    target = tmp_path / "report.json"
    target.write_text('{"clustering": {"kmeans": {"labels": {"ch00": 0, "ch00": 1}}}}')
    with pytest.raises(MobgraphError) as err:
        read_json(target, "clustering.kmeans.labels")
    assert str(err.value) == f"{target}: key 'ch00' appears more than once"
