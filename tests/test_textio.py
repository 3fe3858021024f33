import json

import pytest

from mobgraph.textio import open_text, write_json


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
