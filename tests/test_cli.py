import contextlib
import csv
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import fresh_env

from mobgraph import embed as embed_mod
from mobgraph import gexf as gexf_mod
from mobgraph import pipeline as pipeline_mod
from mobgraph.cli import STEPS, _config, build_parser, main
from mobgraph.errors import InvalidConfig, PipelineStageError
from mobgraph.ingest import CommentRecord
from mobgraph.pipeline import (
    CONFIG_FIELDS,
    PipelineConfig,
    RunState,
    _map_channels,
    fields_read,
    load_config_file,
    resolve_config,
    run_pipeline,
    strip_timings,
)
from mobgraph.textio import open_text

SYNTH_ARGS = ["--channels", "8", "--videos", "10", "--organic", "12"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--out", str(path), "--seed", "0"] + SYNTH_ARGS)
    assert code == 0
    return path


@pytest.fixture(scope="module")
def pipeline_out(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "pipeline",
        "--input", str(corpus_dir / "comments.csv"),
        "--out", str(out),
        "--seed", "0",
    ])
    assert code == 0
    return out


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# --- end to end --------------------------------------------------------------------

def test_synth_artifacts(corpus_dir):
    assert (corpus_dir / "comments.csv").exists()
    truth = json.loads((corpus_dir / "truth.json").read_text())
    assert set(truth["channel_families"].values()) == {"heavy", "light"}
    assert len(truth["channel_families"]) == 8


def test_pipeline_artifacts(pipeline_out):
    for name in ("embeddings.csv", "reduced.csv", "cliques.csv",
                 "dendrogram.json", "report.json"):
        assert (pipeline_out / name).exists(), name
    gexf_files = sorted(p.name for p in (pipeline_out / "graphs").glob("*.gexf"))
    assert gexf_files == [f"ch{c:02d}.gexf" for c in range(8)]
    assert not (pipeline_out / "INCOMPLETE").exists()


def test_pipeline_report_structure(pipeline_out):
    report = json.loads((pipeline_out / "report.json").read_text())
    assert report["channels"] == [f"ch{c:02d}" for c in range(8)]
    assert report["deterministic"] is True
    assert set(report["clustering"]) == {"kmeans", "hierarchical"}
    assert set(report["clustering"]["kmeans"]["labels"]) == set(report["channels"])
    assert report["cliques"]["min_size"] == 5
    ranked = [row[0] for row in report["ranking"]["overall"]]
    assert sorted(ranked) == report["channels"]
    counts = [row[2] for row in report["ranking"]["overall"]]
    assert counts == sorted(counts, reverse=True)
    assert set(report["timings"]) >= {"ingest", "graphs", "wl", "embed",
                                      "reduce", "cluster", "cliques"}


def test_pipeline_rerun_is_byte_identical(corpus_dir, tmp_path):
    out = tmp_path / "re"
    args = ["pipeline", "--input", str(corpus_dir / "comments.csv"),
            "--out", str(out), "--seed", "3"]
    assert main(args) == 0
    tracked = ["embeddings.csv", "reduced.csv", "cliques.csv", "dendrogram.json"]
    first = {name: read_bytes(out / name) for name in tracked}
    first_report = strip_timings(json.loads((out / "report.json").read_text()))
    assert main(args) == 0
    for name in tracked:
        assert read_bytes(out / name) == first[name], name
    second_report = strip_timings(json.loads((out / "report.json").read_text()))
    assert second_report == first_report


def test_pipeline_threads_do_not_change_artifacts(corpus_dir, pipeline_out, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 3)  # 3 workers on any host
    gexf = sorted(p.name for p in (pipeline_out / "graphs").glob("*.gexf"))
    tracked = ["embeddings.csv", "reduced.csv", "cliques.csv", "dendrogram.json",
               *(f"graphs/{name}" for name in gexf)]

    def compared(report):
        report = strip_timings(report)
        report["config"] = {k: v for k, v in report["config"].items()
                            if k not in ("threads", "out")}
        return report

    expected = compared(json.loads((pipeline_out / "report.json").read_text()))
    for threads in (1, 2, 3):
        out = tmp_path / f"threads{threads}"
        code = main([
            "pipeline", "--input", str(corpus_dir / "comments.csv"),
            "--out", str(out), "--seed", "0", "--threads", str(threads),
        ])
        assert code == 0
        assert sorted(p.name for p in (out / "graphs").glob("*.gexf")) == gexf
        for name in tracked:
            assert read_bytes(out / name) == read_bytes(pipeline_out / name), (threads, name)
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["threads"] == threads
        assert compared(report) == expected, threads


@pytest.fixture(scope="module")
def default_run_modules(corpus_dir, tmp_path_factory):
    """The modules a fresh interpreter has loaded after `import mobgraph.cli`
    and a run_pipeline call with the default settings (threads=1)."""
    script = (
        "import sys\n"
        "import mobgraph.cli\n"
        "from mobgraph.pipeline import PipelineConfig, run_pipeline\n"
        "run_pipeline(PipelineConfig(input=sys.argv[1], out=sys.argv[2]))\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    out = tmp_path_factory.mktemp("fresh") / "run"
    done = subprocess.run(
        [sys.executable, "-c", script, str(corpus_dir / "comments.csv"), str(out)],
        env=fresh_env(), capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()[-1].split()


def test_default_run_loads_no_scipy(default_run_modules):
    assert [m for m in default_run_modules if m.startswith("scipy")] == []


def test_default_run_loads_no_numpy_ma(default_run_modules):
    assert "numpy.ma" not in default_run_modules


def test_stages_run_where_scipy_cannot_be_imported(corpus_dir, tmp_path):
    shadow = tmp_path / "shadow" / "scipy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text('raise ImportError("no scipy here")\n')
    env = fresh_env()
    env["PYTHONPATH"] = os.pathsep.join([str(shadow.parent), env["PYTHONPATH"]])
    assert subprocess.run([sys.executable, "-c", "import scipy"], env=env,
                          capture_output=True).returncode == 1
    out = tmp_path / "run"
    for argv in (
        ["pipeline", "--input", str(corpus_dir / "comments.csv"), "--out", str(out)],
        ["reduce", "--input", str(out / "embeddings.csv"), "--out", str(tmp_path / "reduce")],
        ["cluster", "--input", str(out / "reduced.csv"), "--out", str(tmp_path / "cluster")],
    ):
        subprocess.run([sys.executable, "-m", "mobgraph.cli", *argv], env=env,
                       capture_output=True, check=True)


def test_serial_run_loads_no_process_pool(default_run_modules):
    assert "mobgraph.pipeline" in default_run_modules
    assert "multiprocessing" not in default_run_modules
    assert "concurrent.futures.process" not in default_run_modules


def test_budget_failure_is_the_same_with_worker_processes(corpus_dir, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    seen = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        code = main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                     "--out", str(out), "--clique-budget", "10",
                     "--threads", str(threads)])
        assert code == 1
        assert files_under(out) == ["INCOMPLETE"]
        assert multiprocessing.active_children() == []
        seen[threads] = (capsys.readouterr().err, (out / "INCOMPLETE").read_text())
    err, marker = seen[1]
    assert err.startswith("error: stage 'cliques' failed: maximal clique count "
                          "exceeded budget 10 on channel 'ch01'")
    assert marker.startswith("failed at stage: cliques\n")
    assert seen[2] == seen[1]


def channel_state(channels, threads):
    """A RunState over one comment per channel, so that each channel's task
    gets an edgeless graph named after it."""
    records = {c: [CommentRecord(c, "v", "u", f"{c}-1")] for c in channels}
    return RunState(PipelineConfig(threads=threads), channels=list(channels),
                    records={None: [r for rs in records.values() for r in rs], **records})


# Channel tasks: module-level, as the workers get them by name.
def upper_name(graph):
    return graph.name.upper()


def fail_on_b_and_d(graph):
    if graph.name in ("b", "d"):
        raise InvalidConfig(f"bad {graph.name}")
    return graph.name.upper()


def process_id(graph):
    return os.getpid()


def test_map_channels_raises_the_first_failing_channel_in_order(monkeypatch):
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    with channel_state("abc", 2) as state:
        assert _map_channels(state, upper_name)() == ["A", "B", "C"]
    for threads in (1, 2):
        with channel_state("abcde", threads) as state:
            with pytest.raises(InvalidConfig, match="bad b"):
                _map_channels(state, fail_on_b_and_d)()


@pytest.mark.parametrize("cpus, forked", [(1, False), (2, True)])
def test_map_channels_workers_capped_by_cpus(monkeypatch, cpus, forked):
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: cpus)
    with channel_state("abc", 4) as state:
        pids = _map_channels(state, process_id)()
    assert len(pids) == 3
    assert len(set(pids)) <= cpus
    assert (os.getpid() not in pids) == forked


def test_map_channels_runs_serially_without_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with channel_state("abc", 2) as state:
        pids = _map_channels(state, process_id)()
        assert state.pool is None
    assert set(pids) == {os.getpid()}


TASK_LOG = "MOBGRAPH_TEST_TASK_LOG"  # set by the test; forked workers inherit it
run_task = pipeline_mod._run_task


def logged_task(fn, channel, kwargs):
    with open(os.environ[TASK_LOG], "a", encoding="utf-8") as log:
        log.write(f"{fn.__name__} {os.getpid()}\n")
    return run_task(fn, channel, kwargs)


def test_one_worker_pool_per_run(corpus_dir, pipeline_out, tmp_path, monkeypatch):
    log = tmp_path / "tasks.log"
    monkeypatch.setenv(TASK_LOG, str(log))
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline_mod, "_run_task", logged_task)
    out = tmp_path / "run"
    assert main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--seed", "0", "--threads", "2"]) == 0
    assert multiprocessing.active_children() == []
    tasks = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for name, _ in tasks) == sorted(
        ["_write_gexf", "extract_document", "clique_census"] * 8)
    pids = {int(pid) for _, pid in tasks}
    assert len(pids) <= 2
    assert os.getpid() not in pids
    assert read_bytes(out / "cliques.csv") == read_bytes(pipeline_out / "cliques.csv")


def test_pipeline_missing_input(tmp_path, capsys):
    out = tmp_path / "broken"
    code = main(["pipeline", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: stage 'ingest' failed")
    marker = out / "INCOMPLETE"
    assert marker.exists()
    assert "ingest" in marker.read_text()


def test_pipeline_clears_stale_marker(corpus_dir, tmp_path):
    out = tmp_path / "stale"
    out.mkdir()
    (out / "INCOMPLETE").write_text("failed at stage: embed\n")
    code = main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--seed", "0"])
    assert code == 0
    assert not (out / "INCOMPLETE").exists()


def synth_corpus(path, channels):
    assert main(["synth", "--out", str(path), "--channels", str(channels),
                 "--videos", "10", "--organic", "12"]) == 0
    return str(path / "comments.csv")


def files_under(directory):
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file())


def test_too_few_channels_for_umap_neighbors_fails_before_graphs(tmp_path, capsys):
    comments = synth_corpus(tmp_path / "small", 4)
    assert main(["ingest", "--input", comments]) == 0  # ingest alone takes any corpus
    out = tmp_path / "run"
    assert main(["pipeline", "--input", comments, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'ingest' failed")
    assert "4 channels" in err and "umap_neighbors=5" in err
    assert files_under(out) == ["INCOMPLETE"]


@pytest.mark.parametrize("flags", [
    ["--k-min", "8"],  # k_max defaults to min(10, 8 - 1) = 7
    ["--k-min", "1"],
    ["--k-min", "4", "--k-max", "3"],
    ["--k-max", "9"],  # more clusters than channels
])
def test_empty_k_range_fails_before_graphs(corpus_dir, tmp_path, capsys, flags):
    out = tmp_path / "run"
    code = main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--umap-neighbors", "3", *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'ingest' failed")
    assert "8 channels" in err and "k_max <= channels" in err
    for flag, value in zip(flags[::2], flags[1::2]):
        assert f"{flag[2:].replace('-', '_')}={value}" in err
    assert files_under(out) == ["INCOMPLETE"]


@pytest.fixture(scope="module")
def ten_channel_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("ten")
    out = base / "out"
    assert main(["pipeline", "--input", synth_corpus(base, 10), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n")
    (out / "graphs" / "notes.txt").write_text("kept\n")
    return out


@pytest.mark.parametrize("stage, flags, detail", [
    ("embed", ["--min-count", "100000"], "min_count=100000"),  # empty vocabulary
    ("cliques", ["--clique-budget", "10"], "exceeded budget 10"),
    # The census is queued with the workers before embed fails.
    ("embed", ["--min-count", "10000", "--threads", "2"], "min_count=10000"),
], ids=["embed", "cliques", "embed-with-workers"])
def test_failed_run_leaves_only_the_marker(corpus_dir, tmp_path, capsys, monkeypatch,
                                           stage, flags, detail):
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    out = tmp_path / "run"
    assert main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage '{stage}' failed")
    assert detail in err
    assert files_under(out) == ["INCOMPLETE"]
    assert multiprocessing.active_children() == []


def slow_census_task(fn, channel, kwargs):
    if fn.__name__ == "clique_census":
        with open(os.environ[TASK_LOG], "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()}\n")
        time.sleep(30)
    return run_task(fn, channel, kwargs)


def test_failed_run_does_not_wait_for_running_census_tasks(corpus_dir, tmp_path, capsys,
                                                            monkeypatch):
    log = tmp_path / "census.log"
    monkeypatch.setenv(TASK_LOG, str(log))
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline_mod, "_run_task", slow_census_task)
    build_vocabulary = embed_mod.build_vocabulary

    def once_both_workers_count(*args, **kwargs):
        deadline = time.monotonic() + 5
        while not (log.exists() and len(log.read_text().split()) == 2):
            assert time.monotonic() < deadline, "the census tasks never started"
            time.sleep(0.01)
        return build_vocabulary(*args, **kwargs)

    monkeypatch.setattr(embed_mod, "build_vocabulary", once_both_workers_count)
    out = tmp_path / "run"
    started = time.monotonic()
    assert main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--min-count", "10000", "--threads", "2"]) == 1
    assert time.monotonic() - started < 5
    assert capsys.readouterr().err.startswith("error: stage 'embed' failed")
    assert files_under(out) == ["INCOMPLETE"]
    assert multiprocessing.active_children() == []


# Run by a child interpreter: a pipeline whose census tasks log their pid and
# sleep, so the test can kill the run while its workers are busy.
KILLED_RUN = """
import os, sys, time
from mobgraph import pipeline
from mobgraph.cli import main

run_task = pipeline._run_task

def logged_census_task(fn, channel, kwargs):
    if fn.__name__ == "clique_census":
        with open(sys.argv[1], "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()}\\n")
        time.sleep(60)
    return run_task(fn, channel, kwargs)

pipeline._run_task = logged_census_task
pipeline._usable_cpus = lambda: 2
sys.exit(main(["pipeline", "--input", sys.argv[2], "--out", sys.argv[3],
               "--threads", "2"]))
"""


def gone_or_zombie(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux's")
def test_workers_die_with_a_killed_parent(corpus_dir, tmp_path):
    log = tmp_path / "pids.log"
    run = subprocess.Popen(
        [sys.executable, "-c", KILLED_RUN, str(log), str(corpus_dir / "comments.csv"),
         str(tmp_path / "run")], env=fresh_env(), stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (log.exists() and len(log.read_text().split()) >= 2):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        run.kill()
        run.wait(timeout=10)
    pids = {int(pid) for pid in log.read_text().split()}
    deadline = time.monotonic() + 5
    while not all(gone_or_zombie(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if not gone_or_zombie(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []


# Run by a child interpreter: a pipeline whose WL results are padded far past
# what a pipe holds, and whose first one interrupts the run 10 ms into being
# sent. A worker killed then would leave the pool reading the rest for ever.
# The parent holds that result back, when it unpickles it, until its SIGINT
# handler has run, so the run cannot finish wl and reach embed first.
LARGE_RESULT_RUN = """
import os, signal, sys, threading
from mobgraph import pipeline
from mobgraph.cli import main

run_task = pipeline._run_task
PADDING = bytes(32 << 20)
handled = threading.Event()

def on_interrupt(signum, frame):
    handled.set()
    signal.default_int_handler(signum, frame)

def once_interrupted():
    handled.wait(10)
    return 0

class Interrupt:
    def __reduce__(self):  # pickled after the padding, just before the send
        try:
            os.close(os.open(sys.argv[1], os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return int, ()
        threading.Timer(0.01, os.kill, (os.getppid(), signal.SIGINT)).start()
        return once_interrupted, ()

def padded_document_task(fn, channel, kwargs):
    result = run_task(fn, channel, kwargs)
    if fn.__name__ == "extract_document":
        return result, PADDING, Interrupt()
    return result

pipeline._run_task = padded_document_task
pipeline._usable_cpus = lambda: 2
signal.signal(signal.SIGINT, on_interrupt)
sys.exit(main(["pipeline", "--input", sys.argv[2], "--out", sys.argv[3],
               "--threads", "2"]))
"""


def test_interrupt_while_a_worker_sends_a_large_result_ends(corpus_dir, tmp_path):
    out = tmp_path / "run"
    run = subprocess.Popen(
        [sys.executable, "-c", LARGE_RESULT_RUN, str(tmp_path / "interrupted"),
         str(corpus_dir / "comments.csv"), str(out)],
        env=fresh_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = run.communicate(timeout=30)
    finally:
        run.kill()  # its workers die with it
        run.wait()
    assert (run.returncode, err) == (130, "error: interrupted\n")
    assert files_under(out) == ["INCOMPLETE"]
    assert (out / "INCOMPLETE").read_text() == "failed at stage: wl\ninterrupted\n"


@contextlib.contextmanager
def slow_open_text(target, mode="r"):
    with open_text(target, mode) as sink:
        with open(os.environ[TASK_LOG], "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()}\n")
        time.sleep(0.5)
        yield sink


def test_interrupted_graphs_command_leaves_no_temp_files(corpus_dir, tmp_path, capsys,
                                                        monkeypatch):
    log = tmp_path / "writes.log"
    monkeypatch.setenv(TASK_LOG, str(log))
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gexf_mod, "open_text", slow_open_text)

    map_channels = pipeline_mod._map_channels

    def interrupted_once_both_workers_write(state, fn, **kwargs):
        map_channels(state, fn, **kwargs)  # the tasks start; nothing waits for them
        deadline = time.monotonic() + 10
        while not (log.exists() and len(log.read_text().split()) >= 2):
            assert time.monotonic() < deadline, "the GEXF writes never started"
            time.sleep(0.01)
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline_mod, "_map_channels", interrupted_once_both_workers_write)
    out = tmp_path / "graphs"
    assert main(["graphs", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--threads", "2"]) == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert [f for f in files_under(out) if not f.endswith(".gexf")] == []
    assert multiprocessing.active_children() == []


def interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def terminate(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(10)  # the handler raises before this returns


def sigterm_not_handled(signum, frame):
    raise AssertionError("main left SIGTERM to the default action")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("stop", [interrupt, terminate], ids=["ctrl-c", "sigterm"])
def test_interrupted_run_leaves_only_the_marker(corpus_dir, tmp_path, capsys, monkeypatch,
                                                stop, threads):
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(embed_mod, "train_embeddings", stop)
    out = tmp_path / "run"
    previous = signal.signal(signal.SIGTERM, sigterm_not_handled)
    try:
        assert main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                     "--out", str(out), "--threads", str(threads)]) == 130
        assert signal.getsignal(signal.SIGTERM) is sigterm_not_handled
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert capsys.readouterr().err == "error: interrupted\n"
    assert files_under(out) == ["INCOMPLETE"]
    assert (out / "INCOMPLETE").read_text() == "failed at stage: embed\ninterrupted\n"
    assert multiprocessing.active_children() == []


def test_subcommands_with_workers_write_the_same_bytes(corpus_dir, pipeline_out, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.setattr(pipeline_mod, "_usable_cpus", lambda: 2)
    comments = str(corpus_dir / "comments.csv")
    out = tmp_path / "stages"
    for command in ("graphs", "embed", "cliques"):
        assert main([command, "--input", comments, "--out", str(out),
                     "--threads", "2"]) == 0
        assert multiprocessing.active_children() == [], command
    assert read_bytes(out / "ch00.gexf") == read_bytes(pipeline_out / "graphs" / "ch00.gexf")
    assert read_bytes(out / "embeddings.csv") == read_bytes(pipeline_out / "embeddings.csv")
    counts = json.loads((pipeline_out / "report.json").read_text())["cliques"]["counts"]
    rows = (out / "cliques.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0]: int(row.split(",")[3]) for row in rows} == counts


def test_failed_rerun_leaves_no_stale_artifacts(ten_channel_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(ten_channel_out, out)
    assert "graphs/ch09.gexf" in files_under(out)
    comments = synth_corpus(tmp_path / "small", 4)
    assert main(["pipeline", "--input", comments, "--out", str(out)]) == 1
    assert files_under(out) == ["INCOMPLETE", "graphs/notes.txt", "notes.txt"]


def test_rerun_removes_leftover_temp_files(corpus_dir, pipeline_out, tmp_path):
    out = tmp_path / "out"
    (out / "graphs").mkdir(parents=True)
    # What a writer killed mid-write leaves; notes.txt is not the pipeline's.
    for name in (".embeddings.csv.deadbeef.tmp", "graphs/.ch00.gexf.cafebabe.tmp",
                 ".notes.txt.deadbeef.tmp"):
        (out / name).write_text("half\n")
    assert main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--seed", "0"]) == 0
    assert files_under(out) == sorted(files_under(pipeline_out) + [".notes.txt.deadbeef.tmp"])


def test_smaller_rerun_leaves_no_stale_artifacts(ten_channel_out, corpus_dir,
                                                 pipeline_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(ten_channel_out, out)
    assert main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--seed", "0"]) == 0
    assert files_under(out) == sorted(files_under(pipeline_out)
                                      + ["graphs/notes.txt", "notes.txt"])
    for name in files_under(pipeline_out):
        if name != "report.json":
            assert read_bytes(out / name) == read_bytes(pipeline_out / name), name
    reports = [strip_timings(json.loads((d / "report.json").read_text()))
               for d in (out, pipeline_out)]
    for report in reports:
        del report["config"]["out"]
    assert reports[0] == reports[1]


# --- configuration layering ----------------------------------------------------------

def test_config_file_and_flag_precedence(corpus_dir, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 5, "dim": 16, "min_count": 2}))
    out = tmp_path / "layered"
    code = main([
        "pipeline", "--config", str(config_path),
        "--input", str(corpus_dir / "comments.csv"),
        "--out", str(out), "--seed", "7",
    ])
    assert code == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["seed"] == 7  # flag beats file
    assert config["dim"] == 16  # file beats default
    assert config["min_count"] == 2
    assert config["lr"] == 0.025  # untouched default


def test_config_file_unknown_key(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sneaky": 1}))
    code = main(["pipeline", "--config", str(config_path), "--input", "x.csv"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("values, detail", [
    ({"dim": "16"}, "dim must be int, got '16'"),
    ({"dim": True}, "dim must be int, got True"),
    ({"seed": True}, "seed must be int, got True"),
    ({"threads": 2.5}, "threads must be int, got 2.5"),
    ({"input": 5}, "input must be str, got 5"),
], ids=["dim", "dim true", "seed", "threads", "input"])
def test_config_value_of_wrong_type_fails_before_ingest(corpus_dir, tmp_path, capsys,
                                                         values, detail):
    out = tmp_path / "run"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"input": str(corpus_dir / "comments.csv"),
                                       "out": str(out), **values}))
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: invalid config: {detail}\n"
    assert not out.exists()


def test_resolve_config_types():
    config = resolve_config({"lr": 1, "dim": None, "k_max": None})
    assert config.lr == 1  # an int is a valid float
    assert (config.dim, config.k_max) == (128, None)  # None means "not set"
    for values in ({"lr": True}, {"n_init": True}, {"k_max": 3.0}, {"format": 1}):
        with pytest.raises(InvalidConfig, match="must be"):
            resolve_config(values)


REMOVED_SETTINGS = {"include_isolated": True, "wl_weight_buckets": True,
                    "cluster_space": "embeddings", "umap_min_dist": 0.2, "umap_spread": 2}


@pytest.mark.parametrize("key", REMOVED_SETTINGS)
def test_removed_setting_fails_before_input_is_read(tmp_path, capsys, key):
    value = REMOVED_SETTINGS[key]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}))
    out = tmp_path / "run"
    never_read = str(tmp_path / "never-read.csv")
    assert main(["pipeline", "--config", str(config_path),
                 "--input", never_read, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid config: unknown config key {key!r}\n"
    flag = "--" + key.replace("_", "-")
    flag_args = [flag] if value is True else [flag, str(value)]
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--input", never_read, "--out", str(out), *flag_args])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--umap-min-dist", "0"], ["--umap-min-dist", "2.0"], ["--umap-spread", "-1"],
    ["--umap-min-dist", "0.5", "--umap-spread", "0.4"],
])
def test_min_dist_outside_zero_to_spread_fails_before_ingest(tmp_path, capsys, flags):
    # The layout curve is pinned, so the old out-of-range settings are now unknown ones.
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--input", str(tmp_path / "never-read.csv"),
              "--out", str(out), *flags])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(InvalidConfig, match="unknown config key 'umap_min_dist'"):
        resolve_config({}, {"umap_min_dist": 0.5, "umap_spread": 0.5})


def test_threads_env_fallback(corpus_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("MOBGRAPH_THREADS", "2")
    out = tmp_path / "env"
    code = main(["pipeline", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out), "--seed", "0"])
    assert code == 0
    assert json.loads((out / "report.json").read_text())["config"]["threads"] == 2


def test_threads_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("MOBGRAPH_THREADS", "many")
    code = main(["pipeline", "--input", "whatever.csv"])
    assert code == 1
    assert "MOBGRAPH_THREADS" in capsys.readouterr().err


def test_resolve_config_layers():
    config = resolve_config({"dim": 32}, {"seed": 9, "k_max": None})
    assert config.dim == 32
    assert config.seed == 9
    assert config.k_max is None  # None override is skipped, default kept
    assert config.format == "csv"
    with pytest.raises(InvalidConfig):
        resolve_config({"format": "parquet"}, {})
    with pytest.raises(InvalidConfig):
        resolve_config({}, {"threads": 0})
    with pytest.raises(InvalidConfig):
        resolve_config({"mystery": 1}, {})


def test_load_config_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(InvalidConfig):
        load_config_file(path)
    path.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_config_file(path)


def test_run_pipeline_stage_error_names_stage(tmp_path):
    config = PipelineConfig(input=str(tmp_path / "missing.csv"),
                            out=str(tmp_path / "out"))
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(config)
    assert err.value.stage == "ingest"


# --- individual subcommands -----------------------------------------------------------

def test_ingest_summary(corpus_dir, capsys):
    code = main(["ingest", "--input", str(corpus_dir / "comments.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "across 8 channels" in out
    assert "ch00:" in out


def assert_printed_counts_match_files(printed):
    """Each line `<path>: <n> nodes, <m> edges` agrees with the GEXF at path."""
    for line in printed.splitlines():
        path, counts = line.split(": ")
        graph = gexf_mod.read_gexf(path)
        assert counts == f"{graph.n_nodes} nodes, {graph.n_edges} edges"


def test_graphs_command(corpus_dir, tmp_path, capsys):
    out = tmp_path / "graphs"
    code = main(["graphs", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.glob("*.gexf")) == [
        f"ch{c:02d}.gexf" for c in range(8)
    ]
    printed = capsys.readouterr().out
    assert [line.split(": ")[0] for line in printed.splitlines()] == [
        str(out / f"ch{c:02d}.gexf") for c in range(8)
    ]
    assert_printed_counts_match_files(printed)
    merged_out = tmp_path / "merged"
    code = main(["graphs", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(merged_out), "--merged"])
    assert code == 0
    assert [p.name for p in merged_out.glob("*.gexf")] == ["merged.gexf"]
    printed = capsys.readouterr().out
    assert printed.startswith(f"{merged_out / 'merged.gexf'}: ")
    assert_printed_counts_match_files(printed)


def assert_chain_matches(comments, pipeline_out, out, extra=()):
    """Run embed -> reduce -> cluster -> cliques with the same settings
    `extra` gave `pipeline`, and compare every artifact with its output."""
    extra = list(extra)
    assert main(["embed", "--input", comments, "--out", str(out), *extra]) == 0
    assert read_bytes(out / "embeddings.csv") == read_bytes(
        pipeline_out / "embeddings.csv"
    )
    assert main(["reduce", "--input", str(out / "embeddings.csv"),
                 "--out", str(out), *extra]) == 0
    assert read_bytes(out / "reduced.csv") == read_bytes(pipeline_out / "reduced.csv")
    assert main(["cluster", "--input", str(out / "reduced.csv"),
                 "--out", str(out), *extra]) == 0
    assert (out / "cluster.json").exists()
    assert read_bytes(out / "dendrogram.json") == read_bytes(
        pipeline_out / "dendrogram.json"
    )
    clustering = json.loads((out / "cluster.json").read_text())
    report = json.loads((pipeline_out / "report.json").read_text())
    assert clustering == report["clustering"]
    assert main(["cliques", "--input", comments, "--out", str(out),
                 "--report", str(pipeline_out / "report.json"), *extra]) == 0
    assert read_bytes(out / "cliques.csv") == read_bytes(pipeline_out / "cliques.csv")


def test_stagewise_chain_matches_pipeline(corpus_dir, pipeline_out, tmp_path, capsys):
    assert_chain_matches(str(corpus_dir / "comments.csv"), pipeline_out,
                         tmp_path / "stages")


def test_stagewise_chain_matches_pipeline_tuned_config(corpus_dir, tmp_path, capsys):
    config_path = tmp_path / "tuned.json"
    config_path.write_text(json.dumps(
        {"dim": 16, "epochs": 3, "min_count": 2, "umap_epochs": 50, "n_init": 3}
    ))
    comments = str(corpus_dir / "comments.csv")
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--input", comments,
                 "--out", str(run)]) == 0
    assert_chain_matches(comments, run, tmp_path / "stages",
                         ["--config", str(config_path)])


def test_hostile_channel_id_writes_nothing_outside_out(tmp_path, capsys):
    # Unchecked, graphs/../../escaped.gexf would land in tmp_path itself.
    source = tmp_path / "comments.csv"
    source.write_text("channel_id,video_id,commenter_id,comment_id\n" + "".join(
        f"{channel},v1,u{i},{channel}{i}\n"
        for channel in ("ch00", "../../escaped") for i in range(3)
    ))
    run, stages = tmp_path / "run", tmp_path / "stages"
    codes = [main(["pipeline", "--input", str(source), "--out", str(run)]),
             main(["graphs", "--input", str(source), "--out", str(stages / "graphs")])]
    outside = [p for p in tmp_path.rglob("*")
               if p not in (source, run, stages)
               and run not in p.parents and stages not in p.parents]
    assert outside == []
    assert codes == [1, 1]
    assert "not a safe file name" in capsys.readouterr().err


# --- flags -----------------------------------------------------------------------------

def subcommands():
    return build_parser()._subparsers._group_actions[0].choices


def flag_dests(subparser):
    return [a.dest for a in subparser._actions if a.dest != "help"]


def test_pipeline_has_one_flag_per_config_field():
    dests = flag_dests(subcommands()["pipeline"])
    assert sorted(dests) == sorted([*CONFIG_FIELDS, "config"])


def test_stage_flags_are_the_fields_their_steps_read():
    own = {"input", "artifact", "out", "config", "strict", "merged", "report"}
    parsers = subcommands()
    for name, steps in STEPS.items():
        dests = flag_dests(parsers[name])
        assert len(dests) == len(set(dests)), name
        assert set(dests) - own == set(fields_read(steps)), name
        assert set(fields_read(steps)) <= set(CONFIG_FIELDS), name


def test_no_flags_resolve_to_default_config(monkeypatch):
    monkeypatch.delenv("MOBGRAPH_THREADS", raising=False)
    parser = build_parser()
    assert _config(parser.parse_args(["pipeline"])) == PipelineConfig()
    for name in STEPS:
        args = parser.parse_args([name, "--input", "x.csv"])
        expected = PipelineConfig(input=None if name in ("reduce", "cluster") else "x.csv")
        assert _config(args) == expected, name


def test_report_command(pipeline_out, capsys):
    code = main(["report", "--input", str(pipeline_out / "report.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "k-means: k=" in out
    assert "clique census" in out


def test_synth_flag_defaults_mirror_library_defaults():
    import inspect

    from mobgraph.synth import two_family_config

    parser = build_parser()
    synth = next(
        a for a in parser._subparsers._group_actions[0].choices.items()
        if a[0] == "synth"
    )[1]
    defaults = {a.dest: a.default for a in synth._actions}
    sig = inspect.signature(two_family_config)
    pairs = {
        "channels": "n_channels",
        "videos": "videos_per_channel",
        "organic": "organic_commenters",
        "organic_prob": "organic_prob",
        "heavy_mob_size": "heavy_mob_size",
        "heavy_mob_prob": "heavy_mob_prob",
        "light_mob_size": "light_mob_size",
        "light_mob_prob": "light_mob_prob",
    }
    for flag, param in pairs.items():
        assert defaults[flag] == sig.parameters[param].default, flag


def test_ingest_input_not_utf8_fails_cleanly(tmp_path, capsys):
    source = tmp_path / "comments.csv"
    source.write_bytes(b"channel_id,video_id,commenter_id,comment_id\nc1,v1,u\xff,m1\n")
    assert main(["ingest", "--input", str(source)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "comments.csv is not UTF-8" in err
    assert "Traceback" not in err


BAD_JSON = {
    "malformed": (b"{not json", "Expecting property name"),
    "no clustering": (b'{"channels": [], "cliques": {}, "ranking": {}}', "'clustering'"),
    "no kmeans": (b'{"channels": [], "clustering": {}, "cliques": {}, "ranking": {}}',
                  "no 'kmeans' key in 'clustering'"),
    "clustering not an object": (b'{"clustering": [1], "channels": []}',
                                 "no 'kmeans' key in 'clustering'"),
    "not an object": (b"[1, 2]", "expected a JSON object"),
    "not utf-8": (b'{"clustering": "\xff"}', "not UTF-8"),
}


@pytest.mark.parametrize("case", BAD_JSON)
def test_report_and_cliques_reject_bad_json(corpus_dir, tmp_path, capsys, case):
    content, detail = BAD_JSON[case]
    bad = tmp_path / "report.json"
    bad.write_bytes(content)
    for argv in (["report", "--input", str(bad)],
                 ["cliques", "--input", str(corpus_dir / "comments.csv"),
                  "--out", str(tmp_path / "out"), "--report", str(bad)]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}"), argv[0]
        assert detail in err, argv[0]
        assert "Traceback" not in err, argv[0]


BAD_LABELS = {
    "label not an integer": {"ch00": "x"},
    "label a bool": {"ch00": True},
    "labels not an object": [],
}


@pytest.mark.parametrize("case", BAD_LABELS)
def test_cliques_rejects_labels_of_wrong_type(corpus_dir, tmp_path, capsys, case):
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps({"clustering": {"kmeans": {"labels": BAD_LABELS[case]}}}))
    assert main(["cliques", "--input", str(corpus_dir / "comments.csv"),
                 "--out", str(tmp_path / "out"), "--report", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: 'clustering.kmeans.labels' must be an object of integers\n")


OVERALL_SHAPE = "'ranking.overall' must be a list of [channel, cluster, count] rows"


@pytest.mark.parametrize("value", ["x", None, True])
@pytest.mark.parametrize("method", ["kmeans", "hierarchical"])
def test_report_rejects_a_score_that_is_not_a_number(pipeline_out, tmp_path, capsys,
                                                     method, value):
    report = json.loads((pipeline_out / "report.json").read_text())
    report["clustering"][method]["silhouette"] = value
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(report))
    assert main(["report", "--input", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: 'clustering.{method}.silhouette' must be a number\n"


@pytest.mark.parametrize("key, value, message", [
    ("channels", 5, "'channels' must be a list of strings"),
    ("channels", ["ch00", 1], "'channels' must be a list of strings"),
    ("warnings", 5, "'warnings' must be a list of strings"),
    ("warnings", [None], "'warnings' must be a list of strings"),
    ("overall", 5, OVERALL_SHAPE),
    # A good row first: nothing may be printed before the bad one is found.
    ("overall", [["ch00", 0, 3], ["ch01", 0]], OVERALL_SHAPE),
    ("overall", [["ch00", 0, 3], ["ch01", 0, 3, 1]], OVERALL_SHAPE),
    ("overall", [["ch00", 0, 3], ["ch01", "0", 3]], OVERALL_SHAPE),
    ("overall", [["ch00", 0, 3], [1, 0, 3]], OVERALL_SHAPE),
    ("overall", [["ch00", 0, 3], ["ch01", 0, True]], OVERALL_SHAPE),
    ("overall", [["ch00", 0, 3], "ch01"], OVERALL_SHAPE),
])
def test_report_rejects_channels_and_rows_of_wrong_shape(pipeline_out, tmp_path, capsys,
                                                         key, value, message):
    report = json.loads((pipeline_out / "report.json").read_text())
    if key == "overall":
        report["ranking"]["overall"] = value
    else:
        report[key] = value
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(report))
    assert main(["report", "--input", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("flag,value", [
    ("threads", 0), ("dim", 0), ("n_init", 0), ("min_count", 0),
    ("min_shared_videos", 0), ("umap_epochs", 0), ("clique_min_size", 0),
    ("wl_iterations", -1), ("negative", -1), ("umap_neighbors", 0),
    ("umap_components", 0), ("umap_negative_rate", 0), ("epochs", 0),
    ("clique_budget", 0),
])
def test_setting_below_its_bound_fails_before_ingest(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    code = main(["pipeline", "--input", str(tmp_path / "never-read.csv"),
                 "--out", str(out), "--" + flag.replace("_", "-"), str(value)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: invalid config: {flag} must be >= {value + 1}")
    assert not out.exists()
    resolve_config({}, {flag: value + 1})  # the bound itself is allowed


@pytest.mark.parametrize("text, message", [
    ("", "line 1: expected a header starting with graph_id"),
    ("id,e0\nch00,1.0\n", "line 1: expected a header starting with graph_id"),
    ("graph_id,e0,e1\nch00,1.0,x\n", "line 2: could not convert string to float: 'x'"),
    ("graph_id,e0,e1\nch00,1.0,2.0\nch01,1.0\n", "line 3: expected 3 fields, got 2"),
    (f"graph_id,e0\nch00,{'1' * (csv.field_size_limit() + 1)}\n",
     f"line 2: field larger than field limit ({csv.field_size_limit()})"),
    ("graph_id,e0\nch00,1.0\nch01,2.0\nch00,3.0\n", "line 4: graph_id 'ch00' repeats line 2"),
], ids=["empty", "no graph_id", "not a number", "short row", "field over the csv limit",
        "repeated graph_id"])
@pytest.mark.parametrize("command", ["reduce", "cluster"])
def test_malformed_id_table_is_one_error_line(tmp_path, capsys, command, text, message):
    bad = tmp_path / "table.csv"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--input", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert files_under(out) == []


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("artifact, command", [("embeddings.csv", "reduce"),
                                               ("reduced.csv", "cluster")])
def test_non_finite_cell_is_one_error_line(pipeline_out, tmp_path, capsys, artifact, command,
                                           cell):
    lines = (pipeline_out / artifact).read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[1] = cell
    lines[2] = ",".join(fields)
    bad = tmp_path / artifact
    bad.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--input", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 3: {cell!r} is not a finite number\n"
    assert files_under(out) == []


@pytest.mark.parametrize("rows", [0, 2])
def test_cluster_on_too_few_rows_explains_the_k_range(pipeline_out, tmp_path, capsys, rows):
    lines = (pipeline_out / "reduced.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    table = tmp_path / "reduced.csv"
    table.write_text("".join(lines[:1 + rows]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cluster", "--input", str(table), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid config: {rows} channels leave no k to select with k_min=2, "
        f"k_max=None (k_min must be >= 2 and k_max <= channels; k_max defaults to "
        f"min(10, channels - 1))\n")
    assert files_under(out) == []


def test_cluster_k_max_may_reach_the_row_count_but_not_pass_it(pipeline_out, tmp_path,
                                                                capsys):
    reduced = str(pipeline_out / "reduced.csv")  # 8 rows
    out = tmp_path / "out"
    assert main(["cluster", "--input", reduced, "--out", str(out), "--k-max", "9"]) == 1
    assert capsys.readouterr().err == (
        "error: invalid config: 8 channels leave no k to select with k_min=2, k_max=9 "
        "(k_min must be >= 2 and k_max <= channels; k_max defaults to "
        "min(10, channels - 1))\n")
    assert files_under(out) == []
    assert main(["cluster", "--input", reduced, "--out", str(out), "--k-max", "8"]) == 0
    clustering = json.loads((out / "cluster.json").read_text(encoding="utf-8"))
    for method in ("kmeans", "hierarchical"):
        assert list(clustering[method]["silhouette_by_k"]) == [str(k) for k in range(2, 9)]


@pytest.mark.parametrize("rows", [0, 2])
def test_reduce_on_too_few_rows_names_umap_neighbors(pipeline_out, tmp_path, capsys, rows):
    lines = (pipeline_out / "embeddings.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    table = tmp_path / "embeddings.csv"
    table.write_text("".join(lines[:1 + rows]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["reduce", "--input", str(table), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid config: {rows} channels is too few for umap_neighbors=5; "
        f"reduce needs more channels than neighbours\n")
    assert files_under(out) == []


@pytest.mark.parametrize("command", ["pipeline", "graphs", "reduce"])
def test_out_naming_a_file_is_one_error_line(corpus_dir, pipeline_out, tmp_path, capsys,
                                             command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    source = pipeline_out / "embeddings.csv" if command == "reduce" else corpus_dir / "comments.csv"
    assert main([command, "--input", str(source), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(taken) in err
    assert taken.read_text() == "not a directory\n"


def test_report_command_missing_file(tmp_path, capsys):
    code = main(["report", "--input", str(tmp_path / "absent.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
