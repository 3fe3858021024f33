"""What a mobgraph process starts with: numpy's OpenBLAS loaded with one
thread unless the caller chose otherwise, worker processes forked from a
single-threaded parent, and results that depend neither on the BLAS thread
count nor on the BLAS kernel picked for the CPU. Every case runs in a fresh
interpreter, since OpenBLAS reads its thread count and kernel only when
numpy first loads."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import fresh_env


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 has no mode argument
        return False
    return "openblas" in blas["name"].lower()


pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not _numpy_uses_openblas(),
    reason="counts threads in /proc/self/task; the cap is OpenBLAS's",
)

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS", "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
)

THREADS_AFTER_IMPORT = """
import json, os
{imports}
print(json.dumps({{
    "threads": len(os.listdir("/proc/self/task")),
    "env": {{name: os.environ.get(name) for name in {names!r}}},
}}))
"""


def run_python(script: str, *args: str, **variables: str) -> str:
    """stdout of `python -c script args...` with this mobgraph on the path,
    none of the BLAS thread variables set, and then the given ones."""
    env = {k: v for k, v in fresh_env().items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def threads_after(imports: str, **variables: str) -> dict:
    script = THREADS_AFTER_IMPORT.format(imports=imports, names=BLAS_THREAD_VARIABLES)
    return json.loads(run_python(script, **variables))


def test_import_mobgraph_loads_numpy_with_one_thread():
    seen = threads_after("import mobgraph")
    assert seen == {"threads": 1, "env": dict.fromkeys(BLAS_THREAD_VARIABLES)}


@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_a_thread_count_the_caller_set_is_kept(name):
    seen = threads_after("import mobgraph", **{name: "2"})
    assert seen["env"] == {**dict.fromkeys(BLAS_THREAD_VARIABLES), name: "2"}
    if CPUS >= 2:
        assert seen["threads"] == 2


def test_numpy_imported_first_keeps_its_own_thread_count():
    expected = threads_after("import numpy")["threads"]
    assert threads_after("import numpy\nimport mobgraph") == {
        "threads": expected, "env": dict.fromkeys(BLAS_THREAD_VARIABLES)}


FORKED_RUN = """
import json, os, sys
from mobgraph import ingest, synth
from mobgraph.pipeline import PipelineConfig, run_pipeline

records, _ = synth.generate_corpus(synth.SynthConfig(
    n_channels=8, videos_per_channel=10, organic_commenters=20, seed=0))
ingest.write_comments_csv(records, sys.argv[1] + "/comments.csv")
seen = []
os.register_at_fork(before=lambda: seen.append(len(os.listdir("/proc/self/task"))))
run_pipeline(PipelineConfig(input=sys.argv[1] + "/comments.csv", out=sys.argv[1] + "/run",
                            threads=2, min_count=2, umap_neighbors=3))
print(json.dumps(seen))
"""


@pytest.mark.skipif(CPUS < 2, reason="one CPU: no worker pool")
def test_workers_fork_from_a_single_threaded_process(tmp_path):
    assert json.loads(run_python(FORKED_RUN, str(tmp_path))) == [1, 1]


REDUCE_BYTES = """
import sys
import numpy as np
from mobgraph.reduce import reduce_embeddings

points = np.random.default_rng(7).normal(size=(96, 16))
coords, info = reduce_embeddings(points, n_neighbors=15, n_components=2, epochs=5)
assert info["init"] == "spectral", info
sys.stdout.write(coords.tobytes().hex())
"""

TRAIN_BYTES = """
import sys
from mobgraph import ingest, synth, wl
from mobgraph.embed import build_vocabulary, train_embeddings

records, _ = synth.generate_corpus(synth.SynthConfig(
    n_channels=6, videos_per_channel=8, organic_commenters=15, seed=3))
documents = [wl.extract_document(ingest.build_co_commenter_graph(records, synth.channel_id(c)))
             for c in range(6)]
vocab = build_vocabulary(documents, min_count=2)
matrix = train_embeddings(documents, vocab, dim=32, epochs=3, seed=5)
sys.stdout.write(matrix.vectors.tobytes().hex())
"""


@pytest.mark.parametrize("script", [REDUCE_BYTES, TRAIN_BYTES], ids=["reduce", "train"])
def test_blas_threads_do_not_change_results(script):
    capped = run_python(script)
    threaded = run_python(script, OPENBLAS_NUM_THREADS="4")
    assert capped and capped == threaded


KERNEL_BYTES = """
import hashlib, json, os, pathlib, sys
import numpy as np
from mobgraph import ingest, synth, wl
from mobgraph.cluster import davies_bouldin
from mobgraph.embed import build_vocabulary, train_embeddings
from mobgraph.pipeline import PipelineConfig, run_pipeline, strip_timings

points = np.random.default_rng(7).normal(size=(30, 64))
davies = davies_bouldin(points, np.arange(30) % 3).hex()

records, _ = synth.generate_corpus(synth.SynthConfig(
    n_channels=6, videos_per_channel=8, organic_commenters=15, seed=3))
documents = [wl.extract_document(ingest.build_co_commenter_graph(records, synth.channel_id(c)))
             for c in range(6)]
vocab = build_vocabulary(documents, min_count=2)
matrix = train_embeddings(documents, vocab, dim=32, epochs=3, seed=5)

os.chdir(sys.argv[1])  # the report names its input and --out: the same relative paths
records, _ = synth.generate_corpus(synth.two_family_config(
    n_channels=12, videos_per_channel=10, organic_commenters=20, seed=0))
ingest.write_comments_csv(records, "comments.csv")
report = strip_timings(run_pipeline(PipelineConfig(
    input="comments.csv", out="run", min_count=2, umap_components=2)))
assert report["reduce_info"]["init"] == "spectral", report["reduce_info"]
run = pathlib.Path("run")
print(json.dumps({
    "davies_bouldin": davies,
    "train": matrix.vectors.tobytes().hex(),
    "report": report,
    **{str(p.relative_to(run)): hashlib.sha256(p.read_bytes()).hexdigest()
       for p in sorted(run.rglob("*")) if p.is_file() and p.name != "report.json"},
}))
"""

# OPENBLAS_CORETYPE kernels older than any current x86-64 runner's CPU, with
# the CPU flags each needs: a kernel the CPU cannot run faults.
KERNEL_FLAGS = {
    "Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}, "Nehalem": {"sse4_2"},
    "Prescott": {"pni"},
}


def _cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


@pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 OpenBLAS kernels")
def test_blas_kernel_does_not_change_results(tmp_path):
    # numpy's OpenBLAS picks a kernel for the CPU as it loads; the byte
    # path uses no BLAS call, so every kernel the CPU can run gives the same
    # embedding, Davies-Bouldin index, artifacts and report, spectral layout
    # init included.
    default_dir = tmp_path / "default"
    default_dir.mkdir()
    expected = json.loads(run_python(KERNEL_BYTES, str(default_dir)))
    flags = _cpu_flags()
    kernels = [name for name, needs in KERNEL_FLAGS.items() if needs <= flags]
    assert kernels
    for kernel in kernels:
        work = tmp_path / kernel
        work.mkdir()
        seen = json.loads(run_python(KERNEL_BYTES, str(work), OPENBLAS_CORETYPE=kernel))
        assert seen == expected, kernel
