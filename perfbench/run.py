"""mobgraph benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload census_dense --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Prints the run's facts, each metric with its unit, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Every
repetition's outputs are checked against reference.py; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracing import layer_self_times, self_intervals, self_time
from workloads import CLIQUE_MIN_SIZE, WORKLOADS, commands, corpus, write_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # the corpus generator is mobgraph.synth
CHILD = str(HERE / "child.py")
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Rep:
    """One repetition of a workload: every process it started, in order."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    process_s: dict[str, float] = field(default_factory=dict)
    import_s: list[float] = field(default_factory=list)
    stdout: dict[str, str] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], stdout_path: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, CPU s, peak RSS MB).

    CPU and peak RSS come from wait4, so they include the process's own
    reaped children. A process still running after PROCESS_TIMEOUT_S is killed.
    """
    with open(stdout_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=_environment(), cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _artifact_digest(out: Path, stdout: dict[str, str]) -> str:
    """Hash of every artifact (report timings removed) and every stdout."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("timings", None)
            data = json.dumps(report, sort_keys=True).encode()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
    for label in sorted(stdout):
        digest.update(label.encode() + b"\0" + stdout[label].encode() + b"\0")
    return digest.hexdigest()


def program_answer(workload, out: Path, stdout: dict[str, str]):
    """(per-channel clique counts, ranking) as the program wrote them."""
    if workload.mode == "pipeline":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        counts = {c: int(n) for c, n in report["cliques"]["counts"].items()}
        ranking = [(row[0], int(row[2])) for row in report["ranking"]["overall"]]
        return counts, ranking
    lines = (out / "cliques.csv").read_text(encoding="utf-8").splitlines()[1:]
    counts = {}
    for line in lines:
        channel, _cluster, _min_size, count = line.split(",")
        counts[channel] = int(count)
    # `mobgraph cliques` prints the ranking: "  <channel>: <count> maximal cliques ..."
    ranking = []
    for line in stdout["cliques"].splitlines():
        if line.startswith("  ") and ": " in line:
            channel, rest = line.strip().split(": ", 1)
            ranking.append((channel, int(rest.split()[0])))
    return counts, ranking


def check(workload, out: Path, stdout: dict[str, str], expected) -> list[str]:
    """Problems with one repetition's outputs; empty when they are right."""
    try:
        counts, ranking = program_answer(workload, out, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {exc!r}"]
    problems = [
        f"{channel}: {counts.get(channel)} cliques, expected {want}"
        for channel, want in sorted(expected.counts.items())
        if counts.get(channel) != want
    ]
    problems += [f"{channel}: not in the corpus" for channel in counts
                 if channel not in expected.counts]
    if ranking != expected.ranking():
        problems.append("ranking is not the expected counts sorted descending")
    return problems


def _load_spans(path: Path, parent: int | None, offset: int) -> list[list]:
    spans = json.loads(path.read_text(encoding="utf-8"))
    for span in spans:
        span[0] += offset
        span[1] = parent if span[1] is None else span[1] + offset
    return spans


def run_rep(workload, work: Path, source: str, traced: bool) -> Rep:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = work / "child.json"
    trace = work / "trace" if traced else None
    rep = Rep()
    plan = commands(workload, CHILD, source, str(out), str(result),
                    str(trace) if trace else None)
    next_id = 1
    for label, argv in plan:
        start = time.perf_counter()
        code, wall, cpu, rss = spawn(argv, work / "stdout.txt")
        rep.stdout[label] = (work / "stdout.txt").read_text(encoding="utf-8")
        if code != 0:
            rep.problems.append(f"{label} exited {code}: {rep.stdout[label][-2000:]}")
            return rep
        rep.process_s[label] = wall
        rep.wall_s += wall
        rep.cpu_s += cpu
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        child = json.loads(result.read_text(encoding="utf-8"))
        rep.import_s.append(child["import_s"])
        if workload.mode == "pipeline":
            rep.wall_s, rep.cpu_s = child["wall_s"], child["cpu_s"]
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            rep.timings = report["timings"]
        if traced:
            parent = None
            if workload.mode == "stagewise":
                parent = next_id
                rep.spans.append([parent, None, f"cli.{label}", "cli",
                                  start, start + wall, cpu, {}])
            spans = _load_spans(Path(f"{trace}.{label}"), parent, next_id)
            rep.spans += spans
            next_id = max(s[0] for s in rep.spans) + 1
    return rep


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quartiles(values) -> tuple[float, float]:
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout;
    "unknown" where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def facts(workload, seed: int, expected) -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "missing"

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mobgraph").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "git_sha": git_sha(),
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "corpus": {
            "comments": expected.comments,
            "channels": len(expected.counts),
            "edges": expected.edges,
            "maximal_cliques": expected.maximal_cliques,
            f"cliques_ge_{CLIQUE_MIN_SIZE}": sum(expected.counts.values()),
        },
    }


def end_to_end(reps: list[Rep], comments: int) -> dict:
    wall = _median(r.wall_s for r in reps)
    return {
        "wall_s": wall,
        "comments_per_s": comments / wall if wall else 0.0,
        "cpu_s": _median(r.cpu_s for r in reps),
        "peak_rss_mb": _median(r.peak_rss_mb for r in reps),
        "setup_s": _median(t for r in reps for t in r.import_s),
    }


def stage_seconds(workload, reps: list[Rep]) -> dict[str, float]:
    """Median seconds of each step of a repetition: the report.json stage
    timings (and the rest of wall_s) for run_pipeline, the process wall time
    of each subcommand for stagewise_jsonl."""
    if not reps:
        return {}
    if workload.mode == "pipeline":
        steps = {name: [r.timings[name] for r in reps] for name in reps[0].timings}
        steps["overhead"] = [r.wall_s - sum(r.timings.values()) for r in reps]
    else:
        steps = {name: [r.process_s[name] for r in reps] for name in reps[0].process_s}
    return {name: _median(values) for name, values in steps.items()}


def per_layer(reps: list[Rep], traced: Rep, attempted: int, failed: int) -> dict:
    spans = traced.spans
    own = self_intervals(spans)

    def busy(*names: str, layer: str | None = None) -> float:
        return self_time(spans, own, lambda s: s[2] in names or s[3] == layer)

    def total(name: str, key: str) -> int:
        return sum(s[7].get(key, 0) for s in spans if s[2] == name)

    census = busy("cliques.clique_census")
    channel_cpu = [s[6] for s in spans if s[2] == "cliques.clique_census"]
    enumerated = total("cliques.clique_census", "enumerated")
    tokens = total("embed.train_embeddings", "tokens")
    untraced_wall = _median(r.wall_s for r in reps)
    metrics = {
        "failed_frac": failed / attempted,
        "ingest.parse_s": busy("ingest.parse_comments"),
        "ingest.records": total("ingest.parse_comments", "records"),
        "ingest.graph_build_s": busy("ingest.build_co_commenter_graph"),
        "ingest.edges": total("ingest.build_co_commenter_graph", "edges"),
        "gexf.write_s": busy("gexf.write_gexf"),
        "gexf.bytes": total("gexf.write_gexf", "bytes"),
        "wl.extract_s": busy("wl.extract_document"),
        "wl.tokens": total("wl.extract_document", "tokens"),
        "embed.train_s": busy("embed.train_embeddings"),
        "embed.updates": total("embed.train_embeddings", "updates"),
        "embed.kept_frac": total("embed.train_embeddings", "kept") / tokens if tokens else 0.0,
        "reduce.neighbors_s": busy("reduce.knn_exact", "reduce.smooth_knn",
                                   "reduce.fuzzy_union"),
        "reduce.curve_fit_s": busy("reduce.fit_curve_params"),
        "reduce.layout_s": busy("reduce.optimize_layout"),
        "reduce.layout_edges": total("reduce.optimize_layout", "edges"),
        "cluster.compute_s": busy(layer="cluster"),
        "cliques.census_s": census,
        "cliques.channel_p50_s": _median(channel_cpu),
        "cliques.channel_max_s": max(channel_cpu, default=0.0),
        "cliques.enumerated": enumerated,
        "cliques.counted": total("cliques.clique_census", "counted"),
        "cliques.per_s": enumerated / census if census else 0.0,
    }
    metrics["cli.import_s"] = sum(s[5] - s[4] for s in spans if s[2] == "cli.import")
    metrics["cli.self_s"] = busy(layer="cli")
    metrics["trace.overhead_frac"] = traced.wall_s / untraced_wall - 1.0 if untraced_wall else 0.0
    return metrics


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json
    declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path,
                 expected=None) -> dict:
    """Generate, check and measure one workload; returns the printed record."""
    import reference

    source = work / f"comments.{workload.suffix}"
    write_corpus(corpus(workload, seed), str(source), workload.format)
    if expected is None:
        expected = reference.expected(str(source), workload.format, CLIQUE_MIN_SIZE)
    record = {"facts": facts(workload, seed, expected)}

    reps: list[Rep] = []
    attempted = failed = 0
    first_digest = None
    traced = None

    def attempt(traced_rep: bool) -> Rep:
        nonlocal attempted, failed, first_digest
        rep = run_rep(workload, work, str(source), traced_rep)
        attempted += 1
        if not rep.problems:
            rep.problems = check(workload, work / "out", rep.stdout, expected)
        if not rep.problems:
            digest = _artifact_digest(work / "out", rep.stdout)
            first_digest = first_digest or digest
            if digest != first_digest:
                rep.problems.append("artifacts differ from the first repetition")
        if rep.problems:
            failed += 1
            print(f"# repetition {attempted} failed: {rep.problems[:5]}", file=sys.stderr)
        return rep

    start = time.perf_counter()
    if trace:
        traced = attempt(True)
    durations = []
    while True:
        began = time.perf_counter()
        rep = attempt(False)
        if not rep.problems:
            reps.append(rep)
        durations.append(time.perf_counter() - began)
        # Stop before a repetition that would overrun the measuring time.
        if time.perf_counter() - start + _median(durations) > seconds:
            break
    record["facts"]["loadavg_end"] = list(os.getloadavg())
    walls = [r.wall_s for r in reps]
    q1, q3 = _quartiles(walls)
    record["wall_s_samples"] = {"n": len(walls), "median": _median(walls),
                                "q1": q1, "q3": q3}
    record["stage_s"] = stage_seconds(workload, reps)
    if trace:
        metrics = per_layer(reps, traced, attempted, failed)
        record["layer_self_s"] = layer_self_times(traced.spans)
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{workload.name}-seed{seed}.json", "w", encoding="utf-8") as f:
            json.dump({"facts": record["facts"], "layer_self_s": record["layer_self_s"],
                       "spans": traced.spans}, f)
    else:
        metrics = end_to_end(reps, expected.comments)
    declared = units("per_layer" if trace else "end_to_end")
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and the work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (ROOT / "src" / "mobgraph" / "cli.py").is_file():
            raise BenchError(f"no mobgraph source under {ROOT / 'src'}")
        try:
            import networkx  # noqa: F401  (the reference check needs it)
        except ImportError as exc:
            raise BenchError(f"the output check needs networkx: {exc}") from None
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# facts " + json.dumps(record["facts"], sort_keys=True))
    samples = record["wall_s_samples"]
    print(f"# wall_s n={samples['n']} median={samples['median']:.4f} "
          f"q1={samples['q1']:.4f} q3={samples['q3']:.4f}")
    for step, seconds in record["stage_s"].items():
        print(f"# stage {step:<10} {seconds:9.4f} s")
    for layer, seconds in sorted(record.get("layer_self_s", {}).items(),
                                 key=lambda item: -item[1]):
        print(f"# self {layer:<10} {seconds:9.4f} s")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
