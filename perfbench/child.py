"""One measured mobgraph process, started by run.py with src/ on PYTHONPATH.

    python3 perfbench/child.py RESULT TRACE pipeline INPUT FORMAT OUT THREADS
    python3 perfbench/child.py RESULT TRACE cli SUBCOMMAND ARGS...

`pipeline` calls run_pipeline; `cli` runs one subcommand the way
`python -m mobgraph.cli` would. RESULT receives {"import_s"} and, for
`pipeline`, {"wall_s", "cpu_s"} of the run_pipeline call alone, CPU
including reaped child processes. Unless TRACE is "-", layer spans are
recorded and written to that path when the process ends.
"""

import time

_started = time.perf_counter()
import mobgraph.cli  # noqa: E402  (timed: the import every invocation pays)

_imported = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    result_path, trace_path, mode, *rest = argv
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.span("cli.import", "cli", _started, _imported)
        tracer.install()
    result = {"import_s": _imported - _started}
    if mode == "pipeline":
        source, fmt, out, threads = rest
        config = mobgraph.pipeline.resolve_config(overrides={
            "input": source, "format": fmt, "out": out, "threads": int(threads),
        })
        cpu0 = _cpu()
        start = time.perf_counter()
        mobgraph.pipeline.run_pipeline(config)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = _cpu() - cpu0
        code = 0
    else:
        code = mobgraph.cli.main(rest)
    if tracer is not None:
        tracer.write(trace_path)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
