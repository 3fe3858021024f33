"""The benchmark's tracer wraps mobgraph functions by module and name, and its
counters read their arguments by name, so a rename or removal in mobgraph
breaks `perfbench/run.py --trace 1`. These checks load perfbench/tracing.py
as it is and hold mobgraph to what it names."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def counted_argument_names() -> dict[str, list[str]]:
    """Each COUNTERS key mapped to the argument names its counter reads: every
    x["name"] in its expression and in the tracing functions it calls."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (counters,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["COUNTERS"]]
    names = {}
    for key, value in zip(counters.keys, counters.values):
        called = [functions[node.func.id] for node in ast.walk(value)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions]
        names[key.value] = sorted({
            node.slice.value for part in (value, *called) for node in ast.walk(part)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)})
    return names


COUNTED = counted_argument_names()


@pytest.mark.parametrize("module_name, name", sorted(tracing.TRACED))
def test_traced_name_is_a_callable_module_attribute(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


@pytest.mark.parametrize("counted", sorted(COUNTED))
def test_counter_reads_parameters_of_the_function_it_counts(counted):
    functions = [getattr(importlib.import_module(module_name), name)
                 for module_name, name in tracing.TRACED if name == counted]
    assert functions, f"no traced function is named {counted}"
    for fn in functions:
        assert fn.__name__ == counted  # the tracer finds a counter by __name__
        assert set(COUNTED[counted]) <= set(inspect.signature(fn).parameters)


def test_every_counter_is_read_from_the_source():
    assert COUNTED.keys() == tracing.COUNTERS.keys()
