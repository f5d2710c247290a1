"""The per-layer benchmark tracer (bench/trace.py) wraps package functions
by module attribute; every function it names must exist."""

import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def test_traced_functions_exist_and_are_callable():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.TRACED
    for module, attribute, *_ in trace.TRACED:
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"
