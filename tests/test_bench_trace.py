"""The per-layer benchmark tracer (bench/trace.py) wraps package functions
by module attribute; every function it names must exist."""

import importlib.util
from pathlib import Path

from doortodoor import aggregation, cli

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "bench" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


def test_traced_functions_exist_and_are_callable():
    trace = load_trace()
    assert trace.TRACED
    for module, attribute, *_ in trace.TRACED:
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"


def test_evaluate_counts_on_the_golden_run(monkeypatch):
    """The tracer's trip counts, taken from a real evaluation of the golden
    configuration (23 segments, one cancelled, times 7 zones)."""
    trace = load_trace()
    counts = []
    evaluate_trips = aggregation.evaluate_trips

    def counting(*args, **kwargs):
        report = evaluate_trips(*args, **kwargs)
        counts.append(trace._evaluate_counts(args, report))
        return report

    monkeypatch.setattr(aggregation, "evaluate_trips", counting)
    monkeypatch.chdir(ROOT)  # run.conf paths are relative to the repository
    args = cli.build_parser().parse_args(
        ["--config", "tests/fixtures/golden/run.conf", "legs"])
    config = cli.build_config(args)
    cli.evaluate(config, cli.load_inputs(config))
    assert counts == [{
        "attempts": 161, "trips": 85, "skipped_cancelled": 7,
        "skipped_no_ride": 69, "fallback_to": 0, "fallback_from": 0,
    }]
