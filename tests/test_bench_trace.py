"""The per-layer benchmark tracer (bench/trace.py) wraps package functions
by module attribute; every function it names must exist, and the CLI must
call it through that attribute."""

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


def test_whatif_runs_each_group_by_stage_once_per_pipeline(monkeypatch, tmp_path):
    """The tracer's group-by spans wrap these module attributes; a pipeline
    that bypassed them would leave those spans empty."""
    calls = {"daily_zone_means": 0, "summarize": 0}
    traced = {attribute for module, attribute, *_ in load_trace().TRACED
              if module is aggregation}
    assert set(calls) <= traced

    def counting(name):
        inner = getattr(aggregation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(aggregation, name, counting(name))
    monkeypatch.chdir(ROOT)  # run.conf paths are relative to the repository
    assert cli.main(["--config", "tests/fixtures/golden/run.conf", "whatif",
                     "--dep-proc-min", "60", "--arr-proc-min", "30",
                     "--out-dir", str(tmp_path)]) == 0
    assert calls == {"daily_zone_means": 2, "summarize": 2}
