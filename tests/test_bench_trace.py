"""The per-layer benchmark tracer (bench/trace.py) wraps package functions
by module attribute; every function it names must exist, and the CLI must
call it through that attribute."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from doortodoor import aggregation, cli

from conftest import assert_trees_identical, tree

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


# The spans of a golden run that loads every input: 7 zones, 170 ride rows,
# 2 dated segments and 21 expanded from the weekly schedule.
LOAD_SPANS = [
    ("ingestion.load_zones", {"features": 7}),
    ("ingestion.load_ride_stats", {"rows": 170}),
    ("ingestion.load_segments_actuals", {"rows": 2}),
    ("ingestion.expand_weekly_schedule", {"segments": 21}),
]
GOLDEN_EVALUATION = ("aggregation.evaluate_trips", {
    "attempts": 161, "trips": 85, "skipped_cancelled": 7,
    "skipped_no_ride": 69, "fallback_to": 0, "fallback_from": 0,
})


def one_day_evaluation(trips):
    return ("aggregation.evaluate_trips", {
        "attempts": 21, "trips": trips, "skipped_cancelled": 0,
        "skipped_no_ride": 21 - trips, "fallback_to": 0, "fallback_from": 0,
    })


@pytest.mark.parametrize("argv, spans", [
    (["whatif", "--dep-proc-min", "60", "--arr-proc-min", "30"], LOAD_SPANS + [
        GOLDEN_EVALUATION,
        ("aggregation.daily_zone_means", {"cells": 85}),
        ("aggregation.summarize", {"summaries": 16}),
        GOLDEN_EVALUATION,
        ("aggregation.daily_zone_means", {"cells": 81}),
        ("aggregation.summarize", {"summaries": 12}),
        ("cli.export_summaries", None), ("cli.export_bins", None),
        ("cli.export_summaries", None), ("cli.export_bins", None),
    ]),
    (["legs"], LOAD_SPANS + [
        GOLDEN_EVALUATION,
        ("analytics.leg_shares", {"trips": 85, "city_pairs": 2}),
    ]),
    (["weather-diff", "--date-a", "2018-01-02", "--date-b", "2018-01-05"], LOAD_SPANS + [
        one_day_evaluation(12),
        ("aggregation.daily_zone_means", {"cells": 12}),
        ("aggregation.summarize", {"summaries": 12}),
        one_day_evaluation(9),
        ("aggregation.daily_zone_means", {"cells": 9}),
        ("aggregation.summarize", {"summaries": 9}),
        ("analytics.weather_diff", {"deltas": 12, "disappeared": 3}),
    ]),
], ids=["whatif", "legs", "weather-diff"])
def test_traced_golden_run_counts_every_span(tmp_path, monkeypatch, argv, spans):
    """``bench/trace.py`` run as the benchmark runs it: a counter that no
    longer fits what its function returns fails or miscounts here, and one
    that uses up what the program reads next changes the output tree, which
    must equal an untraced run's byte for byte."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(TRACE), str(spans_path),
                    "--config", "tests/fixtures/golden/run.conf", *argv,
                    "--out-dir", str(tmp_path / "traced")],
                   cwd=ROOT, env=env, check=True)
    traced = json.loads(spans_path.read_text())["spans"]
    assert [(span["name"], span["parent"], span.get("counts")) for span in traced] == [
        (name, None, counts) for name, counts in spans]
    monkeypatch.chdir(ROOT)  # run.conf paths are relative to the repository
    assert cli.main(["--config", "tests/fixtures/golden/run.conf", *argv,
                     "--out-dir", str(tmp_path / "untraced")]) == 0
    assert tree(tmp_path / "traced")
    assert_trees_identical(tmp_path / "traced", tmp_path / "untraced")
