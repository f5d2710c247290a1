"""Traced run of one d2d command.

Wraps the public functions of each layer that the CLI calls with spans,
runs ``doortodoor.cli.main`` in this process with the given arguments and,
once it returns, writes the spans as JSON.  Counts are taken from the same
calls' arguments and results.  The program itself is not modified: the
wrappers replace module attributes, which is how the CLI looks them up.

Usage: python3 bench/trace.py SPANS_JSON D2D_ARGS...
"""

from __future__ import annotations

import json
import sys
import time

from doortodoor import aggregation, analytics, cli, ingestion


def _evaluate_counts(args, report):
    segments, dest_zones = args[0], args[2]
    cancelled = sum(1 for _, _, reason in report.skipped if reason == "cancelled")
    return {
        "attempts": len(segments) * len(dest_zones),
        "trips": len(report.trips),
        "skipped_cancelled": cancelled * len(dest_zones),
        "skipped_no_ride": len(report.skipped) - cancelled,
        "fallback_to": sum(t.used_daily_fallback_to for t in report.trips),
        "fallback_from": sum(t.used_daily_fallback_from for t in report.trips),
    }


# (module, attribute, span name, counts taken from (args, result))
TRACED = (
    (ingestion, "load_ride_stats", "ingestion.load_ride_stats",
     lambda args, r: {"rows": len(r)}),
    (ingestion, "load_zones", "ingestion.load_zones", lambda args, r: {"features": len(r)}),
    (ingestion, "load_segments_actuals", "ingestion.load_segments_actuals",
     lambda args, r: {"rows": len(r)}),
    (ingestion, "expand_weekly_schedule", "ingestion.expand_weekly_schedule",
     lambda args, r: {"segments": len(r)}),
    (aggregation, "evaluate_trips", "aggregation.evaluate_trips", _evaluate_counts),
    (aggregation, "daily_zone_means", "aggregation.daily_zone_means",
     lambda args, r: {"cells": len(r)}),
    (aggregation, "summarize", "aggregation.summarize", lambda args, r: {"summaries": len(r)}),
    (analytics, "leg_shares", "analytics.leg_shares",
     lambda args, r: {"trips": len(args[0]), "city_pairs": len(r)}),
    (analytics, "weather_diff", "analytics.weather_diff",
     lambda args, r: {"deltas": len(r), "disappeared": sum(d.disappeared for d in r)}),
    (cli, "export_summaries", "cli.export_summaries", None),
    (cli, "export_bins", "cli.export_bins", None),
)


class Tracer:
    """Spans kept in memory: name, start (seconds since the tracer was made),
    duration, parent span index and counts.

    ``own_s`` is the time spent taking counts, outside every span, so the
    caller can leave it out of the program's own time.
    """

    def __init__(self):
        self.spans = []
        self.own_s = 0.0
        self._open = []
        self._origin = time.perf_counter()

    def wrap(self, module, attribute, name, counts):
        inner = getattr(module, attribute)

        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span["start"] = start - self._origin
                span["s"] = time.perf_counter() - start
                self._open.pop()
            if counts is not None:
                start = time.perf_counter()
                span["counts"] = counts(args, result)
                self.own_s += time.perf_counter() - start
            return result

        setattr(module, attribute, traced)


def main(argv) -> int:
    spans_path, d2d_args = argv[0], argv[1:]
    tracer = Tracer()
    for entry in TRACED:
        tracer.wrap(*entry)
    code = cli.main(d2d_args)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "own_s": tracer.own_s}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
