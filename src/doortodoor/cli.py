"""Command-line front door: dataset validation, the analysis subcommands and
deterministic GeoJSON/CSV export of every result surface.

Exit codes: 0 ok, 2 input/validation error, 3 computation error.  Errors are
one JSON object on stderr: ``error`` and ``message``, plus ``path`` and
``line`` when the error is traced to an input file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import date, timedelta
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

from . import aggregation, analytics, ingestion
from .errors import DoorToDoorError, ValidationError
from .model import CLASSIFIABLE_PERIODS, DwellProfile, local_date_period

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_COMPUTE_ERROR = 3

CONFIG_ENV_VAR = "D2D_CONFIG"

FORMATS = ("geojson", "csv", "both")
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(value: str) -> bool:
    """``1``/``true``/``yes`` or ``0``/``false``/``no``, in any case."""
    try:
        return BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError(value) from None


def _parse_format(value: str) -> str:
    if value not in FORMATS:
        raise ValueError(value)
    return value


# Parsers of the config-file values; a parser raises ValueError on a value it
# rejects.  The other values stay strings.
CONFIG_PARSERS = {
    "from_date": date.fromisoformat,
    "to_date": date.fromisoformat,
    "on_time_mode": _parse_bool,
    "dep_proc_min": float,
    "arr_proc_min": float,
    "format": _parse_format,
    "jobs": int,
}


@dataclass
class RunConfig:
    """Resolved inputs and knobs for one engine run."""

    ride_stats: Optional[str] = None
    segments: Optional[str] = None
    weekly_schedule: Optional[str] = None
    stations: Optional[str] = None
    zones: Optional[str] = None
    from_date: Optional[date] = None
    to_date: Optional[date] = None
    on_time_mode: bool = False
    dep_proc_min: Optional[float] = None
    arr_proc_min: Optional[float] = None
    out_dir: str = "out"
    format: str = "both"  # geojson | csv | both
    origin_zone: Optional[str] = None
    jobs: int = 1  # accepted for compatibility; evaluation is single-process

    def dwell_overrides(self) -> Optional[Dict[str, DwellProfile]]:
        """Per-kind override of airport processing times, when requested."""
        if self.dep_proc_min is None and self.arr_proc_min is None:
            return None
        if self.dep_proc_min is None or self.arr_proc_min is None:
            raise ValidationError("--dep-proc-min and --arr-proc-min go together")
        return {"air": DwellProfile(self.dep_proc_min, self.arr_proc_min)}


# The config-file keys and the flags that override them: every RunConfig field.
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _read_config_file(path: str) -> Dict[str, object]:
    values = {}
    for lineno, line in enumerate(ingestion.physical_lines(ingestion.read_text(path)), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError("expected key=value", path=path, line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ValidationError(f"unknown config key {key!r}", path=path, line=lineno)
        try:
            values[key] = CONFIG_PARSERS.get(key, str)(value)
        except ValueError:
            raise ValidationError(f"{key}: cannot parse {value!r}",
                                  path=path, line=lineno) from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file (if any) and command-line flags; flags win."""
    config = RunConfig()
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        for key, value in _read_config_file(config_path).items():
            setattr(config, key, value)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            setattr(config, key, value)
    return config


@dataclass
class LoadedInputs:
    stations: Dict[str, object]
    zones: ingestion.ZoneCollection
    rides: ingestion.RideStatIndex
    segments: List[object] = field(default_factory=list)


def load_inputs(config: RunConfig, *, need_segments: bool = True) -> LoadedInputs:
    for name in ("ride_stats", "stations", "zones"):
        if getattr(config, name) is None:
            raise ValidationError(f"missing required input: --{name.replace('_', '-')}")
    stations = ingestion.load_stations(config.stations)
    zones = ingestion.load_zones(config.zones)
    rides = ingestion.load_ride_stats(config.ride_stats)
    segments = []
    if config.segments:
        segments.extend(
            ingestion.load_segments_actuals(
                config.segments, stations,
                assume_on_time=config.on_time_mode,
            )
        )
    if config.weekly_schedule:
        if config.from_date is None or config.to_date is None:
            raise ValidationError("--from-date/--to-date required with a weekly schedule")
        rows = ingestion.load_weekly_schedule(config.weekly_schedule)
        segments.extend(
            ingestion.expand_weekly_schedule(rows, stations, config.from_date, config.to_date,
                                             taken_ids=[s.segment_id for s in segments])
        )
    if need_segments and not segments:
        raise ValidationError("no segments: provide --segments and/or --weekly-schedule")
    return LoadedInputs(stations=stations, zones=zones, rides=rides, segments=segments)


def _in_date_range(config: RunConfig, segment) -> bool:
    if config.from_date is None and config.to_date is None:
        return True
    day, _ = local_date_period(segment.sched_dep, segment.dep_station.tzinfo)
    if config.from_date is not None and day < config.from_date:
        return False
    if config.to_date is not None and day > config.to_date:
        return False
    return True


def _origin_zone(config: RunConfig, inputs: LoadedInputs):
    if config.origin_zone is None:
        raise ValidationError("missing --origin-zone")
    if config.origin_zone not in inputs.zones:
        raise ValidationError(f"origin zone {config.origin_zone!r} not in zones file")
    return inputs.zones[config.origin_zone]


def evaluate(config: RunConfig, inputs: LoadedInputs,
             dwell_overrides=None) -> aggregation.EvaluationReport:
    """Every trip from the origin zone to every zone, over the segments that
    depart inside the configured date range."""
    origin = _origin_zone(config, inputs)
    segments = [s for s in inputs.segments if _in_date_range(config, s)]
    return aggregation.evaluate_trips(
        segments, origin, list(inputs.zones), inputs.rides,
        dwell_overrides=dwell_overrides,
    )


def run_pipeline(config: RunConfig, inputs: LoadedInputs,
                 dwell_overrides=None) -> List[aggregation.ZonePeriodSummary]:
    """Per (zone, period) summaries of the trips ``evaluate`` gives."""
    trips = evaluate(config, inputs, dwell_overrides).trips
    return aggregation.summarize(aggregation.daily_zone_means(trips))


# ---------------------------------------------------------------------------
# Export helpers (all outputs must be byte-deterministic)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _geojson_bytes(features: List[dict]) -> str:
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_text(header: List[str], rows: List[List[object]]) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return format(v, ".6f")
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _summary_properties(summary: aggregation.ZonePeriodSummary) -> dict:
    props = {
        "zone_id": summary.zone_id,
        "fastest_mode": summary.fastest_mode,
        "most_reliable_mode": summary.most_reliable_mode,
        "e_bar_min": round(summary.e_bar_min, 6),
        "interval_bin": summary.interval_bin,
        "days_used": summary.days_used,
        "days_total": summary.days_total,
    }
    for mode, n in summary.n_by_mode.items():
        props[f"N_{mode}"] = n
    for mode, n in summary.reliability_by_mode.items():
        props[f"R_{mode}"] = n
    return props


def export_summaries(
    summaries: List[aggregation.ZonePeriodSummary],
    zones: ingestion.ZoneCollection,
    out_dir: Path,
    stem: str,
    fmt: str,
) -> List[Path]:
    """One artifact per day period, covering every zone of the input (zones
    without data carry null properties)."""
    by_key = {(s.zone_id, s.period): s for s in summaries}
    written = []
    for period in CLASSIFIABLE_PERIODS:
        features, rows = [], []
        for zone in zones:
            summary = by_key.get((zone.zone_id, period))
            props = _summary_properties(summary) if summary else {
                "zone_id": zone.zone_id, "fastest_mode": None,
                "most_reliable_mode": None, "e_bar_min": None,
                "interval_bin": None, "days_used": 0, "days_total": 0,
            }
            features.append({
                "type": "Feature",
                "properties": props,
                "geometry": zones.geometries.get(zone.zone_id),
            })
            rows.append([
                zone.zone_id, period.label, props["fastest_mode"],
                props["most_reliable_mode"], props["e_bar_min"],
                props["interval_bin"], props["days_used"], props["days_total"],
            ])
        if fmt in ("geojson", "both"):
            path = out_dir / f"{stem}_{period.label}.geojson"
            _write_text(path, _geojson_bytes(features))
            written.append(path)
        if fmt in ("csv", "both"):
            path = out_dir / f"{stem}_{period.label}.csv"
            _write_text(path, _csv_text(
                ["zone_id", "period", "fastest_mode", "most_reliable_mode",
                 "e_bar_min", "interval_bin", "days_used", "days_total"],
                rows,
            ))
            written.append(path)
    return written


def export_bins(summaries, out_dir: Path) -> Path:
    counts = aggregation.bin_zone_counts(summaries)
    rows = [
        [mode, period.label, band, counts[(mode, period, band)]]
        for mode, period, band in sorted(
            counts, key=lambda k: (k[0], k[1].label, aggregation.INTERVAL_LABELS.index(k[2]))
        )
    ]
    path = out_dir / "interval_counts.csv"
    _write_text(path, _csv_text(["mode", "period", "interval", "zones"], rows))
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config, need_segments=False)
    no_point = [z.zone_id for z in inputs.zones if z.internal_point is None]
    report = {
        "stations": len(inputs.stations),
        "zones": len(inputs.zones),
        "zones_without_internal_point": no_point,
        "ride_stats": len(inputs.rides),
        "ride_stats_daily_fraction": round(inputs.rides.daily_fraction(), 6),
        "segments": len(inputs.segments),
        "cancelled_segments": sum(1 for s in inputs.segments if s.cancelled),
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_summaries(config: RunConfig, args: argparse.Namespace, *,
                  stem: str, bins: bool) -> int:
    """Summary files named after ``stem``, plus the interval bins if ``bins``."""
    inputs = load_inputs(config)
    summaries = run_pipeline(config, inputs)
    out = Path(config.out_dir)
    export_summaries(summaries, inputs.zones, out, stem, config.format)
    if bins:
        export_bins(summaries, out)
    return EXIT_OK


def cmd_whatif(config: RunConfig, args: argparse.Namespace) -> int:
    overrides = config.dwell_overrides()
    if overrides is None:
        raise ValidationError("what-if needs --dep-proc-min and --arr-proc-min")
    inputs = load_inputs(config)
    baseline = run_pipeline(config, inputs)
    override = run_pipeline(config, inputs, dwell_overrides=overrides)
    out = Path(config.out_dir)
    export_summaries(baseline, inputs.zones, out / "baseline", "fastest", config.format)
    export_bins(baseline, out / "baseline")
    export_summaries(override, inputs.zones, out / "override", "fastest", config.format)
    export_bins(override, out / "override")
    return EXIT_OK


def cmd_legs(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config)
    shares = analytics.leg_shares(evaluate(config, inputs).trips)
    rows = [
        [s.city_pair, s.pct_to, s.pct_dep, s.pct_in, s.pct_arr, s.pct_from, s.n_trips]
        for s in shares
    ]
    _write_text(Path(config.out_dir) / "leg_shares.csv", _csv_text(
        ["city_pair", "pct_to", "pct_dep", "pct_in", "pct_arr", "pct_from", "n_trips"],
        rows,
    ))
    return EXIT_OK


def cmd_integration(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config, need_segments=False)
    if config.from_date is None or config.to_date is None:
        raise ValidationError("--from-date/--to-date required for integration fit")
    dates = []
    day = config.from_date
    while day <= config.to_date:
        dates.append(day)
        day += timedelta(days=1)
    rows = []
    sample_rows = []
    for station_id in sorted(inputs.stations):
        station = inputs.stations[station_id]
        if station.kind != "air":
            continue
        try:
            fit = analytics.airport_integration(station, inputs.rides, inputs.zones, dates)
        except DoorToDoorError:
            continue
        rows.append([fit.station_id, fit.slope_min_per_km, fit.intercept_min,
                     fit.max_range_km, len(fit.samples)])
        for distance, ride_min in fit.samples:
            sample_rows.append([fit.station_id, distance, ride_min])
    if not rows:
        raise ValidationError("no station has enough daily ride data for a fit")
    out = Path(config.out_dir)
    _write_text(out / "integration.csv", _csv_text(
        ["station_id", "slope_min_per_km", "intercept_min", "max_range_km", "n_zones"],
        rows,
    ))
    _write_text(out / "integration_samples.csv", _csv_text(
        ["station_id", "distance_km", "mean_daily_ride_min"], sample_rows,
    ))
    return EXIT_OK


def cmd_weather_diff(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config)

    def summaries_for(day: date):
        result = run_pipeline(replace(config, from_date=day, to_date=day), inputs)
        return {(s.zone_id, s.period): s for s in result}

    deltas = analytics.weather_diff(summaries_for(args.date_a), summaries_for(args.date_b))
    rows = [
        [d.zone_id, d.period.label, d.e_bar_a_min, d.e_bar_b_min, d.delta_min,
         int(d.disappeared)]
        for d in deltas
    ]
    out = Path(config.out_dir)
    _write_text(out / "weather_diff.csv", _csv_text(
        ["zone_id", "period", "e_bar_a_min", "e_bar_b_min", "delta_min", "disappeared"],
        rows,
    ))
    if config.format in ("geojson", "both"):
        by_zone = {}
        for d in deltas:
            by_zone.setdefault(d.zone_id, {"zone_id": d.zone_id, "disappeared": False})
            by_zone[d.zone_id][f"delta_min_{d.period.label}"] = (
                None if d.delta_min is None else round(d.delta_min, 6))
            by_zone[d.zone_id]["disappeared"] |= d.disappeared
        features = [
            {"type": "Feature", "properties": by_zone.get(
                zone.zone_id, {"zone_id": zone.zone_id, "disappeared": False}),
             "geometry": inputs.zones.geometries.get(zone.zone_id)}
            for zone in inputs.zones
        ]
        _write_text(out / "weather_diff.geojson", _geojson_bytes(features))
    return EXIT_OK


def cmd_delay(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config)
    matches = [s for s in inputs.segments if s.segment_id == args.segment_id]
    if not matches:
        raise ValidationError(f"segment {args.segment_id!r} not found")
    result = analytics.delay_sensitivity(
        matches[0], inputs.rides, inputs.zones,
        dwell_overrides=config.dwell_overrides(),
    )
    _write_text(Path(config.out_dir) / "delay_sensitivity.csv", _csv_text(
        ["segment_id", "scheduled_egress_period", "actual_egress_period",
         "weighted_mean_delta_s", "max_of_max_delta_s", "zones_used", "zones_excluded"],
        [[result.segment_id, result.scheduled_egress_period.label,
          result.actual_egress_period.label, result.weighted_mean_delta_s,
          result.max_of_max_delta_s, ";".join(result.zones_used),
          ";".join(result.zones_excluded)]],
    ))
    return EXIT_OK


# ---------------------------------------------------------------------------

# Subcommand name -> (handler, help).
COMMANDS = {
    "validate": (cmd_validate, "parse and validate all inputs"),
    "fastest": (partial(cmd_summaries, stem="fastest", bins=False),
                "fastest mode per zone and period"),
    "fastest-time": (partial(cmd_summaries, stem="fastest_time", bins=True),
                     "fastest average time per zone and period"),
    "reliability": (partial(cmd_summaries, stem="reliability", bins=False),
                    "most reliable mode per zone and period"),
    "whatif": (cmd_whatif, "recompute under faster processing times"),
    "legs": (cmd_legs, "per-phase time shares per city pair"),
    "integration": (cmd_integration, "airport road-integration regression"),
    "weather-diff": (cmd_weather_diff, "before/after comparison of two dates"),
    "delay": (cmd_delay, "passenger delay sensitivity of one segment"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a malformed command line as a ValidationError, so it is reported
    like every other input error (one JSON object, exit 2)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="d2d",
        description="Door-to-door multimodal travel time analytics engine.",
    )
    parser.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--ride-stats", dest="ride_stats")
        p.add_argument("--segments", dest="segments")
        p.add_argument("--weekly-schedule", dest="weekly_schedule")
        p.add_argument("--stations", dest="stations")
        p.add_argument("--zones", dest="zones")
        p.add_argument("--from-date", dest="from_date", type=date.fromisoformat)
        p.add_argument("--to-date", dest="to_date", type=date.fromisoformat)
        p.add_argument("--on-time-mode", dest="on_time_mode", action="store_true",
                       default=None)
        p.add_argument("--dep-proc-min", dest="dep_proc_min", type=float)
        p.add_argument("--arr-proc-min", dest="arr_proc_min", type=float)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--format", dest="format", choices=FORMATS)
        p.add_argument("--origin-zone", dest="origin_zone")
        p.add_argument("--jobs", dest="jobs", type=int,
                       help="accepted for compatibility; evaluation is single-process")
        # SUPPRESS so a --config before the subcommand is not clobbered
        p.add_argument("--config", dest="config", default=argparse.SUPPRESS)
        return p

    parsers = {name: add(name, help=text) for name, (_, text) in COMMANDS.items()}
    p = parsers["weather-diff"]
    p.add_argument("--date-a", dest="date_a", type=date.fromisoformat, required=True)
    p.add_argument("--date-b", dest="date_b", type=date.fromisoformat, required=True)
    parsers["delay"].add_argument("--segment-id", dest="segment_id", required=True)
    return parser


def main(argv=None) -> int:
    # The engine builds millions of acyclic records and then exits: the
    # cyclic collector would rescan them at every full collection and free
    # nothing.  It is paused for the run and left as it was found.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        handler, _ = COMMANDS[args.command]
        return handler(build_config(args), args)
    except DoorToDoorError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        for key in ("path", "line"):
            if getattr(exc, key, None) is not None:
                error[key] = getattr(exc, key)
        print(json.dumps(error), file=sys.stderr)
        return EXIT_INPUT_ERROR if isinstance(exc, ValidationError) else EXIT_COMPUTE_ERROR
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
