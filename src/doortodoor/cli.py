"""Command-line front door: dataset validation, the analysis subcommands and
deterministic GeoJSON/CSV export of every result surface.

Exit codes: 0 ok, 2 input/validation error, 3 computation error.  Errors are
one JSON object on stderr: ``error`` and ``message``, plus ``path`` and
``line`` when the error is traced to an input file.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import date, timedelta
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, get_args, get_type_hints

from . import aggregation, analytics, ingestion
from .errors import DoorToDoorError, FitUndefinedError, ValidationError
from .model import CLASSIFIABLE_PERIODS, DayPeriod, DwellProfile, dwell_fault, local_date_period

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


# The parser of a setting's text, as a flag or a config value, by the type of
# its RunConfig field (``T`` for ``Optional[T]``); it raises ValueError on a
# text it cannot parse.
PARSERS = {str: str, date: date.fromisoformat, float: float, int: int, bool: _parse_bool}


def _range_fault(name: str, value) -> Optional[str]:
    """The message that names setting ``name`` when ``value`` is out of its
    range: the one rule of each bounded setting, for its flag, its config key
    and a RunConfig built in Python alike."""
    if name == "format" and value not in FORMATS:
        return f"format: cannot parse {value!r}"
    if name in ("dep_proc_min", "arr_proc_min") and value is not None:
        return dwell_fault(name, value)
    if name == "jobs" and value < 1:
        return f"jobs: must be at least 1, got {value}"
    if name == "out_dir" and not value:
        return "out_dir: must not be empty"
    if name in PATH_SETTINGS and value and "\0" in value:  # open() rejects it
        return f"{name}: must not contain a NUL byte"
    return None


@dataclass
class RunConfig:
    """Resolved inputs and knobs for one engine run.  Each field is a
    setting: every subcommand has its flag (``--`` and the name with ``-``
    for ``_``) and a config file its key, both parsed by ``PARSERS``."""

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

    def __post_init__(self):
        # Each setting's range, then the settings that must go together, so
        # a config built in Python is held to the rules its flags are.
        for f in fields(self):
            fault = _range_fault(f.name, getattr(self, f.name))
            if fault:
                raise ValidationError(fault)
        if (self.from_date is not None and self.to_date is not None
                and self.from_date > self.to_date):
            raise ValidationError(f"empty date range {self.from_date}..{self.to_date}")
        if self.weekly_schedule and (self.from_date is None or self.to_date is None):
            raise ValidationError("--from-date/--to-date required with a weekly schedule")
        if (self.dep_proc_min is None) != (self.arr_proc_min is None):
            raise ValidationError("--dep-proc-min and --arr-proc-min go together")

    def air_dwell(self) -> Optional[DwellProfile]:
        """Every air station's processing times, when they are overridden."""
        if self.dep_proc_min is None:
            return None
        return DwellProfile(self.dep_proc_min, self.arr_proc_min)


# Each setting, a flag and a config key, and the parser of its text.
SETTINGS = {name: PARSERS[next(t for t in (*get_args(hint), hint) if t in PARSERS)]
            for name, hint in get_type_hints(RunConfig).items()}
# The settings that name a file or directory.  A relative one that a config
# file gives is read from the config file's directory; a flag's, from the
# working directory.
PATH_SETTINGS = ("ride_stats", "segments", "weekly_schedule", "stations", "zones", "out_dir")


def _read_config_file(path: str) -> Dict[str, object]:
    values = {}
    with ingestion.physical_lines(path) as lines:
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError("expected key=value", path=path, line=lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in SETTINGS:
                raise ValidationError(f"unknown config key {key!r}", path=path, line=lineno)
            try:
                values[key] = SETTINGS[key](value)
            except ValueError:
                raise ValidationError(f"{key}: cannot parse {value!r}",
                                      path=path, line=lineno) from None
            fault = _range_fault(key, values[key])
            if fault:
                raise ValidationError(fault, path=path, line=lineno)
            if key in PATH_SETTINGS and value:  # an absolute value is kept as it is
                values[key] = os.path.join(os.path.dirname(path), value)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file (if any) and command-line flags; flags win.  Values
    that do not go together cite the config file, unless the flags alone
    already do not."""
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    values = _read_config_file(config_path) if config_path else {}
    flags = {key: getattr(args, key) for key in SETTINGS
             if getattr(args, key, None) is not None}
    try:
        return RunConfig(**{**values, **flags})
    except ValidationError as exc:
        if not values:
            raise
        RunConfig(**flags)  # the flags' own fault is cited as theirs
        raise ValidationError(str(exc), path=config_path) from None


@dataclass
class LoadedInputs:
    stations: Dict[str, object]
    zones: ingestion.ZoneCollection
    rides: ingestion.RideStatIndex
    segments: List[object]


def load_inputs(config: RunConfig, *, need_segments: bool = True) -> LoadedInputs:
    for name in ("ride_stats", "stations", "zones"):
        if not getattr(config, name):  # unset, or set to ""
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
        segments.extend(ingestion.expand_weekly_schedule(
            config.weekly_schedule, stations, config.from_date, config.to_date,
            taken_ids=[s.segment_id for s in segments]))
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


def evaluate(config: RunConfig, inputs: LoadedInputs) -> aggregation.EvaluationReport:
    """Every trip from the origin zone to every zone, over the segments that
    depart inside the date range, under the configured processing times."""
    origin = _origin_zone(config, inputs)
    segments = [s for s in inputs.segments if _in_date_range(config, s)]
    return aggregation.evaluate_trips(
        segments, origin, list(inputs.zones), inputs.rides,
        air_dwell=config.air_dwell(),
    )


def run_pipeline(
    config: RunConfig, inputs: LoadedInputs,
) -> Dict[Tuple[str, DayPeriod], aggregation.ZonePeriodSummary]:
    """Per (zone, period) summaries of the trips ``evaluate`` gives."""
    # The trips go straight into the group-by, which reads them per segment
    # and builds no TripRecord, so the evaluation's per-segment store is
    # freed before ``summarize`` runs.
    return aggregation.summarize(aggregation.daily_zone_means(evaluate(config, inputs).trips))


# ---------------------------------------------------------------------------
# Export helpers (all outputs must be byte-deterministic)


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write: {exc.strerror}", path=str(path)) from None


# The one JSON encoding of the export, keys sorted and no spaces; one encoder
# serves every call (``json.dumps`` with options builds one per call).
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _geometry_json(zones: ingestion.ZoneCollection, fmt: str) -> Dict[str, str]:
    """Each zone's geometry, JSON-encoded once per command for every file that
    exports it; none when ``fmt`` writes no GeoJSON."""
    if fmt not in ("geojson", "both"):
        return {}
    return {zone.zone_id: _json(zones.geometries.get(zone.zone_id)) for zone in zones}


def _geojson_text(features: Iterable[Tuple[str, dict]]) -> str:
    """A FeatureCollection of (geometry JSON, properties) features, as
    ``_json`` encodes the whole document: keys sorted, no spaces."""
    return '{"features":[%s],"type":"FeatureCollection"}\n' % ",".join(
        '{"geometry":%s,"properties":%s,"type":"Feature"}' % (geometry, _json(properties))
        for geometry, properties in features)


# How each kind of value becomes a CSV cell, by its exact type: ``None`` is
# empty, a float has six decimals, a day period is its label, a tuple of ids
# is ``;``-joined, an int is its digits and a flag is ``0`` or ``1``.
_CELL = {
    str: str,
    float: lambda v: format(v, ".6f"),
    type(None): lambda v: "",
    DayPeriod: attrgetter("label"),
    tuple: ";".join,
    int: str,
    bool: lambda v: "1" if v else "0",
}


def _csv_text(header: List[str], rows: Iterable[Iterable[object]]) -> str:
    """CSV with LF line ends, quoting a cell only where it must; ``_CELL`` is
    the one place a value becomes a cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_CELL[type(v)](v) for v in row] for row in rows)
    return buf.getvalue()


def _records_csv(kind: type, records: Iterable[object]) -> str:
    """CSV of dataclass records of ``kind``, one column per field."""
    names = [f.name for f in fields(kind)]
    return _csv_text(names, map(attrgetter(*names), records))


# The summary properties after ``zone_id``, each with its value for a zone
# without data; a zone with data adds ``N_<mode>`` and ``R_<mode>`` to its
# GeoJSON properties, and the CSV puts ``period`` after ``zone_id``.
SUMMARY_COLUMNS = {"fastest_mode": None, "most_reliable_mode": None, "e_bar_min": None,
                   "interval_bin": None, "days_used": 0, "days_total": 0}


def _summary_properties(zone_id: str, summary: Optional[aggregation.ZonePeriodSummary]) -> dict:
    if summary is None:
        return {"zone_id": zone_id, **SUMMARY_COLUMNS}
    props = {"zone_id": zone_id}
    for name in SUMMARY_COLUMNS:
        props[name] = getattr(summary, name)
    props["e_bar_min"] = round(props["e_bar_min"], 6)
    for mode, n in summary.n_by_mode.items():
        props[f"N_{mode}"] = n
    for mode, n in summary.reliability_by_mode.items():
        props[f"R_{mode}"] = n
    return props


def export_summaries(
    summaries: Dict[Tuple[str, DayPeriod], aggregation.ZonePeriodSummary],
    zones: ingestion.ZoneCollection,
    geometries: Dict[str, str],
    out_dir: Path,
    stem: str,
    fmt: str,
) -> None:
    """Write one artifact per day period, ``<stem>_<period>.geojson`` and/or
    ``.csv`` as ``fmt`` asks, covering every zone of the input (zones without
    data carry ``SUMMARY_COLUMNS``' values); ``geometries`` is what
    ``_geometry_json`` gives for ``zones`` and ``fmt``.  Each CSV row is read
    off the properties of the zone's GeoJSON feature."""
    cells = itemgetter(*SUMMARY_COLUMNS)
    for period in CLASSIFIABLE_PERIODS:
        features = [
            (geometries.get(zone.zone_id),
             _summary_properties(zone.zone_id, summaries.get((zone.zone_id, period))))
            for zone in zones
        ]
        if fmt in ("geojson", "both"):
            _write_text(out_dir / f"{stem}_{period.label}.geojson", _geojson_text(features))
        if fmt in ("csv", "both"):
            _write_text(out_dir / f"{stem}_{period.label}.csv", _csv_text(
                ["zone_id", "period", *SUMMARY_COLUMNS],
                ((props["zone_id"], period, *cells(props)) for _, props in features),
            ))


def export_bins(summaries, out_dir: Path) -> None:
    """Write ``interval_counts.csv``: the zones in each (mode, period,
    interval band)."""
    counts = aggregation.bin_zone_counts(summaries)
    rows = [
        [mode, period, band, counts[(mode, period, band)]]
        for mode, period, band in sorted(
            counts, key=lambda k: (k[0], k[1].label, aggregation.INTERVAL_LABELS.index(k[2]))
        )
    ]
    _write_text(out_dir / "interval_counts.csv",
                _csv_text(["mode", "period", "interval", "zones"], rows))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config, need_segments=False)
    no_point = [z.zone_id for z in inputs.zones if z.internal_point is None]
    stats = len(inputs.rides)
    daily_fraction = inputs.rides.daily_count() / stats if stats else 0.0
    report = {
        "stations": len(inputs.stations),
        "zones": len(inputs.zones),
        "zones_without_internal_point": no_point,
        "ride_stats": stats,
        "ride_stats_daily_fraction": round(daily_fraction, 6),
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
    export_summaries(summaries, inputs.zones, _geometry_json(inputs.zones, config.format),
                     out, stem, config.format)
    if bins:
        export_bins(summaries, out)
    return EXIT_OK


def cmd_whatif(config: RunConfig, args: argparse.Namespace) -> int:
    if config.dep_proc_min is None:
        raise ValidationError("what-if needs --dep-proc-min and --arr-proc-min")
    inputs = load_inputs(config)
    baseline = run_pipeline(replace(config, dep_proc_min=None, arr_proc_min=None), inputs)
    override = run_pipeline(config, inputs)
    out = Path(config.out_dir)
    geometries = _geometry_json(inputs.zones, config.format)
    for name, summaries in (("baseline", baseline), ("override", override)):
        export_summaries(summaries, inputs.zones, geometries, out / name, "fastest",
                         config.format)
        export_bins(summaries, out / name)
    return EXIT_OK


def cmd_legs(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config)
    shares = analytics.leg_shares(evaluate(config, inputs).trips)
    _write_text(Path(config.out_dir) / "leg_shares.csv",
                _records_csv(analytics.LegShare, shares))
    return EXIT_OK


def cmd_integration(config: RunConfig, args: argparse.Namespace) -> int:
    if config.from_date is None or config.to_date is None:
        raise ValidationError("--from-date/--to-date required for integration fit")
    inputs = load_inputs(config, need_segments=False)
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
        except FitUndefinedError:
            continue
        rows.append([fit.station_id, fit.slope_min_per_km, fit.intercept_min,
                     fit.max_range_km, len(fit.samples)])
        for distance, ride_min in fit.samples:
            sample_rows.append([fit.station_id, distance, ride_min])
    if not rows:
        raise FitUndefinedError("no station has enough daily ride data for a fit")
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
    if config.weekly_schedule:
        # Weekly segments exist only on the dates they were expanded over.
        for flag, day in (("--date-a", args.date_a), ("--date-b", args.date_b)):
            if not config.from_date <= day <= config.to_date:
                raise ValidationError(f"{flag} {day} outside the weekly schedule's "
                                      f"date range {config.from_date}..{config.to_date}")

    summaries_a = run_pipeline(replace(config, from_date=args.date_a, to_date=args.date_a), inputs)
    summaries_b = run_pipeline(replace(config, from_date=args.date_b, to_date=args.date_b), inputs)
    deltas = analytics.weather_diff(summaries_a, summaries_b)
    out = Path(config.out_dir)
    _write_text(out / "weather_diff.csv", _records_csv(analytics.ZoneDelta, deltas))
    if config.format in ("geojson", "both"):
        by_zone = {zone.zone_id: {"zone_id": zone.zone_id, "disappeared": False}
                   for zone in inputs.zones}
        for d in deltas:
            props = by_zone[d.zone_id]
            props[f"delta_min_{d.period.label}"] = (
                None if d.delta_min is None else round(d.delta_min, 6))
            props["disappeared"] |= d.disappeared
        geometries = _geometry_json(inputs.zones, config.format)
        _write_text(out / "weather_diff.geojson", _geojson_text(
            (geometries[zone_id], props) for zone_id, props in by_zone.items()))
    return EXIT_OK


def cmd_delay(config: RunConfig, args: argparse.Namespace) -> int:
    inputs = load_inputs(config)
    matches = [s for s in inputs.segments if s.segment_id == args.segment_id]
    if not matches:
        raise ValidationError(f"segment {args.segment_id!r} not found")
    result = analytics.delay_sensitivity(
        matches[0], inputs.rides, inputs.zones,
        air_dwell=config.air_dwell(),
    )
    _write_text(Path(config.out_dir) / "delay_sensitivity.csv",
                _records_csv(analytics.DelaySensitivity, [result]))
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

    def subcommand(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        for key, parse in SETTINGS.items():
            flag = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=parse)
        # SUPPRESS so a --config before the subcommand is not clobbered
        p.add_argument("--config", dest="config", default=argparse.SUPPRESS)
        return p

    parsers = {name: subcommand(name, help=text) for name, (_, text) in COMMANDS.items()}
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
