"""Parsers, validators and indexes for the four input datasets.

Canonical file formats:

- ``ride_stats.csv``: ``origin_zone,dest_zone,date,period,mean_s,min_s,max_s``
  with period codes 0 (daily aggregate) and 1..5 (early morning .. late
  evening), dates ISO-8601.
- ``segments.csv``: ``segment_id,mode_id,dep_station,arr_station,sched_dep,``
  ``actual_dep,sched_arr,actual_arr,cancelled`` with local ISO timestamps
  (timezone taken from the station table), in whole seconds.
- ``weekly_schedule.csv``: ``mode_id,dep_station,arr_station,days,dep_time,``
  ``arr_time`` where days is a 7-char Mo..Su mask of 0/1.
- ``stations.csv``: ``station_id,kind,zone_id,lat,lon,tz,t_sec_dep_min,t_arr_min``
  (the two dwell columns may be empty to use the built-in defaults).
- ``zones.geojson``: FeatureCollection whose features carry ``zone_id`` and
  optionally ``internal_point`` ([lon, lat]) and ``population_density``.

Each segment time is converted once, here, to epoch seconds, both from
``segments.csv`` and from weekly expansion.  A naive local time is zoned by
the station table (departure times by the departure station, arrival times
by the arrival station).  A local time that falls in a DST gap or occurs
twice in a DST overlap is read with ``fold=0``, i.e. with the UTC offset in
force before the change (PEP 495).  A ``segments.csv`` row whose times then
no longer run forward (arrival not after departure) is rejected with
``path:line:``; an expanded weekly row, with its segment id and the
``path:line:`` of its weekly row.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ValidationError
from .model import (
    CODE_BY_PERIOD,
    PERIOD_BY_CODE,
    DayPeriod,
    DwellProfile,
    ScheduledSegment,
    Station,
    Zone,
    ZoneRideStat,
)

log = logging.getLogger(__name__)

# Average airport dwell minutes (departure, arrival), plus the flat rail values.
DEFAULT_STATION_DWELL: Dict[str, DwellProfile] = {
    "ATL": DwellProfile(110, 60),
    "BOS": DwellProfile(105, 40),
    "DCA": DwellProfile(100, 35),
    "LAX": DwellProfile(125, 65),
    "SEA": DwellProfile(105, 50),
    "SFO": DwellProfile(105, 45),
    "AMS": DwellProfile(90, 45),
    "CDG": DwellProfile(90, 45),
    "ORY": DwellProfile(90, 45),
}
DEFAULT_RAIL_DWELL = DwellProfile(15, 10)
DEFAULT_AIR_DWELL = DwellProfile(90, 45)


def resolve_dwell(station: Station, overrides: Optional[Dict[str, DwellProfile]] = None) -> DwellProfile:
    """Dwell profile for a station: per-kind override > per-station config >
    built-in airport table > kind default."""
    if overrides and station.kind in overrides:
        return overrides[station.kind]
    if station.dwell is not None:
        return station.dwell
    if station.station_id in DEFAULT_STATION_DWELL:
        return DEFAULT_STATION_DWELL[station.station_id]
    return DEFAULT_RAIL_DWELL if station.kind == "rail" else DEFAULT_AIR_DWELL


class RideStatIndex:
    """Keyed ride-stat lookup with automatic daily-aggregate fallback."""

    def __init__(self, stats: Iterable[ZoneRideStat] = ()):
        self._by_key: Dict[tuple, ZoneRideStat] = {}
        for stat in stats:
            self.add(stat)

    def add(self, stat: ZoneRideStat) -> None:
        if stat.key in self._by_key:
            raise ValidationError(f"duplicate ride stat key {stat.key}")
        self._by_key[stat.key] = stat

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self):
        return iter(sorted(self._by_key.values(), key=lambda s: (
            s.origin_zone_id, s.dest_zone_id, s.date, CODE_BY_PERIOD[s.period])))

    def get_exact(self, origin, dest, when, period) -> Optional[ZoneRideStat]:
        return self._by_key.get((origin, dest, when, period))

    def lookup(self, origin, dest, when, period) -> Optional[ZoneRideStat]:
        """Period-level record when present, else the daily aggregate (whose
        ``period`` is ``DAILY_ONLY``), else None."""
        stat = self._by_key.get((origin, dest, when, period))
        if stat is not None:
            return stat
        return self._by_key.get((origin, dest, when, DayPeriod.DAILY_ONLY))

    def daily_fraction(self) -> float:
        """Share of records that are daily-only aggregates."""
        if not self._by_key:
            return 0.0
        daily = sum(1 for s in self._by_key.values() if s.period is DayPeriod.DAILY_ONLY)
        return daily / len(self._by_key)


RIDE_STATS_HEADER = "origin_zone,dest_zone,date,period,mean_s,min_s,max_s"


def _open_rows(path, expected_header: str):
    path = Path(path)
    if not path.exists():
        raise ValidationError("file not found", path=str(path))
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != expected_header:
        raise ValidationError(
            f"header must be exactly {expected_header!r}", path=str(path), line=1
        )
    reader = csv.reader(lines[1:])
    return path, reader


def _parse_int(value: str, what: str, path, line) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{what}: not an integer: {value!r}", path=path, line=line)


def _parse_float(value, what: str, path, line=None) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what}: not a number: {value!r}", path=path, line=line)


def _parse_date(value: str, path, line) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise ValidationError(f"bad date {value!r}", path=path, line=line)


def load_ride_stats(path) -> RideStatIndex:
    """Parse and index the zone-pair ride statistics file."""
    path, reader = _open_rows(path, RIDE_STATS_HEADER)
    index = RideStatIndex()
    loaded = 0
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 7:
            raise ValidationError(f"expected 7 fields, got {len(row)}", path=str(path), line=lineno)
        origin, dest, date_s, period_s, mean_s, min_s, max_s = row
        code = _parse_int(period_s, "period", str(path), lineno)
        if code not in PERIOD_BY_CODE:
            raise ValidationError(f"period code {code} not in 0..5", path=str(path), line=lineno)
        try:
            stat = ZoneRideStat(
                origin_zone_id=origin,
                dest_zone_id=dest,
                date=_parse_date(date_s, str(path), lineno),
                period=PERIOD_BY_CODE[code],
                mean_s=_parse_int(mean_s, "mean_s", str(path), lineno),
                min_s=_parse_int(min_s, "min_s", str(path), lineno),
                max_s=_parse_int(max_s, "max_s", str(path), lineno),
            )
            index.add(stat)
        except ValidationError as exc:
            if exc.line is not None:
                raise
            raise ValidationError(str(exc), path=str(path), line=lineno)
        loaded += 1
    log.info("loaded %d ride stats from %s", loaded, path)
    return index


def dump_ride_stats(index: RideStatIndex) -> str:
    """Canonical serialization; inverse of load_ride_stats for canonical files."""
    lines = [RIDE_STATS_HEADER]
    for stat in index:
        lines.append(
            f"{stat.origin_zone_id},{stat.dest_zone_id},{stat.date.isoformat()},"
            f"{CODE_BY_PERIOD[stat.period]},{stat.mean_s},{stat.min_s},{stat.max_s}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WeeklyScheduleRow:
    """One recurring weekly movement (Tables-style row)."""

    mode_id: str
    dep_station_id: str
    arr_station_id: str
    days: Tuple[bool, ...]  # Mo..Su
    dep_time: time
    arr_time: time
    # Source of the row, cited by expansion errors; set by load_weekly_schedule.
    path: Optional[str] = field(default=None, compare=False)
    line: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.days) != 7:
            raise ValidationError("day mask must have 7 entries")
        if not any(self.days):
            raise ValidationError(
                f"schedule row {self.mode_id} {self.dep_time}: no weekday set"
            )

    @property
    def overnight(self) -> bool:
        return self.arr_time < self.dep_time


WEEKLY_HEADER = "mode_id,dep_station,arr_station,days,dep_time,arr_time"


def _parse_hhmm(value: str, path, line) -> time:
    try:
        hh, mm = value.split(":")
        return time(int(hh), int(mm))
    except Exception:
        raise ValidationError(f"bad HH:MM time {value!r}", path=path, line=line)


def load_weekly_schedule(path) -> List[WeeklyScheduleRow]:
    path, reader = _open_rows(path, WEEKLY_HEADER)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ValidationError(f"expected 6 fields, got {len(row)}", path=str(path), line=lineno)
        mode_id, dep_st, arr_st, days, dep_t, arr_t = row
        if len(days) != 7 or set(days) - {"0", "1"}:
            raise ValidationError(f"days mask must be 7 chars of 0/1, got {days!r}",
                                  path=str(path), line=lineno)
        try:
            rows.append(
                WeeklyScheduleRow(
                    mode_id=mode_id,
                    dep_station_id=dep_st,
                    arr_station_id=arr_st,
                    days=tuple(c == "1" for c in days),
                    dep_time=_parse_hhmm(dep_t, str(path), lineno),
                    arr_time=_parse_hhmm(arr_t, str(path), lineno),
                    path=str(path),
                    line=lineno,
                )
            )
        except ValidationError as exc:
            if exc.line is not None:
                raise
            raise ValidationError(str(exc), path=str(path), line=lineno)
    return rows


def expand_weekly_schedule(
    rows: List[WeeklyScheduleRow],
    stations: Dict[str, Station],
    start: date,
    end: date,
) -> List[ScheduledSegment]:
    """Materialize weekly rows into dated segments over [start, end].

    Times are read in each station's own timezone and kept as epoch seconds;
    actual times are set to the scheduled ones (on-time assumption).  Rows
    whose arrival clock time precedes the departure roll the arrival to the
    next date.
    """
    if end < start:
        raise ValidationError(f"empty date range {start}..{end}")
    segments = []
    for row in rows:
        try:
            dep_station = stations[row.dep_station_id]
            arr_station = stations[row.arr_station_id]
        except KeyError as exc:
            raise ValidationError(f"unknown station {exc.args[0]!r} in weekly schedule",
                                  path=row.path, line=row.line)
        day = start
        while day <= end:
            if row.days[day.weekday()]:
                sched_dep = int(datetime.combine(
                    day, row.dep_time, tzinfo=dep_station.tzinfo).timestamp())
                arr_day = day + timedelta(days=1) if row.overnight else day
                sched_arr = int(datetime.combine(
                    arr_day, row.arr_time, tzinfo=arr_station.tzinfo).timestamp())
                segment_id = (
                    f"{row.mode_id}_{day.isoformat()}_"
                    f"{row.dep_time.hour:02d}{row.dep_time.minute:02d}"
                )
                try:
                    segments.append(
                        ScheduledSegment(
                            segment_id=segment_id,
                            mode_id=row.mode_id,
                            dep_station=dep_station,
                            arr_station=arr_station,
                            sched_dep=sched_dep,
                            sched_arr=sched_arr,
                            actual_dep=sched_dep,
                            actual_arr=sched_arr,
                            cancelled=False,
                        )
                    )
                except ValidationError as exc:
                    raise ValidationError(str(exc), path=row.path, line=row.line) from None
            day += timedelta(days=1)
    return segments


STATIONS_HEADER = "station_id,kind,zone_id,lat,lon,tz,t_sec_dep_min,t_arr_min"


def load_stations(path) -> Dict[str, Station]:
    path, reader = _open_rows(path, STATIONS_HEADER)
    stations: Dict[str, Station] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 8:
            raise ValidationError(f"expected 8 fields, got {len(row)}", path=str(path), line=lineno)
        station_id, kind, zone_id, lat, lon, tz, dep_min, arr_min = row
        if station_id in stations:
            raise ValidationError(f"duplicate station {station_id}", path=str(path), line=lineno)
        if bool(dep_min) != bool(arr_min):
            raise ValidationError(
                "dwell override needs both t_sec_dep_min and t_arr_min",
                path=str(path), line=lineno,
            )
        try:
            dwell = None
            if dep_min:
                dwell = DwellProfile(
                    _parse_float(dep_min, "t_sec_dep_min", str(path), lineno),
                    _parse_float(arr_min, "t_arr_min", str(path), lineno),
                )
            stations[station_id] = Station(
                station_id=station_id,
                kind=kind,
                zone_id=zone_id,
                lat=_parse_float(lat, "lat", str(path), lineno),
                lon=_parse_float(lon, "lon", str(path), lineno),
                tz=tz,
                dwell=dwell,
            )
        except ValidationError as exc:
            if exc.line is not None:
                raise
            raise ValidationError(str(exc), path=str(path), line=lineno)
    return stations


SEGMENTS_HEADER = (
    "segment_id,mode_id,dep_station,arr_station,"
    "sched_dep,actual_dep,sched_arr,actual_arr,cancelled"
)


def _parse_local_ts(value: str, tz, path, line) -> int:
    """Epoch seconds of an ISO timestamp; a naive one is local time in ``tz``."""
    try:
        moment = datetime.fromisoformat(value)
    except ValueError:
        raise ValidationError(f"bad timestamp {value!r}", path=path, line=line)
    if moment.microsecond:
        raise ValidationError(f"sub-second timestamp {value!r} unsupported",
                              path=path, line=line)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=tz)
    return int(moment.timestamp())


def load_segments_actuals(
    path,
    stations: Dict[str, Station],
    *,
    allow_missing_actuals: bool = False,
) -> List[ScheduledSegment]:
    """Parse dated segments with actual times (flight-record style file).

    Cancelled rows are retained but flagged; they are excluded from all trip
    computation downstream.  Non-cancelled rows must carry actual times
    unless ``allow_missing_actuals`` (on-time mode) is set.
    """
    path, reader = _open_rows(path, SEGMENTS_HEADER)
    segments = []
    seen = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 9:
            raise ValidationError(f"expected 9 fields, got {len(row)}", path=str(path), line=lineno)
        (seg_id, mode_id, dep_st, arr_st,
         sched_dep, actual_dep, sched_arr, actual_arr, cancelled_s) = row
        if seg_id in seen:
            raise ValidationError(f"duplicate segment_id {seg_id}", path=str(path), line=lineno)
        seen.add(seg_id)
        if cancelled_s not in ("0", "1"):
            raise ValidationError(f"cancelled must be 0|1, got {cancelled_s!r}",
                                  path=str(path), line=lineno)
        cancelled = cancelled_s == "1"
        try:
            dep_station = stations[dep_st]
            arr_station = stations[arr_st]
        except KeyError as exc:
            raise ValidationError(f"unknown station {exc.args[0]!r}", path=str(path), line=lineno)
        dep_tz, arr_tz = dep_station.tzinfo, arr_station.tzinfo
        if not cancelled and not allow_missing_actuals and not (actual_dep and actual_arr):
            raise ValidationError(
                "actual times required on a non-cancelled row", path=str(path), line=lineno
            )
        try:
            segments.append(
                ScheduledSegment(
                    segment_id=seg_id,
                    mode_id=mode_id,
                    dep_station=dep_station,
                    arr_station=arr_station,
                    sched_dep=_parse_local_ts(sched_dep, dep_tz, str(path), lineno),
                    sched_arr=_parse_local_ts(sched_arr, arr_tz, str(path), lineno),
                    actual_dep=_parse_local_ts(actual_dep, dep_tz, str(path), lineno)
                    if actual_dep else None,
                    actual_arr=_parse_local_ts(actual_arr, arr_tz, str(path), lineno)
                    if actual_arr else None,
                    cancelled=cancelled,
                )
            )
        except ValidationError as exc:
            if exc.line is not None:
                raise
            raise ValidationError(str(exc), path=str(path), line=lineno)
    return segments


@dataclass
class ZoneCollection:
    """Zones plus their GeoJSON geometries (kept verbatim for re-export)."""

    zones: Dict[str, Zone] = field(default_factory=dict)
    geometries: Dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter(sorted(self.zones.values(), key=lambda z: z.zone_id))

    def __len__(self):
        return len(self.zones)

    def __getitem__(self, zone_id: str) -> Zone:
        return self.zones[zone_id]

    def __contains__(self, zone_id: str) -> bool:
        return zone_id in self.zones


def load_zones(path) -> ZoneCollection:
    """Parse the zones FeatureCollection."""
    path = Path(path)
    if not path.exists():
        raise ValidationError("file not found", path=str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}", path=str(path))
    if doc.get("type") != "FeatureCollection" or "features" not in doc:
        raise ValidationError("expected a GeoJSON FeatureCollection", path=str(path))
    collection = ZoneCollection()
    for feature in doc["features"]:
        props = feature.get("properties") or {}
        zone_id = props.get("zone_id")
        if not zone_id:
            raise ValidationError("feature without zone_id property", path=str(path))
        if zone_id in collection.zones:
            raise ValidationError(f"duplicate zone_id {zone_id}", path=str(path))
        internal = props.get("internal_point")
        point = None
        if internal is not None:
            if not (isinstance(internal, (list, tuple)) and len(internal) == 2):
                raise ValidationError(
                    f"zone {zone_id}: internal_point must be [lon, lat]", path=str(path)
                )
            lon, lat = internal
            point = (_parse_float(lat, f"zone {zone_id}: internal_point latitude", str(path)),
                     _parse_float(lon, f"zone {zone_id}: internal_point longitude", str(path)))
        else:
            log.warning("zone %s has no internal_point; distance analytics skip it", zone_id)
        density = props.get("population_density")
        if density is not None and not isinstance(density, (int, float)):
            raise ValidationError(
                f"zone {zone_id}: population_density must be a number, got {density!r}",
                path=str(path),
            )
        try:
            collection.zones[zone_id] = Zone(
                zone_id=zone_id, internal_point=point, population_density=density
            )
        except ValidationError as exc:
            raise ValidationError(str(exc), path=str(path)) from None
        collection.geometries[zone_id] = feature.get("geometry")
    return collection


def dump_zones(collection: ZoneCollection) -> str:
    """Canonical zones serialization; inverse of load_zones for canonical files."""
    features = []
    for zone in collection:
        props = {"zone_id": zone.zone_id}
        if zone.internal_point is not None:
            lat, lon = zone.internal_point
            props["internal_point"] = [lon, lat]
        if zone.population_density is not None:
            props["population_density"] = zone.population_density
        features.append({
            "type": "Feature",
            "properties": props,
            "geometry": collection.geometries.get(zone.zone_id),
        })
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
