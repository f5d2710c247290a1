r"""Parsers, validators and indexes for the four input datasets.

Canonical file formats:

- ``ride_stats.csv``: ``origin_zone,dest_zone,date,period,mean_s,min_s,max_s``
  with period codes 0 (daily aggregate) and 1..5 (early morning .. late
  evening), dates ISO-8601.
- ``segments.csv``: ``segment_id,mode_id,dep_station,arr_station,sched_dep,``
  ``actual_dep,sched_arr,actual_arr,cancelled`` with local ISO timestamps
  (timezone taken from the station table), in whole seconds.  A
  non-cancelled row needs both actual times, except in on-time mode, which
  reads a missing one as the scheduled time.
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

Line numbers are physical lines: line N is the text after the (N-1)-th
``\n``, in every CSV input and in the config file.  A ``\r\n`` line end is
accepted; no other character (``\r`` alone, ``\x0c``, ``\x85``, ...) ends a
line.  A field may not span lines: a quoted field holding a line break is
rejected, citing the line its row starts on (every exporter writes ids into
unquoted CSV, so no output holds one).  Segment ids are unique across
``segments.csv`` and the weekly expansion; a repeated id is rejected with the
``path:line:`` of the row that repeats it.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

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
    check_ride_stat,
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


def _duplicate_key(key) -> ValidationError:
    """The error for a repeated ride-stat key, in the file's own spelling."""
    origin, dest, day, period = key
    return ValidationError(
        f"duplicate ride stat key {origin},{dest},{day},{CODE_BY_PERIOD[period]}")


class RideStatIndex:
    """Keyed ride-stat lookup with automatic daily-aggregate fallback."""

    def __init__(self, stats: Iterable[ZoneRideStat] = ()):
        self._by_key: Dict[tuple, ZoneRideStat] = {}
        for stat in stats:
            self.add(stat)

    def add(self, stat: ZoneRideStat) -> None:
        check_ride_stat(stat)
        key = stat.key
        if key in self._by_key:
            raise _duplicate_key(key)
        self._by_key[key] = stat

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self):
        return iter(self._by_key.values())

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


def read_text(path) -> str:
    """The text of a UTF-8 input file; a file that cannot be read, or a byte
    that is not UTF-8 (cited by its line), is a ValidationError."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8")
    except FileNotFoundError:
        raise ValidationError("file not found", path=str(path)) from None
    except OSError as exc:
        raise ValidationError(f"cannot read: {exc.strerror}", path=str(path)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8: byte 0x{data[exc.start]:02x}", path=str(path),
                              line=data.count(b"\n", 0, exc.start) + 1) from None


def physical_lines(text: str) -> List[str]:
    r"""``text`` split on ``\n`` only, so that item N-1 is line N as every error
    cites it; a ``\r\n`` line end reads as ``\n``."""
    return text.replace("\r\n", "\n").split("\n")


def _load_rows(path, header: str, parse_row: Callable[[List[str], int], None]) -> None:
    """Check the exact ``header`` of a CSV input, then call ``parse_row(row,
    line)`` on each non-blank row, which must be as wide as the header.
    ``line`` is the physical line the row starts on; a ValidationError raised
    by ``parse_row`` (without a path) or a malformed row is re-raised citing
    ``path:line:``."""
    path = str(path)
    # Popped from the end, so each line is freed once csv has copied its fields.
    lines = physical_lines(read_text(path))
    lines.append(None)
    lines.reverse()
    if lines.pop() != header:
        raise ValidationError(f"header must be exactly {header!r}", path=path, line=1)
    width = header.count(",") + 1
    reader = csv.reader(iter(lines.pop, None))
    line = 2
    try:
        for row in reader:
            end = reader.line_num + 1  # the physical line the row ends on
            if end != line:
                raise ValidationError("malformed CSV: line break inside a quoted field")
            if row:
                if len(row) != width:
                    raise ValidationError(f"expected {width} fields, got {len(row)}")
                parse_row(row, line)
            line = end + 1
    except csv.Error as exc:
        # Lines are split here, so csv's hint about universal-newline mode is cut.
        reason = str(exc).partition(" - ")[0]
        raise ValidationError(f"malformed CSV: {reason}", path=path, line=line) from None
    except ValidationError as exc:
        raise ValidationError(str(exc), path=path, line=line) from None


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{what}: not an integer: {value!r}") from None


def _parse_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what}: not a number: {value!r}") from None


def _parse_date(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise ValidationError(f"bad date {value!r}") from None


class _Memo(dict):
    """``memo[text]`` is ``parse(text)``, computed on the first sight of each
    distinct ``text``; an exception from ``parse`` stores nothing."""

    __slots__ = ("parse",)

    def __init__(self, parse: Callable[[str], object]):
        self.parse = parse

    def __missing__(self, text: str):
        value = self[text] = self.parse(text)
        return value


def _parse_period(value: str) -> DayPeriod:
    code = _parse_int(value, "period")
    if code not in PERIOD_BY_CODE:
        raise ValidationError(f"period code {code} not in 0..5")
    return PERIOD_BY_CODE[code]


def load_ride_stats(path) -> RideStatIndex:
    """Parse and index the zone-pair ride statistics file.

    A row is checked in this order: period, date, ``mean_s``, ``min_s``,
    ``max_s``, then ``0 < min <= mean <= max``, then the key's uniqueness.
    Each distinct period, date and integer text is parsed once per load, and
    equal zone ids and values share one object."""
    index = RideStatIndex()
    by_key = index._by_key
    periods, dates = _Memo(_parse_period), _Memo(_parse_date)
    ints, zone_ids = _Memo(int), _Memo(str)
    new = tuple.__new__  # builds a ZoneRideStat in C, not via its Python __new__

    def parse_row(row, line):
        origin, dest, date_s, period_s, mean_s, min_s, max_s = row
        period = periods[period_s]
        day = dates[date_s]
        try:
            mean, low, high = ints[mean_s], ints[min_s], ints[max_s]
        except ValueError:
            mean = _parse_int(mean_s, "mean_s")
            low = _parse_int(min_s, "min_s")
            high = _parse_int(max_s, "max_s")
        origin, dest = zone_ids[origin], zone_ids[dest]
        stat = new(ZoneRideStat, (origin, dest, day, period, mean, low, high))
        if not 0 < low <= mean <= high:
            check_ride_stat(stat)
        key = (origin, dest, day, period)
        if key in by_key:
            raise _duplicate_key(key)
        by_key[key] = stat

    _load_rows(path, RIDE_STATS_HEADER, parse_row)
    log.info("loaded %d ride stats from %s", len(index), path)
    return index


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


def _parse_hhmm(value: str) -> time:
    try:
        hh, mm = value.split(":")
        return time(int(hh), int(mm))
    except (ValueError, OverflowError):
        raise ValidationError(f"bad HH:MM time {value!r}") from None


def load_weekly_schedule(path) -> List[WeeklyScheduleRow]:
    rows = []

    def parse_row(row, line):
        mode_id, dep_st, arr_st, days, dep_t, arr_t = row
        if len(days) != 7 or set(days) - {"0", "1"}:
            raise ValidationError(f"days mask must be 7 chars of 0/1, got {days!r}")
        rows.append(
            WeeklyScheduleRow(
                mode_id=mode_id,
                dep_station_id=dep_st,
                arr_station_id=arr_st,
                days=tuple(c == "1" for c in days),
                dep_time=_parse_hhmm(dep_t),
                arr_time=_parse_hhmm(arr_t),
                path=str(path),
                line=line,
            )
        )

    _load_rows(path, WEEKLY_HEADER, parse_row)
    return rows


def expand_weekly_schedule(
    rows: List[WeeklyScheduleRow],
    stations: Dict[str, Station],
    start: date,
    end: date,
    taken_ids: Iterable[str] = (),
) -> List[ScheduledSegment]:
    """Materialize weekly rows into dated segments over [start, end].

    Times are read in each station's own timezone and kept as epoch seconds;
    actual times are set to the scheduled ones (on-time assumption).  Rows
    whose arrival clock time precedes the departure roll the arrival to the
    next date.  A segment id that another expanded row, or ``taken_ids``
    (the ids of ``segments.csv``), already holds is rejected.
    """
    if end < start:
        raise ValidationError(f"empty date range {start}..{end}")
    segments = []
    taken = set(taken_ids)
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
                segment_id = f"{row.mode_id}_{day.isoformat()}_{row.dep_time:%H%M}"
                try:
                    if segment_id in taken:
                        raise ValidationError(f"duplicate segment_id {segment_id}")
                    taken.add(segment_id)
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
    stations: Dict[str, Station] = {}

    def parse_row(row, line):
        station_id, kind, zone_id, lat, lon, tz, dep_min, arr_min = row
        if station_id in stations:
            raise ValidationError(f"duplicate station {station_id}")
        if bool(dep_min) != bool(arr_min):
            raise ValidationError("dwell override needs both t_sec_dep_min and t_arr_min")
        dwell = None
        if dep_min:
            dwell = DwellProfile(
                _parse_float(dep_min, "t_sec_dep_min"),
                _parse_float(arr_min, "t_arr_min"),
            )
        stations[station_id] = Station(
            station_id=station_id,
            kind=kind,
            zone_id=zone_id,
            lat=_parse_float(lat, "lat"),
            lon=_parse_float(lon, "lon"),
            tz=tz,
            dwell=dwell,
        )

    _load_rows(path, STATIONS_HEADER, parse_row)
    return stations


SEGMENTS_HEADER = (
    "segment_id,mode_id,dep_station,arr_station,"
    "sched_dep,actual_dep,sched_arr,actual_arr,cancelled"
)


def _parse_local_ts(value: str, tz) -> int:
    """Epoch seconds of an ISO timestamp; a naive one is local time in ``tz``."""
    try:
        moment = datetime.fromisoformat(value)
    except ValueError:
        raise ValidationError(f"bad timestamp {value!r}") from None
    if moment.microsecond:
        raise ValidationError(f"sub-second timestamp {value!r} unsupported")
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=tz)
    return int(moment.timestamp())


def load_segments_actuals(
    path,
    stations: Dict[str, Station],
    *,
    assume_on_time: bool = False,
) -> List[ScheduledSegment]:
    """Parse dated segments with actual times (flight-record style file).

    Cancelled rows are retained but flagged; they are excluded from all trip
    computation downstream.  Non-cancelled rows must carry both actual times;
    with ``assume_on_time`` (on-time mode) a missing one is the scheduled
    time, and the row is then checked like any other.
    """
    segments = []
    seen = set()

    def parse_row(row, line):
        (seg_id, mode_id, dep_st, arr_st,
         sched_dep, actual_dep, sched_arr, actual_arr, cancelled_s) = row
        if seg_id in seen:
            raise ValidationError(f"duplicate segment_id {seg_id}")
        seen.add(seg_id)
        if cancelled_s not in ("0", "1"):
            raise ValidationError(f"cancelled must be 0|1, got {cancelled_s!r}")
        cancelled = cancelled_s == "1"
        try:
            dep_station = stations[dep_st]
            arr_station = stations[arr_st]
        except KeyError as exc:
            raise ValidationError(f"unknown station {exc.args[0]!r}") from None
        dep_tz, arr_tz = dep_station.tzinfo, arr_station.tzinfo
        if assume_on_time and not cancelled:
            actual_dep, actual_arr = actual_dep or sched_dep, actual_arr or sched_arr
        segments.append(
            ScheduledSegment(
                segment_id=seg_id,
                mode_id=mode_id,
                dep_station=dep_station,
                arr_station=arr_station,
                sched_dep=_parse_local_ts(sched_dep, dep_tz),
                sched_arr=_parse_local_ts(sched_arr, arr_tz),
                actual_dep=_parse_local_ts(actual_dep, dep_tz) if actual_dep else None,
                actual_arr=_parse_local_ts(actual_arr, arr_tz) if actual_arr else None,
                cancelled=cancelled,
            )
        )

    _load_rows(path, SEGMENTS_HEADER, parse_row)
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
    text = read_text(path)
    try:
        return _zone_collection(text)
    except ValidationError as exc:
        raise ValidationError(str(exc), path=str(path)) from None


def _zone_collection(text: str) -> ZoneCollection:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    if not (isinstance(doc, dict) and doc.get("type") == "FeatureCollection"
            and isinstance(doc.get("features"), list)):
        raise ValidationError("expected a GeoJSON FeatureCollection")
    collection = ZoneCollection()
    for feature in doc["features"]:
        props = feature.get("properties") if isinstance(feature, dict) else None
        zone_id = props.get("zone_id") if isinstance(props, dict) else None
        if not (isinstance(zone_id, str) and zone_id):
            raise ValidationError("feature without a string zone_id property")
        if zone_id in collection.zones:
            raise ValidationError(f"duplicate zone_id {zone_id}")
        internal = props.get("internal_point")
        point = None
        if internal is not None:
            if not (isinstance(internal, list) and len(internal) == 2
                    and not any(isinstance(v, bool) for v in internal)):
                raise ValidationError(f"zone {zone_id}: internal_point must be [lon, lat]")
            lon, lat = internal
            point = (_parse_float(lat, f"zone {zone_id}: internal_point latitude"),
                     _parse_float(lon, f"zone {zone_id}: internal_point longitude"))
        else:
            log.warning("zone %s has no internal_point; distance analytics skip it", zone_id)
        density = props.get("population_density")
        if density is not None and (isinstance(density, bool)
                                    or not isinstance(density, (int, float))):
            raise ValidationError(
                f"zone {zone_id}: population_density must be a number, got {density!r}"
            )
        collection.zones[zone_id] = Zone(
            zone_id=zone_id, internal_point=point, population_density=density
        )
        collection.geometries[zone_id] = feature.get("geometry")
    return collection
