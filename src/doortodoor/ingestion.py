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
  ``arr_time`` where days is a 7-char Mo..Su mask of 0/1.  It is read and
  expanded over a date range in one pass: each row becomes its dated
  segments as it is read, so any fault of a row cites its ``path:line:``.
- ``stations.csv``: ``station_id,kind,zone_id,lat,lon,tz,t_sec_dep_min,t_arr_min``
  (the two dwell columns may be empty to use the built-in defaults, and a
  given one must be from 0 to 1440 min).
- ``zones.geojson``: FeatureCollection whose features carry ``zone_id`` and
  optionally ``internal_point`` ([lon, lat]) and ``population_density``.

Ride stats are indexed by zone pair, then by date: a ``RideStatIndex`` whose
slot row for one pair and date holds the three integers of each of its
periods, so the largest input costs three list slots per row, and a stat
object only when ``get`` or ``lookup`` is asked for one; the trip kernel
keeps where an egress ride sits instead (``RideStatIndex.locate``).

Each segment time is converted once, here, to epoch seconds, both from
``segments.csv`` and from weekly expansion.  A naive local time is zoned by
the station table (departure times by the departure station, arrival times
by the arrival station).  A local time that falls in a DST gap or occurs
twice in a DST overlap is read with ``fold=0``, i.e. with the UTC offset in
force before the change (PEP 495).  A ``segments.csv`` row whose times then
no longer run forward (arrival not after departure) is rejected with
``path:line:``; an expanded weekly row, with its segment id and the
``path:line:`` of its weekly row.

Every input is read one physical line at a time (``physical_lines``); a CSV
loader holds neither a file's whole text nor its list of lines.  Line
numbers are physical lines: line N is the text after the (N-1)-th ``\n``, in
every CSV input and in the config file.  A ``\r\n`` line end is accepted; no
other character (``\r`` alone, ``\x0c``, ``\x85``, ...) ends a line.  Each
line is decoded as it is read, so a byte that is not UTF-8 is cited by its
own line, and only once every earlier line has passed.  A field may not span
lines: a quoted field holding a line break is rejected, citing the line its
row starts on.  (An exported CSV quotes any cell that needs it, so a zone
id from ``zones.geojson`` may span lines there.)  Segment ids are unique
across ``segments.csv`` and the weekly expansion; a repeated id is rejected
with the ``path:line:`` of the row that repeats it.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from itertools import chain, repeat
from operator import countOf, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import ValidationError
from .model import (
    PERIOD_BY_CODE,
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


def resolve_dwell(station: Station, air_dwell: Optional[DwellProfile] = None) -> DwellProfile:
    """Dwell profile for a station: ``air_dwell`` for an air station, when
    given (the processing times a run overrides) > per-station config >
    built-in airport table > kind default."""
    if air_dwell is not None and station.kind == "air":
        return air_dwell
    if station.dwell is not None:
        return station.dwell
    if station.station_id in DEFAULT_STATION_DWELL:
        return DEFAULT_STATION_DWELL[station.station_id]
    return DEFAULT_RAIL_DWELL if station.kind == "rail" else DEFAULT_AIR_DWELL


SLOTS = 3 * len(PERIOD_BY_CODE)  # the length of a RideStatIndex slot row


class RideStatIndex:
    """Ride stats as ``load_ride_stats`` builds them: ``pairs`` maps each
    ``(origin, dest)`` zone pair to a dict from date to that date's slot row,
    a list of ``SLOTS`` ints.  Slots ``3c``, ``3c + 1`` and ``3c + 2`` hold
    the ``mean_s``, ``min_s`` and ``max_s`` of the row with period code
    ``c``, and 0 means that row is absent (a loaded row has ``min_s > 0``).
    So a row costs three list slots.  ``locate`` is the one lookup rule: it
    answers a key with a slot row and the first slot of the stat found, and
    ``get`` and ``lookup`` build their ``ZoneRideStat`` from that pair
    (``ride_stat``); a caller that keeps the pair reads ``row[slot]``,
    ``row[slot + 1]`` and ``row[slot + 2]`` itself, with no stat built."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Dict[Tuple[str, str], Dict[date, List[int]]]):
        self.pairs = pairs

    def _slot_rows(self) -> Iterator[List[int]]:
        return chain.from_iterable(map(dict.values, self.pairs.values()))

    def __len__(self) -> int:
        """The number of stats: the nonzero slots over three."""
        rows = sum(map(len, self.pairs.values()))
        return (SLOTS * rows - sum(map(list.count, self._slot_rows(), repeat(0)))) // 3

    def locate(self, origin, dest, when, period) -> Optional[Tuple[List[int], int]]:
        """The slot row of the zone pair and date, and the first slot of the
        period's stat when present, else of the daily aggregate (slot 0), else
        None."""
        cells = self.pairs.get((origin, dest))
        row = None if cells is None else cells.get(when)
        if row is None:
            return None
        slot = 3 * period.code
        if row[slot]:
            return row, slot
        return (row, 0) if row[0] else None

    def get(self, origin, dest, when, period) -> Optional[ZoneRideStat]:
        """The stat of exactly this key, or None."""
        found = self.locate(origin, dest, when, period)
        return ride_stat(*found) if found and found[1] == 3 * period.code else None

    def lookup(self, origin, dest, when, period) -> Optional[ZoneRideStat]:
        """Period-level record when present, else the daily aggregate (whose
        ``period`` is ``DAILY_ONLY``), else None."""
        found = self.locate(origin, dest, when, period)
        return ride_stat(*found) if found else None

    def daily_count(self) -> int:
        """The number of daily-only aggregates (period code 0): a scan of slot
        0 alone, so the share ``daily_count() / len(index)`` costs two scans."""
        rows = sum(map(len, self.pairs.values()))
        return rows - countOf(map(itemgetter(0), self._slot_rows()), 0)


def ride_stat(row: List[int], slot: int) -> ZoneRideStat:
    """The stat that starts at ``slot`` of a slot row; slot 0 is the daily
    aggregate, whose ``period`` is ``DAILY_ONLY``."""
    return _new(ZoneRideStat, (PERIOD_BY_CODE[slot // 3], row[slot], row[slot + 1], row[slot + 2]))


_new = tuple.__new__  # builds a ZoneRideStat in C, not via its Python __new__

RIDE_STATS_HEADER = "origin_zone,dest_zone,date,period,mean_s,min_s,max_s"


@contextmanager
def physical_lines(path) -> Iterator[Iterator[str]]:
    r"""Open an input file and give an iterator over its physical lines, each
    decoded on its own and kept with its line end: line N is the text after
    the (N-1)-th ``\n``, so a file that ends with ``\n`` ends with a line
    ``""``.  A file that cannot be read, or a line that is not UTF-8 (cited
    by its own line, when the iterator reaches it), is a ValidationError."""
    path = str(path)
    try:
        file = open(path, "rb")
    except FileNotFoundError:
        raise ValidationError("file not found", path=path) from None
    except OSError as exc:
        raise ValidationError(f"cannot read: {exc.strerror}", path=path) from None
    with file:
        yield _decoded_lines(file, path)


def _decoded_lines(file, path: str) -> Iterator[str]:
    number, data = 0, b"\n"
    try:
        for number, data in enumerate(file, 1):
            yield data.decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8: byte 0x{data[exc.start]:02x}",
                              path=path, line=number) from None
    except OSError as exc:
        raise ValidationError(f"cannot read: {exc.strerror}", path=path) from None
    if data.endswith(b"\n"):
        yield ""


def _load_rows(path, header: str, parse_row: Callable[[List[str], int], None]) -> int:
    """Check the exact ``header`` of a CSV input, then call ``parse_row(row,
    line)`` on each non-blank row, which must be as wide as the header, and
    return the number of rows parsed.  Lines are read one at a time.
    ``line`` is the physical line the row starts on; a ValidationError raised
    by ``parse_row`` (without a path) or a malformed row is re-raised citing
    ``path:line:``."""
    path = str(path)
    with physical_lines(path) as lines:
        if next(lines) not in (header, f"{header}\n", f"{header}\r\n"):
            raise ValidationError(f"header must be exactly {header!r}", path=path, line=1)
        width = header.count(",") + 1
        # csv reads a line's own "\n" or "\r\n" as the end of its record.
        reader = csv.reader(lines)
        line, rows = 2, 0
        try:
            for row in reader:
                end = reader.line_num + 1  # the physical line the row ends on
                if end != line:
                    raise ValidationError("malformed CSV: line break inside a quoted field")
                if lines.gi_frame is None:
                    # The lines ran out before csv finished the row, which only
                    # a quote left open on a last line without a line end does.
                    raise ValidationError("malformed CSV: quote left open at the end of the file")
                if row:
                    if len(row) != width:
                        raise ValidationError(f"expected {width} fields, got {len(row)}")
                    parse_row(row, line)
                    rows += 1
                line = end + 1
        except csv.Error as exc:
            # Records never span lines here, so csv's hint about newline mode is cut.
            reason = str(exc).partition(" - ")[0]
            raise ValidationError(f"malformed CSV: {reason}", path=path, line=line) from None
        except ValidationError as exc:
            if exc.path is None:  # raised by parse_row or above
                raise ValidationError(str(exc), path=path, line=line) from None
            if exc.line is not None and exc.line > line:
                # Not UTF-8, but read to go on with a quoted field of an earlier line.
                raise ValidationError("malformed CSV: line break inside a quoted field",
                                      path=path, line=line) from None
            raise
    return rows


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


class _Memo(dict):
    """``memo[key]`` is ``parse(key)``, computed on the first sight of each
    distinct ``key``; an exception from ``parse`` stores nothing."""

    __slots__ = ("parse",)

    def __init__(self, parse: Callable[[object], object]):
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


def _period_slot(value: str) -> int:
    """The first slot of the period whose code ``value`` spells."""
    code = _parse_int(value, "period")
    if code not in PERIOD_BY_CODE:
        raise ValidationError(f"period code {code} not in 0..5")
    return 3 * code


def _parse_date(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise ValidationError(f"bad date {value!r}") from None


def load_ride_stats(path) -> RideStatIndex:
    """Parse and index the zone-pair ride statistics file.

    A row is checked in this order: period, date, ``mean_s``, ``min_s``,
    ``max_s``, then ``0 < min <= mean <= max``, then the key's uniqueness.
    Each distinct period, date and integer text is parsed once per load, so
    equal values share one object.  The memos are nested by text (origin,
    then dest): a lookup by a str is cheaper than one by a tuple of strs."""
    slots, days, ints = _Memo(_period_slot), _Memo(_parse_date), _Memo(int)
    rows_by_origin = _Memo(lambda origin: _Memo(lambda dest: {}))

    def parse_row(row, line):
        origin, dest, date_s, period_s, mean_s, min_s, max_s = row
        slot, day = slots[period_s], days[date_s]
        try:
            mean, low, high = ints[mean_s], ints[min_s], ints[max_s]
        except ValueError:
            mean = _parse_int(mean_s, "mean_s")
            low = _parse_int(min_s, "min_s")
            high = _parse_int(max_s, "max_s")
        if not 0 < low <= mean <= high:
            raise ValidationError(f"ride stat {origin}->{dest} {day}: "
                                  f"need 0 < min <= mean <= max, got {low}/{mean}/{high}")
        by_date = rows_by_origin[origin][dest]
        if day in by_date:  # cheaper than a .get() call
            slot_row = by_date[day]
            if slot_row[slot]:
                raise ValidationError(
                    f"duplicate ride stat key {origin},{dest},{day},{slot // 3}")
        else:
            slot_row = by_date[day] = [0] * SLOTS
        slot_row[slot] = mean
        slot_row[slot + 1] = low
        slot_row[slot + 2] = high

    count = _load_rows(path, RIDE_STATS_HEADER, parse_row)
    log.info("loaded %d ride stats from %s", count, path)
    return RideStatIndex({(origin, dest): by_date for origin, by_dest in rows_by_origin.items()
                          for dest, by_date in by_dest.items()})


WEEKLY_HEADER = "mode_id,dep_station,arr_station,days,dep_time,arr_time"


def _parse_hhmm(value: str) -> time:
    try:
        hh, mm = value.split(":")
        return time(int(hh), int(mm))
    except (ValueError, OverflowError):
        raise ValidationError(f"bad HH:MM time {value!r}") from None


def expand_weekly_schedule(
    path,
    stations: Dict[str, Station],
    start: date,
    end: date,
    taken_ids: Iterable[str] = (),
) -> List[ScheduledSegment]:
    """Read the weekly schedule and materialize each row, as it is read, into
    dated segments over [start, end].

    A row is checked in this order: day mask, departure and arrival clocks,
    a weekday set, known stations, then on each of its dates the segment id
    and ``ScheduledSegment``'s own checks.  Times are read in each station's
    own timezone and kept as epoch seconds; actual times are set to the
    scheduled ones (on-time assumption).  A row whose arrival clock time
    precedes the departure rolls the arrival to the next date, which must
    not be past ``date.max``.  A segment id that an earlier row, or
    ``taken_ids`` (the ids of ``segments.csv``), already holds is rejected.
    A range with ``end < start`` checks every row and expands to no segments
    (``RunConfig`` rejects one).
    """
    segments = []
    taken = set(taken_ids)
    dates = [start + timedelta(days=n) for n in range((end - start).days + 1)]

    def parse_row(row, line):
        mode_id, dep_st, arr_st, days, dep_s, arr_s = row
        if len(days) != 7 or set(days) - {"0", "1"}:
            raise ValidationError(f"days mask must be 7 chars of 0/1, got {days!r}")
        dep_time, arr_time = _parse_hhmm(dep_s), _parse_hhmm(arr_s)
        if "1" not in days:
            raise ValidationError(f"schedule row {mode_id} {dep_time}: no weekday set")
        try:
            dep_station, arr_station = stations[dep_st], stations[arr_st]
        except KeyError as exc:
            raise ValidationError(f"unknown station {exc.args[0]!r} in weekly schedule") from None
        roll = timedelta(days=arr_time < dep_time)
        for day in dates:
            if days[day.weekday()] == "1":
                segment_id = f"{mode_id}_{day.isoformat()}_{dep_time:%H%M}"
                if segment_id in taken:
                    raise ValidationError(f"duplicate segment_id {segment_id}")
                taken.add(segment_id)
                sched_dep = int(datetime.combine(
                    day, dep_time, tzinfo=dep_station.tzinfo).timestamp())
                try:
                    arr_day = day + roll
                except OverflowError:
                    raise ValidationError(
                        f"segment {segment_id}: arrival date after {date.max}") from None
                sched_arr = int(datetime.combine(
                    arr_day, arr_time, tzinfo=arr_station.tzinfo).timestamp())
                segments.append(ScheduledSegment(segment_id, mode_id, dep_station, arr_station,
                                                 sched_dep, sched_arr, sched_dep, sched_arr))

    _load_rows(path, WEEKLY_HEADER, parse_row)
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
    with physical_lines(path) as lines:
        text = "".join(lines)
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
        if ";" in zone_id:
            # ';' separates the zone lists of the delay export.
            raise ValidationError(f"zone_id {zone_id!r} contains ';'")
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
