"""Domain types and the per-trip door-to-door computation.

A trip is decomposed into five additive phases:

    total = access ride + departure dwell + in-vehicle + arrival dwell + egress ride

where the departure dwell itself splits into a planned processing time and
an extra wait caused by departure delay.  All durations are kept as integer
seconds internally; minutes appear only at I/O boundaries.

Instants are absolute integer seconds since the Unix epoch from ingestion
on: a segment's four times are epoch seconds, so every duration is elapsed
time, also across DST changes.  Ingestion zones a naive local time by the
station table, and reads one that falls in a DST gap or overlap with
``fold=0``, the offset in force before the change (PEP 495); a
``segments.csv`` row whose times then no longer run forward exits 2 with
``path:line:``.  Local time is used only to classify an instant into its
local date and day period (``local_date_period``).  The per-trip computation is split in two:
``segment_legs`` does the work that depends on the segment alone, once per
segment, and ``zone_trip`` completes it for each destination zone.  Every
phase invariant of ``TripPhaseTimes`` holds by construction there (ride
stats, dwells and ``in_s`` are checked upstream), so a ``TripRecord`` is a
light slotted record of the segment's shared ``SegmentLegs``, the zone, the
egress ``ZoneRideStat`` and the arrival; ids, the access ride, ``phases``
and totals are read off those on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, datetime, tzinfo
from enum import Enum
from typing import NamedTuple, Optional, Tuple
from zoneinfo import ZoneInfo

from .errors import TripNotComputableError, ValidationError

EARTH_RADIUS_KM = 6371.0088

MINUTES_PER_DAY = 1440


class DayPeriod(Enum):
    """Local-time buckets used by the ride-stat source.

    Each concrete period carries a half-open [start, end) interval in
    minutes from midnight; the five concrete periods partition the day.
    DAILY_ONLY marks whole-day fallback aggregates and is never produced
    by classification.
    """

    EARLY_MORNING = ("early_morning", 0, 420)
    AM = ("am", 420, 600)
    MIDDAY = ("midday", 600, 960)
    PM = ("pm", 960, 1140)
    LATE_EVENING = ("late_evening", 1140, 1440)
    DAILY_ONLY = ("daily", None, None)

    def __init__(self, label: str, start_min, end_min):
        self.label = label
        self.start_min = start_min
        self.end_min = end_min

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"DayPeriod.{self.name}"

    # Members are singletons, so an identity hash agrees with equality, and it
    # runs in C (Enum.__hash__ runs in Python; periods key every lookup).
    __hash__ = object.__hash__


CLASSIFIABLE_PERIODS = tuple(p for p in DayPeriod if p is not DayPeriod.DAILY_ONLY)

# CSV period codes: 0 = daily aggregate, 1..5 in chronological order.
PERIOD_BY_CODE = {
    0: DayPeriod.DAILY_ONLY,
    1: DayPeriod.EARLY_MORNING,
    2: DayPeriod.AM,
    3: DayPeriod.MIDDAY,
    4: DayPeriod.PM,
    5: DayPeriod.LATE_EVENING,
}
CODE_BY_PERIOD = {p: c for c, p in PERIOD_BY_CODE.items()}


class ZoneRideStat(NamedTuple):
    """Zone-pair ride-time aggregate for one date and day period, in seconds.

    A plain tuple of its fields, so construction checks nothing:
    ``check_ride_stat`` holds the ``0 < min <= mean <= max`` rule, and
    ``load_ride_stats`` and ``RideStatIndex.add`` apply it."""

    origin_zone_id: str
    dest_zone_id: str
    date: date
    period: DayPeriod
    mean_s: int
    min_s: int
    max_s: int

    @property
    def key(self):
        return self[:4]


def check_ride_stat(stat: ZoneRideStat) -> None:
    """Reject a ride stat unless 0 < min <= mean <= max."""
    if not 0 < stat.min_s <= stat.mean_s <= stat.max_s:
        raise ValidationError(
            f"ride stat {stat.origin_zone_id}->{stat.dest_zone_id} {stat.date}: "
            f"need 0 < min <= mean <= max, got {stat.min_s}/{stat.mean_s}/{stat.max_s}"
        )


def classify_period(local_time) -> DayPeriod:
    """Map a local time, in minutes from midnight, to its day period.

    Intervals are half-open, so boundary minutes (420, 600, 960, 1140)
    belong to the later period.
    """
    if not 0 <= local_time < MINUTES_PER_DAY:
        raise ValidationError(
            f"local time {local_time!r} outside [0, {MINUTES_PER_DAY})"
        )
    for period in CLASSIFIABLE_PERIODS:
        if period.start_min <= local_time < period.end_min:
            return period
    raise AssertionError("periods must partition the day")  # pragma: no cover


def _check_lat_lon(lat, lon):
    if not -90.0 <= lat <= 90.0:
        raise ValidationError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValidationError(f"longitude {lon} outside [-180, 180]")


@dataclass(frozen=True)
class Zone:
    """Smallest geographic analysis unit (census tract, IRIS, wijk)."""

    zone_id: str
    internal_point: Optional[Tuple[float, float]] = None  # (lat, lon)
    population_density: Optional[float] = None

    def __post_init__(self):
        if self.internal_point is not None:
            _check_lat_lon(*self.internal_point)
        density = self.population_density
        if density is not None and not 0 <= density < math.inf:  # NaN fails too
            raise ValidationError(
                f"zone {self.zone_id}: population density must be finite and >= 0"
            )


@dataclass(frozen=True)
class DwellProfile:
    """Planned station dwell in minutes: departure processing and arrival exit."""

    t_sec_departure_min: float
    t_arr_min: float

    def __post_init__(self):
        for name, value in (
            ("t_sec_departure_min", self.t_sec_departure_min),
            ("t_arr_min", self.t_arr_min),
        ):
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"dwell {name}={value!r} must be finite and >= 0")

    @property
    def t_sec_departure_s(self) -> int:
        return round(self.t_sec_departure_min * 60)

    @property
    def t_arr_s(self) -> int:
        return round(self.t_arr_min * 60)


@dataclass(frozen=True)
class Station:
    """Airport or train station anchoring one end of the scheduled leg."""

    station_id: str
    kind: str  # "air" | "rail"
    zone_id: str
    lat: float
    lon: float
    tz: str
    dwell: Optional[DwellProfile] = None  # per-station override of the defaults

    def __post_init__(self):
        if self.kind not in ("air", "rail"):
            raise ValidationError(f"station {self.station_id}: kind must be air|rail")
        _check_lat_lon(self.lat, self.lon)
        try:
            ZoneInfo(self.tz)
        except Exception as exc:
            raise ValidationError(
                f"station {self.station_id}: unresolvable timezone {self.tz!r}"
            ) from exc

    @property
    def tzinfo(self) -> ZoneInfo:
        return ZoneInfo(self.tz)


@dataclass(frozen=True)
class ScheduledSegment:
    """One flight or train movement with scheduled (and possibly actual)
    times, in epoch seconds."""

    segment_id: str
    mode_id: str
    dep_station: Station
    arr_station: Station
    sched_dep: int
    sched_arr: int
    actual_dep: Optional[int] = None
    actual_arr: Optional[int] = None
    cancelled: bool = False

    def __post_init__(self):
        if self.sched_arr <= self.sched_dep:
            raise ValidationError(
                f"segment {self.segment_id}: scheduled arrival not after departure"
            )
        if self.actual_dep is not None and self.actual_arr is not None:
            if self.actual_arr <= self.actual_dep:
                raise ValidationError(
                    f"segment {self.segment_id}: actual arrival not after departure"
                )


@dataclass(frozen=True)
class TripPhaseTimes:
    """The five phase durations of one trip, in whole seconds."""

    to_s: int
    dep_s: int
    in_s: int
    arr_s: int
    from_s: int
    wait_s: int

    def __post_init__(self):
        for name in ("to_s", "dep_s", "in_s", "arr_s", "from_s", "wait_s"):
            if getattr(self, name) < 0:
                raise ValidationError(f"phase {name} negative")
        if self.wait_s > self.dep_s:
            raise ValidationError("wait exceeds total departure dwell")

    @property
    def total_s(self) -> int:
        return self.to_s + self.dep_s + self.in_s + self.arr_s + self.from_s

    @property
    def sec_s(self) -> int:
        """Planned processing component of the departure dwell."""
        return self.dep_s - self.wait_s


def local_date_period(epoch_s: int, tz: tzinfo) -> Tuple[date, DayPeriod]:
    """Local date and day period of an absolute instant in timezone ``tz``."""
    local = datetime.fromtimestamp(epoch_s, tz)
    return local.date(), classify_period(local.hour * 60 + local.minute)


@dataclass(frozen=True)
class SegmentLegs:
    """The part of a trip that depends on its segment alone: the access ride,
    both dwells, the in-vehicle time and the egress instant, plus the sums
    that every trip of the segment shares."""

    segment: ScheduledSegment
    origin_zone_id: str
    ride_to: ZoneRideStat
    dep_s: int
    wait_s: int
    in_s: int
    arr_s: int
    egress_s: int  # epoch seconds of the station exit
    egress_date: date
    egress_period: DayPeriod
    arr_tz: tzinfo
    core_s: int = field(init=False)  # dep_s + in_s + arr_s
    door_to_exit_s: int = field(init=False)  # ride_to.mean_s + core_s
    to_spread_s: int = field(init=False)  # ride_to.max_s - ride_to.min_s

    def __post_init__(self):
        core_s = self.dep_s + self.in_s + self.arr_s
        object.__setattr__(self, "core_s", core_s)
        object.__setattr__(self, "door_to_exit_s", self.ride_to.mean_s + core_s)
        object.__setattr__(self, "to_spread_s", self.ride_to.max_s - self.ride_to.min_s)


@dataclass(slots=True)
class TripRecord:
    """One evaluated door-to-door trip: its segment's legs plus the facts that
    depend on the destination zone; everything else is read off those."""

    legs: SegmentLegs
    dest_zone_id: str
    ride_from: ZoneRideStat
    arrival_date: date
    arrival_period: DayPeriod

    segment_id = property(lambda self: self.legs.segment.segment_id)
    mode_id = property(lambda self: self.legs.segment.mode_id)
    dep_station_id = property(lambda self: self.legs.segment.dep_station.station_id)
    arr_station_id = property(lambda self: self.legs.segment.arr_station.station_id)
    origin_zone_id = property(lambda self: self.legs.origin_zone_id)
    ride_to = property(lambda self: self.legs.ride_to)
    used_daily_fallback_to = property(
        lambda self: self.legs.ride_to.period is DayPeriod.DAILY_ONLY)
    used_daily_fallback_from = property(
        lambda self: self.ride_from.period is DayPeriod.DAILY_ONLY)
    total_mean_s = property(lambda self: self.legs.door_to_exit_s + self.ride_from.mean_s)
    total_min_s = property(
        lambda self: self.legs.ride_to.min_s + self.legs.core_s + self.ride_from.min_s)
    total_max_s = property(
        lambda self: self.legs.ride_to.max_s + self.legs.core_s + self.ride_from.max_s)
    variability_s = property(
        lambda self: self.legs.to_spread_s + self.ride_from.max_s - self.ride_from.min_s)

    @property
    def phases(self) -> TripPhaseTimes:
        """The five phases, mean-variant ride legs."""
        legs = self.legs
        return TripPhaseTimes(legs.ride_to.mean_s, legs.dep_s, legs.in_s, legs.arr_s,
                              self.ride_from.mean_s, legs.wait_s)


def segment_legs(
    segment: ScheduledSegment,
    origin_zone: Zone,
    dwell_dep: DwellProfile,
    dwell_arr: DwellProfile,
    rides,
    *,
    assume_on_time: bool = False,
) -> SegmentLegs:
    """Evaluate the destination-independent part of a segment's trips.

    The access ride is taken at the period containing the station-arrival
    deadline (scheduled departure minus processing time); the egress instant
    is the airport/station exit (actual arrival plus arrival dwell).  When
    ``assume_on_time`` is set, missing actual times are substituted by the
    scheduled ones.

    Raises TripNotComputableError when the access ride has no statistic at
    period or daily level.
    """
    if segment.cancelled:
        raise ValidationError(f"segment {segment.segment_id} is cancelled")

    actual_dep = segment.actual_dep
    actual_arr = segment.actual_arr
    if actual_dep is None or actual_arr is None:
        if not assume_on_time:
            raise ValidationError(
                f"segment {segment.segment_id}: actual times missing "
                "and on-time mode not enabled"
            )
        actual_dep = actual_dep if actual_dep is not None else segment.sched_dep
        actual_arr = actual_arr if actual_arr is not None else segment.sched_arr

    in_s = actual_arr - actual_dep
    if in_s <= 0:
        raise ValidationError(
            f"segment {segment.segment_id}: actual arrival not after departure"
        )
    # Early pushback cannot reduce dwell below the processing time.
    wait_s = max(0, actual_dep - segment.sched_dep)
    sec_s = dwell_dep.t_sec_departure_s
    arr_s = dwell_arr.t_arr_s

    access_zone_id = segment.dep_station.zone_id
    to_date, to_period = local_date_period(
        segment.sched_dep - sec_s, segment.dep_station.tzinfo
    )
    ride_to = rides.lookup(origin_zone.zone_id, access_zone_id, to_date, to_period)
    if ride_to is None:
        raise TripNotComputableError(
            f"no ride stat {origin_zone.zone_id}->{access_zone_id} "
            f"on {to_date} ({to_period.label} or daily)"
        )

    arr_tz = segment.arr_station.tzinfo
    egress_s = actual_arr + arr_s
    egress_date, egress_period = local_date_period(egress_s, arr_tz)
    return SegmentLegs(
        segment=segment,
        origin_zone_id=origin_zone.zone_id,
        ride_to=ride_to,
        dep_s=sec_s + wait_s,
        wait_s=wait_s,
        in_s=in_s,
        arr_s=arr_s,
        egress_s=egress_s,
        egress_date=egress_date,
        egress_period=egress_period,
        arr_tz=arr_tz,
    )


def zone_trip(legs: SegmentLegs, dest_zone: Zone, rides) -> TripRecord:
    """Complete a segment's trip to one destination zone: the egress ride,
    taken at the period of the station exit, and the final arrival.

    Raises TripNotComputableError when the egress ride has no statistic at
    period or daily level.
    """
    egress_zone_id = legs.segment.arr_station.zone_id
    ride_from = rides.lookup(
        egress_zone_id, dest_zone.zone_id, legs.egress_date, legs.egress_period
    )
    if ride_from is None:
        raise TripNotComputableError(
            f"no ride stat {egress_zone_id}->{dest_zone.zone_id} "
            f"on {legs.egress_date} ({legs.egress_period.label} or daily)"
        )
    arrival_date, arrival_period = local_date_period(
        legs.egress_s + ride_from.mean_s, legs.arr_tz
    )
    return TripRecord(legs, dest_zone.zone_id, ride_from, arrival_date, arrival_period)


def compute_trip(
    segment: ScheduledSegment,
    origin_zone: Zone,
    dest_zone: Zone,
    dwell_dep: DwellProfile,
    dwell_arr: DwellProfile,
    rides,
    *,
    assume_on_time: bool = False,
) -> TripRecord:
    """Evaluate one full door-to-door trip for a segment and a zone pair:
    ``segment_legs`` then ``zone_trip``.

    ``rides`` is a lookup with signature
    ``lookup(origin_zone_id, dest_zone_id, date, period) -> ZoneRideStat | None``
    that falls back to the daily aggregate when the period has no record.

    Raises TripNotComputableError when a leg has no ride statistic at period
    or daily level.
    """
    legs = segment_legs(
        segment, origin_zone, dwell_dep, dwell_arr, rides,
        assume_on_time=assume_on_time,
    )
    return zone_trip(legs, dest_zone, rides)


def geodesic_distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Great-circle distance in kilometers between two (lat, lon) points.

    Haversine formula on a sphere of mean Earth radius; symmetric and
    non-negative.
    """
    _check_lat_lon(*a)
    _check_lat_lon(*b)
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))
