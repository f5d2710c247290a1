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
local date and day period (``local_date_period``).  A ``ScheduledSegment``
holds both actual times unless it is cancelled: on-time mode fills a missing
one with the scheduled time at load (``load_segments_actuals``), so the trip
kernel takes no on-time setting.

The trip kernel is one loop, ``aggregation.evaluate_trips``.  Per segment it
builds a ``SegmentLegs`` (access ride, dwells, in-vehicle time), per egress
group it looks up the egress rides, and per trip it buckets the final arrival
with a ``PeriodClassifier``, which hands back one of the five shared
(date, period) pairs it keeps for each regular day.  Every phase is
non-negative by construction (ride stats, dwells and segment times are
checked upstream), so a ``TripRecord`` is a plain tuple of the segment's
shared ``SegmentLegs``, the zone, the egress ``ZoneRideStat`` and the
arrival, built only when an ``EvaluationReport``'s trips are iterated; ids,
the access ride and the totals are read off those.  The trips hold each
egress ride as a slot row and slot of the ride-stat index, so its
``ZoneRideStat`` is built then too, by ``ingestion.ride_stat``, as
``RideStatIndex.lookup`` builds its answer.  The group-by and
``analytics.leg_shares`` read the trips per segment and build none.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, tzinfo
from enum import Enum
from typing import NamedTuple, Optional, Tuple
from zoneinfo import ZoneInfo

from .errors import ValidationError

EARTH_RADIUS_KM = 6371.0088

MINUTES_PER_DAY = 1440


class DayPeriod(Enum):
    """Local-time buckets used by the ride-stat source.

    Each member carries its ``ride_stats.csv`` code and, for the five
    concrete periods (codes 1..5, in chronological order), its start in
    minutes from midnight; each ends where the next starts, the last at
    midnight.  DAILY_ONLY (code 0) marks whole-day fallback aggregates and is
    never produced by classification.
    """

    EARLY_MORNING = ("early_morning", 1, 0)
    AM = ("am", 2, 420)
    MIDDAY = ("midday", 3, 600)
    PM = ("pm", 4, 960)
    LATE_EVENING = ("late_evening", 5, 1140)
    DAILY_ONLY = ("daily", 0, None)

    def __init__(self, label: str, code: int, start_min):
        self.label = label
        self.code = code
        self.start_min = start_min

    # Members are singletons, so an identity hash agrees with equality, and it
    # runs in C (Enum.__hash__ runs in Python; periods key every lookup).
    __hash__ = object.__hash__


CLASSIFIABLE_PERIODS = tuple(p for p in DayPeriod if p is not DayPeriod.DAILY_ONLY)

PERIOD_BY_CODE = {p.code: p for p in DayPeriod}
_PERIOD_STARTS_MIN = tuple(p.start_min for p in CLASSIFIABLE_PERIODS)


class ZoneRideStat(NamedTuple):
    """Zone-pair ride times in seconds, as ``RideStatIndex.get`` and
    ``lookup`` build them from the slot row of a zone pair and date, which
    holds the zones and date.  ``period`` is the row's own, so a daily
    fallback reads ``DAILY_ONLY`` whatever period was asked.

    A plain tuple of its fields, so construction checks nothing:
    ``load_ride_stats`` rejects a row unless ``0 < min <= mean <= max``."""

    period: DayPeriod
    mean_s: int
    min_s: int
    max_s: int


def classify_period(local_time) -> DayPeriod:
    """Map a local time, in minutes from midnight, to its day period.

    Intervals are half-open, so boundary minutes (420, 600, 960, 1140)
    belong to the later period.
    """
    if not 0 <= local_time < MINUTES_PER_DAY:
        raise ValidationError(
            f"local time {local_time!r} outside [0, {MINUTES_PER_DAY})"
        )
    return CLASSIFIABLE_PERIODS[bisect_right(_PERIOD_STARTS_MIN, local_time) - 1]


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


def dwell_fault(name: str, minutes: float) -> Optional[str]:
    """The message that names ``name`` when a processing time or dwell of
    ``minutes`` is outside [0, 1440], one day, else None: the one rule for
    the processing-time settings and every ``DwellProfile``, so no setting
    or station row moves an instant by more than a day."""
    if not 0 <= minutes <= MINUTES_PER_DAY:  # NaN fails too
        return f"{name}: must be from 0 to {MINUTES_PER_DAY} min, got {minutes!r}"
    return None


@dataclass(frozen=True)
class DwellProfile:
    """Planned station dwell in minutes: departure processing and arrival
    exit, each held to ``dwell_fault``."""

    t_sec_departure_min: float
    t_arr_min: float

    def __post_init__(self):
        for name in ("t_sec_departure_min", "t_arr_min"):
            fault = dwell_fault(name, getattr(self, name))
            if fault:
                raise ValidationError(fault)

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
    """One flight or train movement with scheduled and actual times, in epoch
    seconds.  Only a cancelled segment may lack its actual times."""

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
        if self.actual_dep is None or self.actual_arr is None:
            if not self.cancelled:
                raise ValidationError("actual times required on a non-cancelled row")
        elif self.actual_arr <= self.actual_dep:
            raise ValidationError(
                f"segment {self.segment_id}: actual arrival not after departure"
            )


def local_date_period(epoch_s: int, tz: tzinfo) -> Tuple[date, DayPeriod]:
    """Local date and day period of an absolute instant in timezone ``tz``."""
    local = datetime.fromtimestamp(epoch_s, tz)
    return local.date(), classify_period(local.hour * 60 + local.minute)


@dataclass(frozen=True)
class SegmentLegs:
    """The part of a trip that depends on its segment alone: the access ride,
    both dwells and the in-vehicle time, plus the sums that every trip of the
    segment shares."""

    segment: ScheduledSegment
    ride_to: ZoneRideStat
    dep_s: int  # departure processing time plus any departure delay
    in_s: int
    arr_s: int
    door_to_exit_s: int = field(init=False)  # ride_to.mean_s + dep_s + in_s + arr_s
    to_spread_s: int = field(init=False)  # ride_to.max_s - ride_to.min_s

    def __post_init__(self):
        object.__setattr__(self, "door_to_exit_s",
                           self.ride_to.mean_s + self.dep_s + self.in_s + self.arr_s)
        object.__setattr__(self, "to_spread_s", self.ride_to.max_s - self.ride_to.min_s)


class TripRecord(NamedTuple):
    """One evaluated door-to-door trip: its segment's legs plus the facts that
    depend on the destination zone; everything else is read off those.

    A plain tuple of its fields, which the trips of an ``EvaluationReport``
    build with ``tuple.__new__`` as they are iterated."""

    legs: SegmentLegs
    dest_zone_id: str
    ride_from: ZoneRideStat
    arrival_date: date
    arrival_period: DayPeriod

    used_daily_fallback_to = property(
        lambda self: self.legs.ride_to.period is DayPeriod.DAILY_ONLY)
    used_daily_fallback_from = property(
        lambda self: self.ride_from.period is DayPeriod.DAILY_ONLY)


_ONE_DAY = timedelta(days=1)
_PERIOD_CLOCKS = tuple(time(m // 60, m % 60) for m in _PERIOD_STARTS_MIN)
# Seconds from midnight to each period start and to the next midnight.
_START_OFFSETS_S = (*(m * 60 for m in _PERIOD_STARTS_MIN), MINUTES_PER_DAY * 60)


class PeriodClassifier:
    """``local_date_period`` in one timezone for many instants, by integer
    comparison.

    For each local date it asks about, it keeps the six period starts
    (midnight, 07:00, 10:00, 16:00, 19:00 and the next midnight) as epoch
    seconds, under the same ``fold=0`` rule as ingestion.  A day is regular
    when it is 86,400 s long and each start lies at its nominal minute after
    midnight; an instant on a regular day is classified by ``bisect`` on its
    starts, and is answered with one of the five (date, period) pairs kept
    for that day, so the arrivals of many trips share one pair.  On any
    other day (an offset change, a skipped date, a date that goes backward
    at midnight, or 9999-12-31, which has no next date) the answer is
    ``local_date_period`` itself.  The rule assumes that an offset change
    shows in its day's length or in one of its starts.
    """

    __slots__ = ("tz", "_days")

    def __init__(self, tz: tzinfo):
        self.tz = tz
        # date -> (six period starts..., five (date, period) pairs), or () for
        # an irregular day
        self._days: dict = {}

    def _day(self, day: date) -> tuple:
        if day == date.max:  # no next midnight to end it: irregular
            return ()
        starts = [int(datetime.combine(day, clock, self.tz).timestamp())
                  for clock in _PERIOD_CLOCKS]
        starts.append(int(datetime.combine(day + _ONE_DAY, time(), self.tz).timestamp()))
        if any(s - starts[0] != offset_s for s, offset_s in zip(starts, _START_OFFSETS_S)):
            return ()
        return (*starts, tuple((day, period) for period in CLASSIFIABLE_PERIODS))

    def classify(self, epoch_s: int, hint: date) -> Tuple[date, DayPeriod]:
        """Local date and day period of ``epoch_s``; ``hint`` is a local date
        no later than its own (an arrival is never before its station exit),
        and the search steps forward from it one day at a time."""
        days, day = self._days, hint
        while True:
            starts = days.get(day)
            if starts is None:
                starts = days[day] = self._day(day)
            if not starts or epoch_s < starts[0]:
                return local_date_period(epoch_s, self.tz)
            if epoch_s < starts[5]:
                return starts[6][bisect_right(starts, epoch_s, 1, 5) - 1]
            day += _ONE_DAY


def geodesic_distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Great-circle distance in kilometers between two (lat, lon) points.

    Spherical Vincenty formula on a sphere of mean Earth radius: ``atan2``
    stays well conditioned near antipodes, where the haversine's
    ``asin(sqrt(h))`` is not.  Symmetric and non-negative.
    """
    _check_lat_lon(*a)
    _check_lat_lon(*b)
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlon = lon2 - lon1
    sin1, cos1 = math.sin(lat1), math.cos(lat1)
    sin2, cos2 = math.sin(lat2), math.cos(lat2)
    return EARTH_RADIUS_KM * math.atan2(
        math.hypot(cos2 * math.sin(dlon), cos1 * sin2 - sin1 * cos2 * math.cos(dlon)),
        sin1 * sin2 + cos1 * cos2 * math.cos(dlon))
