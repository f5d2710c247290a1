"""Trip evaluation and its group-by reductions.

``evaluate_trips`` is the trip kernel: one loop over every (segment,
destination zone) pair that does the per-segment work once per segment (the
access ride, dwells, in-vehicle time and station exit), the egress-ride
lookups once per egress group (egress zone, exit date, exit period), and per
trip only the arrival and its ``PeriodClassifier`` bucket (one classifier
per arrival timezone).  Its report holds the trips per segment, not per trip
(``Trips``): one ``SegmentTrips`` per segment, with the segment's legs, its
egress group's zone ids and rides, which every segment exiting in that group
shares, and one shared (date, period) arrival per trip.  Each ``TripRecord``
is built as the trips are iterated; the consumers here and in ``analytics``
read ``Trips.segments`` instead and build none.  ``daily_zone_means`` groups
the trips into a dict of door-to-door time and variability keyed by (zone,
date, period, mode).  ``summarize`` reduces those cells into a dict keyed by
(zone, period): the days each mode was fastest, the days each mode was most
reliable, and the fastest average time; it lists each (zone, period)'s cell
keys and reads their sums from the cells a day at a time.  A key is the only
place a cell's or summary's zone, date and period are stored.
``bin_zone_counts`` bins the summaries into reporting bands.

Each day cell holds integer sums of seconds and a trip count, and two
cells' means are compared by cross-multiplication (``t_a * n_b < t_b * n_a``),
so results are exact, independent of summation order and safe to compare
with zero tolerance.  The only rational built is one ``Fraction`` per summary, its
fastest average time, binned once into the summary's reporting band.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, tzinfo
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .ingestion import RideStatIndex, resolve_dwell
from .model import (
    DayPeriod, DwellProfile, PeriodClassifier, ScheduledSegment, SegmentLegs, TripRecord,
    Zone, ZoneRideStat, local_date_period,
)

# Door-to-door time interval bins (minutes, half-open), per the four
# reporting bands: under 4h, 4h to 4h30, 4h30 to 5h, 5h and more.
INTERVAL_BOUNDS_MIN = (240, 270, 300)
INTERVAL_LABELS = ("<4h", "4h-4h30", "4h30-5h", ">=5h")


def interval_bin(total_min) -> str:
    """Bin a door-to-door time (minutes) into its reporting band."""
    for bound, label in zip(INTERVAL_BOUNDS_MIN, INTERVAL_LABELS):
        if total_min < bound:
            return label
    return INTERVAL_LABELS[-1]


# (zone_id, date, period, mode_id) -> [sum of door-to-door totals, sum of
# (max-variant total - min-variant total), trip count], in integer seconds:
# a cell's mean time is ``total / n`` and its mean variability ``spread / n``.
DayCells = Dict[Tuple[str, date, DayPeriod, str], List[int]]


@dataclass(frozen=True)
class ZonePeriodSummary:
    """Roll-up over the date range of the (zone, period) that keys it."""

    n_by_mode: Dict[str, int]
    reliability_by_mode: Dict[str, int]
    fastest_mode: str
    most_reliable_mode: str
    e_bar_s: Fraction
    interval_bin: str  # the reporting band of e_bar_s
    days_used: int
    days_total: int

    @property
    def e_bar_min(self) -> float:
        return float(self.e_bar_s) / 60.0


def daily_zone_means(trips: Trips) -> DayCells:
    """Summed door-to-door time and variability per (zone, date, period,
    mode), bucketing each trip by the date and period of its final arrival.

    It reads the trips per segment (``trips.segments``), the segment's mode
    and sums once, and builds no ``TripRecord``."""
    cells: DayCells = {}
    for entry in trips.segments:
        legs = entry.legs
        mode_id, exit_s, to_spread_s = legs.segment.mode_id, legs.door_to_exit_s, legs.to_spread_s
        for zone_id, ride, (day, period) in zip(entry.zone_ids, entry.rides, entry.arrivals):
            key = (zone_id, day, period, mode_id)
            sums = cells.get(key)
            if sums is None:
                sums = cells[key] = [0, 0, 0]
            sums[0] += exit_s + ride.mean_s
            sums[1] += to_spread_s + ride.max_s - ride.min_s
            sums[2] += 1
    return cells


def _argmax_mode(counts: Dict[str, int]) -> str:
    # Highest count wins; ties broken by lexicographically smallest mode id.
    best = max(counts.values())
    return min(m for m, c in counts.items() if c == best)


_DAY = itemgetter(1)  # a cell key's date


def summarize(cells: DayCells) -> Dict[Tuple[str, DayPeriod], ZonePeriodSummary]:
    """One summary per (zone, period), keyed by it, in first-seen order.

    On each day, every mode with the lowest mean time counts one in
    ``n_by_mode`` and every mode with the lowest variability counts one in
    ``reliability_by_mode`` (ties count every minimal mode; a mode seen on
    any day of the cell is listed, with 0 if it never wins).  The fastest and
    most reliable modes are those counted most often.  ``e_bar_s`` averages
    the daily lowest mean time over the ``days_used`` days the cell has
    data; ``days_total`` is the number of distinct dates in the whole input.
    """
    # (zone, period) -> the keys of its cells.  One list per (zone, period),
    # sorted by date and read a day at a time, with each sum read as
    # cells[key]: a list per day, or a (mode, sums) pair per cell, would be
    # most of this function's memory.
    groups: Dict[Tuple[str, DayPeriod], list] = {}
    dates = set()
    for key in cells:
        zone_id, day, period, _ = key
        keys = groups.get((zone_id, period))
        if keys is None:
            keys = groups[zone_id, period] = []
        keys.append(key)
        dates.add(day)
    days_total = len(dates)
    summaries = {}
    for key, keys in groups.items():
        fastest: Dict[str, int] = {}
        reliable: Dict[str, int] = {}
        # Sum of the daily minimum means, as minima_num / minima_den with
        # minima_den the lcm of the minima's trip counts.
        minima_num, minima_den, days_used = 0, 1, 0
        keys.sort(key=_DAY)
        for _, day_keys in groupby(keys, _DAY):
            day_keys = list(day_keys)
            stats = [cells[day_key] for day_key in day_keys]
            days_used += 1
            # The day's minimum mean time e_t / e_n and variability v_t / v_n;
            # means t / n compare as t_a * n_b < t_b * n_a.
            e_t, v_t, e_n = stats[0]
            v_n = e_n
            for t, v, n in stats:
                if t * e_n < e_t * n:
                    e_t, e_n = t, n
                if v * v_n < v_t * n:
                    v_t, v_n = v, n
            for (_, _, _, mode_id), (t, v, n) in zip(day_keys, stats):
                fastest[mode_id] = fastest.get(mode_id, 0) + (t * e_n == e_t * n)
                reliable[mode_id] = reliable.get(mode_id, 0) + (v * v_n == v_t * n)
            g = gcd(minima_den, e_n)
            minima_num = minima_num * (e_n // g) + e_t * (minima_den // g)
            minima_den = minima_den // g * e_n
        e_bar_s = Fraction(minima_num, minima_den * days_used)
        summaries[key] = ZonePeriodSummary(
            n_by_mode=dict(sorted(fastest.items())),
            reliability_by_mode=dict(sorted(reliable.items())),
            fastest_mode=_argmax_mode(fastest),
            most_reliable_mode=_argmax_mode(reliable),
            e_bar_s=e_bar_s,
            interval_bin=interval_bin(e_bar_s / 60),
            days_used=days_used,
            days_total=days_total,
        )
    return summaries


def bin_zone_counts(
    summaries: Dict[Tuple[str, DayPeriod], ZonePeriodSummary],
) -> Dict[Tuple[str, DayPeriod, str], int]:
    """Count (zone, period) summaries per (fastest mode, period, time band)."""
    counts: Dict[Tuple[str, DayPeriod, str], int] = {}
    for (_, period), summary in summaries.items():
        key = (summary.fastest_mode, period, summary.interval_bin)
        counts[key] = counts.get(key, 0) + 1
    return counts


class SegmentTrips(NamedTuple):
    """One segment's trips: its legs, and per trip (in zone id order) the
    destination zone id, the egress ride and the (date, period) arrival."""

    legs: SegmentLegs
    zone_ids: Tuple[str, ...]  # shared by every segment of its egress group
    rides: Tuple[ZoneRideStat, ...]  # likewise
    arrivals: Tuple[Tuple[date, DayPeriod], ...]


class Trips:
    """The trips of one evaluation, in segment id then zone id order: a sized
    collection that builds each ``TripRecord`` as it is iterated, and can be
    iterated again.

    It holds one ``SegmentTrips`` per segment, as ``segments``.  An entry's
    zone ids and egress rides are two tuples that every segment exiting in
    its egress group shares, and each arrival is a (date, period) pair that
    ``PeriodClassifier`` shares among the arrivals in a period of a regular
    day.  So a trip costs about one pointer of its own.  ``daily_zone_means``
    and ``analytics.leg_shares`` read the entries; iterating is for callers
    that want records."""

    __slots__ = ("_segments", "_n")

    def __init__(self, segments: List[SegmentTrips]):
        self._segments = segments
        self._n = sum(len(entry.arrivals) for entry in segments)

    @property
    def segments(self) -> List[SegmentTrips]:
        """One entry per segment, in segment id order; not to be modified."""
        return self._segments

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[TripRecord]:
        new = tuple.__new__  # builds a TripRecord in C, not via its Python __new__
        for legs, zone_ids, rides, arrivals in self._segments:
            for zone_id, ride, (day, period) in zip(zone_ids, rides, arrivals):
                yield new(TripRecord, (legs, zone_id, ride, day, period))


@dataclass
class EvaluationReport:
    """Trips produced by a batch evaluation plus per-segment/zone skips, each
    with a reason code: ``"cancelled"`` (one per segment, zone ``"*"``),
    ``"no_access_ride"`` (one per zone of the segment) or ``"no_egress_ride"``
    (no ride statistic at period or daily level for that leg)."""

    trips: Trips
    skipped: List[Tuple[str, str, str]]  # (segment_id, dest_zone_id, reason)


def evaluate_trips(
    segments: Iterable[ScheduledSegment],
    origin_zone: Zone,
    dest_zones: Iterable[Zone],
    rides: RideStatIndex,
    *,
    air_dwell: Optional[DwellProfile] = None,
) -> EvaluationReport:
    """Evaluate every (segment, destination zone) trip, in segment id then
    zone id order.

    Per segment: a cancelled one is skipped; the dwells come from
    ``resolve_dwell``, with ``air_dwell`` for every air station when given;
    the access ride is taken at the local date and period
    of the station-arrival deadline (scheduled departure minus processing
    time), and a missing one skips every zone of the segment; early pushback
    counts no wait, so the departure dwell is never below the processing
    time; the station exit is the actual arrival plus the arrival dwell.
    Per egress group (egress zone, exit date, exit period): the egress rides
    to every zone, looked up once.  Per trip: the final arrival (exit plus
    egress ride), classified by one ``PeriodClassifier`` per arrival
    timezone with the exit date as its hint.  ``rides.lookup`` falls back to
    daily stats; a leg with no statistic at either level is recorded in
    ``skipped`` rather than failing the batch.
    """
    dest_ids = sorted(zone.zone_id for zone in dest_zones)
    origin_id, lookup = origin_zone.zone_id, rides.lookup
    held, skipped = [], []
    # (egress zone, date, period) -> (zone ids with a ride, their rides, zone
    # ids without one)
    groups: Dict[tuple, Tuple[tuple, tuple, tuple]] = {}
    classifiers: Dict[tzinfo, Callable] = {}  # arrival tz -> PeriodClassifier.classify
    for segment in sorted(segments, key=lambda s: s.segment_id):
        segment_id = segment.segment_id
        if segment.cancelled:
            skipped.append((segment_id, "*", "cancelled"))
            continue
        dep_station, arr_station = segment.dep_station, segment.arr_station
        sec_s = resolve_dwell(dep_station, air_dwell).t_sec_departure_s
        arr_s = resolve_dwell(arr_station, air_dwell).t_arr_s
        ride_to = lookup(origin_id, dep_station.zone_id,
                         *local_date_period(segment.sched_dep - sec_s, dep_station.tzinfo))
        if ride_to is None:
            skipped.extend((segment_id, zone_id, "no_access_ride") for zone_id in dest_ids)
            continue
        legs = SegmentLegs(segment, ride_to,
                           dep_s=sec_s + max(0, segment.actual_dep - segment.sched_dep),
                           in_s=segment.actual_arr - segment.actual_dep, arr_s=arr_s)
        arr_tz, egress_zone_id = arr_station.tzinfo, arr_station.zone_id
        exit_s = segment.actual_arr + arr_s
        exit_date, exit_period = local_date_period(exit_s, arr_tz)
        group = (egress_zone_id, exit_date, exit_period)
        egress = groups.get(group)
        if egress is None:
            found = [(zone_id, lookup(egress_zone_id, zone_id, exit_date, exit_period))
                     for zone_id in dest_ids]
            egress = groups[group] = (
                tuple(zone_id for zone_id, ride in found if ride is not None),
                tuple(ride for _, ride in found if ride is not None),
                tuple(zone_id for zone_id, ride in found if ride is None))
        zone_ids, zone_rides, missing = egress
        skipped.extend((segment_id, zone_id, "no_egress_ride") for zone_id in missing)
        if zone_rides:
            classify = classifiers.get(arr_tz)
            if classify is None:
                classify = classifiers[arr_tz] = PeriodClassifier(arr_tz).classify
            held.append(SegmentTrips(legs, zone_ids, zone_rides, tuple(
                [classify(exit_s + ride.mean_s, exit_date) for ride in zone_rides])))
    return EvaluationReport(trips=Trips(held), skipped=skipped)
