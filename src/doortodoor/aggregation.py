"""Trip evaluation and its group-by reductions.

``evaluate_trips`` runs the trip model over every (segment, destination
zone) pair, in one process: the per-segment work once per segment
(``segment_legs``), the egress-ride lookups once per egress group (egress
zone, egress date, egress period; ``egress_rides``), and per trip only the
arrival, classified by one ``PeriodClassifier`` per arrival timezone
(``zone_trips``).
``daily_zone_means`` groups the trips into (zone, date, period, mode) cells
of door-to-door time and variability.  ``summarize`` reduces those in one
pass per (zone, period): the days each mode was fastest, the days each mode
was most reliable, and the fastest average time.  ``bin_zone_counts`` bins
the summaries into reporting bands.

Each day cell is an integer (sum, n) pair of seconds, and two cells' means
are compared by cross-multiplication (``t_a * n_b < t_b * n_a``), so results
are exact, independent of summation order and safe to compare with zero
tolerance.  The only rational built is one ``Fraction`` per summary, its
fastest average time.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, tzinfo
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .ingestion import RideStatIndex, resolve_dwell
from .model import (
    DayPeriod, DwellProfile, PeriodClassifier, ScheduledSegment, TripRecord, Zone,
    egress_rides, segment_legs, zone_trips,
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


class ZonePeriodDayStat(NamedTuple):
    """Per (zone, date, period, mode) sums over one day's trips, in integer
    seconds: the cell's means are ``total_s / n_trips`` and
    ``spread_s / n_trips``, exposed as exact ``e_s`` and ``v_s``."""

    zone_id: str
    period: DayPeriod
    date: date
    mode_id: str
    total_s: int  # sum of door-to-door totals
    spread_s: int  # sum of (max-variant total - min-variant total)
    n_trips: int

    @property
    def e_s(self) -> Fraction:
        """Mean door-to-door total, seconds."""
        return Fraction(self.total_s, self.n_trips)

    @property
    def v_s(self) -> Fraction:
        """Mean variability (max-variant minus min-variant total), seconds."""
        return Fraction(self.spread_s, self.n_trips)


@dataclass(frozen=True)
class ZonePeriodSummary:
    """Per (zone, period) roll-up over the date range."""

    zone_id: str
    period: DayPeriod
    n_by_mode: Dict[str, int]
    reliability_by_mode: Dict[str, int]
    fastest_mode: str
    most_reliable_mode: str
    e_bar_s: Fraction
    days_used: int
    days_total: int

    @property
    def e_bar_min(self) -> float:
        return float(self.e_bar_s) / 60.0

    @property
    def interval_bin(self) -> str:
        return interval_bin(self.e_bar_s / 60)


def daily_zone_means(trips: Iterable[TripRecord]) -> List[ZonePeriodDayStat]:
    """Summed door-to-door time and variability per (zone, date, period,
    mode), bucketing each trip by the date and period of its final arrival."""
    # (zone, date, period, mode) -> [sum total, sum variability, count]
    cells: Dict[tuple, List[int]] = {}
    for trip in trips:
        legs, ride = trip.legs, trip.ride_from
        key = (trip.dest_zone_id, trip.arrival_date, trip.arrival_period, legs.segment.mode_id)
        sums = cells.get(key)
        if sums is None:
            sums = cells[key] = [0, 0, 0]
        sums[0] += legs.door_to_exit_s + ride.mean_s
        sums[1] += legs.to_spread_s + ride.max_s - ride.min_s
        sums[2] += 1
    return [
        ZonePeriodDayStat(zone_id, period, when, mode_id, total, spread, n)
        for (zone_id, when, period, mode_id), (total, spread, n) in cells.items()
    ]


def _argmax_mode(counts: Dict[str, int]) -> str:
    # Highest count wins; ties broken by lexicographically smallest mode id.
    best = max(counts.values())
    return min(m for m, c in counts.items() if c == best)


def summarize(day_stats: Iterable[ZonePeriodDayStat]) -> List[ZonePeriodSummary]:
    """One summary per (zone, period), sorted by zone and period label.

    On each day, every mode with the lowest mean time counts one in
    ``n_by_mode`` and every mode with the lowest variability counts one in
    ``reliability_by_mode`` (ties count every minimal mode; a mode seen on
    any day of the cell is listed, with 0 if it never wins).  The fastest and
    most reliable modes are those counted most often.  ``e_bar_s`` averages
    the daily lowest mean time over the ``days_used`` days the cell has
    data; ``days_total`` is the number of distinct dates in the whole input.
    """
    cells: Dict[Tuple[str, DayPeriod], Dict[date, List[ZonePeriodDayStat]]] = {}
    for stat in day_stats:
        days = cells.setdefault((stat.zone_id, stat.period), {})
        days.setdefault(stat.date, []).append(stat)
    days_total = len({day for days in cells.values() for day in days})
    summaries = []
    for (zone_id, period), days in cells.items():
        fastest: Dict[str, int] = {}
        reliable: Dict[str, int] = {}
        # Sum of the daily minimum means, as minima_num / minima_den with
        # minima_den the lcm of the minima's trip counts.
        minima_num, minima_den = 0, 1
        for stats in days.values():
            # The day's minimum mean time e_t / e_n and variability v_t / v_n;
            # means t / n compare as t_a * n_b < t_b * n_a.
            first = stats[0]
            e_t, e_n = first.total_s, first.n_trips
            v_t, v_n = first.spread_s, first.n_trips
            for s in stats:
                n = s.n_trips
                if s.total_s * e_n < e_t * n:
                    e_t, e_n = s.total_s, n
                if s.spread_s * v_n < v_t * n:
                    v_t, v_n = s.spread_s, n
            for s in stats:
                n, mode_id = s.n_trips, s.mode_id
                fastest[mode_id] = fastest.get(mode_id, 0) + (s.total_s * e_n == e_t * n)
                reliable[mode_id] = reliable.get(mode_id, 0) + (s.spread_s * v_n == v_t * n)
            g = gcd(minima_den, e_n)
            minima_num = minima_num * (e_n // g) + e_t * (minima_den // g)
            minima_den = minima_den // g * e_n
        summaries.append(
            ZonePeriodSummary(
                zone_id=zone_id,
                period=period,
                n_by_mode=dict(sorted(fastest.items())),
                reliability_by_mode=dict(sorted(reliable.items())),
                fastest_mode=_argmax_mode(fastest),
                most_reliable_mode=_argmax_mode(reliable),
                e_bar_s=Fraction(minima_num, minima_den * len(days)),
                days_used=len(days),
                days_total=days_total,
            )
        )
    summaries.sort(key=lambda s: (s.zone_id, s.period.label))
    return summaries


def bin_zone_counts(summaries: Iterable[ZonePeriodSummary]) -> Dict[Tuple[str, DayPeriod, str], int]:
    """Count (zone, period) summaries per (fastest mode, period, time band)."""
    counts: Dict[Tuple[str, DayPeriod, str], int] = {}
    for summary in summaries:
        key = (summary.fastest_mode, summary.period, summary.interval_bin)
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass
class EvaluationReport:
    """Trips produced by a batch evaluation plus per-segment/zone skips, each
    with a reason code: ``"cancelled"`` (one per segment, zone ``"*"``),
    ``"no_access_ride"`` (one per zone of the segment) or ``"no_egress_ride"``
    (no ride statistic at period or daily level for that leg)."""

    trips: List[TripRecord]
    skipped: List[Tuple[str, str, str]]  # (segment_id, dest_zone_id, reason)


def evaluate_trips(
    segments: Iterable[ScheduledSegment],
    origin_zone: Zone,
    dest_zones: Iterable[Zone],
    rides: RideStatIndex,
    *,
    dwell_overrides: Optional[Dict[str, DwellProfile]] = None,
) -> EvaluationReport:
    """Evaluate every (segment, destination zone) trip, in segment id then
    zone id order.

    The destination-independent part of each segment's trips is evaluated
    once per segment (``segment_legs``).  The egress rides are looked up once
    per egress group (``egress_rides``), and every segment of the group
    completes its trips from them (``zone_trips``), with one arrival-period
    classifier per timezone for the call.  Cancelled segments are skipped.
    Zone/segment combinations lacking ride statistics are recorded in
    ``skipped`` rather than failing the batch; a missing access ride skips
    every zone of the segment.
    """
    dest_zones = sorted(dest_zones, key=lambda z: z.zone_id)
    trips, skipped = [], []
    groups: Dict[tuple, tuple] = {}  # (egress zone, date, period) -> egress_rides
    classifiers: Dict[tzinfo, PeriodClassifier] = {}  # arrival tz -> classifier
    for segment in sorted(segments, key=lambda s: s.segment_id):
        if segment.cancelled:
            skipped.append((segment.segment_id, "*", "cancelled"))
            continue
        legs = segment_legs(
            segment,
            origin_zone,
            resolve_dwell(segment.dep_station, dwell_overrides),
            resolve_dwell(segment.arr_station, dwell_overrides),
            rides,
        )
        if legs is None:
            skipped.extend((segment.segment_id, zone.zone_id, "no_access_ride")
                           for zone in dest_zones)
            continue
        group = (segment.arr_station.zone_id, legs.egress_date, legs.egress_period)
        zone_rides = groups.get(group)
        if zone_rides is None:
            zone_rides = groups[group] = egress_rides(legs, dest_zones, rides)
        arrival = classifiers.get(legs.arr_tz)
        if arrival is None:
            arrival = classifiers[legs.arr_tz] = PeriodClassifier(legs.arr_tz)
        segment_trips, segment_skipped = zone_trips(legs, zone_rides, arrival)
        trips += segment_trips
        skipped += segment_skipped
    return EvaluationReport(trips=trips, skipped=skipped)
