"""Trip evaluation and its group-by reductions.

``evaluate_trips`` runs the per-trip model over every (segment, destination
zone) pair, in one process, doing the per-segment work once per segment.
``daily_zone_means`` groups the trips into (zone, date, period, mode) means
of door-to-door time and variability, summing integer seconds per cell.
``summarize`` reduces those in one pass per (zone, period): the days each
mode was fastest, the days each mode was most reliable, and the fastest
average time.  ``bin_zone_counts`` bins the summaries into reporting bands.

All means are kept as exact Fractions of integer seconds so results are
independent of summation order and safe to compare with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import TripNotComputableError
from .ingestion import RideStatIndex, resolve_dwell
from .model import (
    DayPeriod, DwellProfile, ScheduledSegment, TripRecord, Zone, segment_legs, zone_trip,
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


@dataclass(frozen=True)
class ZonePeriodDayStat:
    """Per (zone, date, period, mode) aggregate over one day's trips."""

    zone_id: str
    period: DayPeriod
    date: date
    mode_id: str
    e_s: Fraction  # mean door-to-door total, seconds
    v_s: Fraction  # mean (max-variant total - min-variant total), seconds
    n_trips: int


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
    """Mean door-to-door time and variability per (zone, date, period, mode),
    bucketing each trip by the date and period of its final arrival."""
    # (zone, date, period, mode) -> [sum total, sum variability, count] in
    # integer seconds, then one Fraction per mean.
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
    stats = [
        ZonePeriodDayStat(zone_id=zone_id, period=period, date=when, mode_id=mode_id,
                          e_s=Fraction(total, n), v_s=Fraction(spread, n), n_trips=n)
        for (zone_id, when, period, mode_id), (total, spread, n) in cells.items()
    ]
    stats.sort(key=lambda s: (s.zone_id, s.date, s.period.label, s.mode_id))
    return stats


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
        minima_sum = Fraction(0)
        for stats in days.values():
            best_e = min(s.e_s for s in stats)
            best_v = min(s.v_s for s in stats)
            minima_sum += best_e
            for s in stats:
                fastest[s.mode_id] = fastest.get(s.mode_id, 0) + (s.e_s == best_e)
                reliable[s.mode_id] = reliable.get(s.mode_id, 0) + (s.v_s == best_v)
        summaries.append(
            ZonePeriodSummary(
                zone_id=zone_id,
                period=period,
                n_by_mode=dict(sorted(fastest.items())),
                reliability_by_mode=dict(sorted(reliable.items())),
                fastest_mode=_argmax_mode(fastest),
                most_reliable_mode=_argmax_mode(reliable),
                e_bar_s=minima_sum / len(days),
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
    """Trips produced by a batch evaluation plus per-segment/zone skips."""

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
    once per segment (``segment_legs``), then completed per zone
    (``zone_trip``).  Cancelled segments are skipped.  Zone/segment
    combinations lacking ride statistics are recorded in ``skipped`` rather
    than failing the batch; a missing access ride skips every zone of the
    segment.
    """
    dest_zones = sorted(dest_zones, key=lambda z: z.zone_id)
    trips, skipped = [], []
    for segment in sorted(segments, key=lambda s: s.segment_id):
        if segment.cancelled:
            skipped.append((segment.segment_id, "*", "cancelled"))
            continue
        try:
            legs = segment_legs(
                segment,
                origin_zone,
                resolve_dwell(segment.dep_station, dwell_overrides),
                resolve_dwell(segment.arr_station, dwell_overrides),
                rides,
            )
        except TripNotComputableError as exc:
            skipped.extend((segment.segment_id, zone.zone_id, str(exc)) for zone in dest_zones)
            continue
        for zone in dest_zones:
            try:
                trips.append(zone_trip(legs, zone, rides))
            except TripNotComputableError as exc:
                skipped.append((segment.segment_id, zone.zone_id, str(exc)))
    return EvaluationReport(trips=trips, skipped=skipped)
