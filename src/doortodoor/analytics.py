"""Higher-level studies over evaluated trips and ride statistics: per-phase
leg decomposition, airport road-integration regression, severe-weather
before/after diffs, and passenger-delay sensitivity."""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from datetime import date
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import FitUndefinedError, SensitivityUndefinedError, ValidationError
from .ingestion import RideStatIndex, ZoneCollection, resolve_dwell
from .model import (
    DayPeriod,
    DwellProfile,
    ScheduledSegment,
    Station,
    geodesic_distance,
    local_date_period,
)
from .aggregation import Trips, ZonePeriodSummary

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class LegShare:
    """Mean percentage of trip time spent in each phase, per city pair."""

    city_pair: str
    pct_to: float
    pct_dep: float
    pct_in: float
    pct_arr: float
    pct_from: float
    n_trips: int


def _merge_sums(a: List[int], b: List[int]) -> List[int]:
    """Two partial sums ``[n, den, s_to, s_dep, s_in, s_arr, s_from]`` as one,
    over the lcm of their denominators."""
    d1, d2 = a[1], b[1]
    g = math.gcd(d1, d2)
    k1, k2 = d2 // g, d1 // g
    return [a[0] + b[0], k2 * d2,
            a[2] * k1 + b[2] * k2, a[3] * k1 + b[3] * k2, a[4] * k1 + b[4] * k2,
            a[5] * k1 + b[5] * k2, a[6] * k1 + b[6] * k2]


def leg_shares(trips: Trips) -> List[LegShare]:
    """Average per-phase time shares per city pair, sorted ascending by the
    in-vehicle share.

    Each trip's phase percentages are computed against its own total (so they
    sum to 100 exactly) before averaging.  Every total is at least 2 s, since
    ``load_ride_stats`` requires ``0 < min_s <= mean_s`` of both rides.

    The mean is exact and built in one pass without a rational per trip.  A
    partial sum ``[n, den, s_to, s_dep, s_in, s_arr, s_from]`` stands for n
    trips whose phase-i fractions sum to ``s_i / den``; a trip enters as
    ``[1, total, phase seconds...]``, its segment's legs read once per
    segment (``trips.segments``) and its egress ride per trip, so no
    ``TripRecord`` is built.  Each city pair keeps a stack of partial sums
    that merge like a binary counter, while the top two cover as many trips,
    over the lcm of their denominators; so big integers arise only in the
    last few merges.  The folded stack gives phase i's mean as the rational
    ``100 * s_i / (den * n)``.
    """
    stacks: Dict[str, List[List[int]]] = {}
    # The stack of each (departure, arrival) station id pair, so a city-pair
    # key is built once.
    by_ids: Dict[Tuple[str, str], List[List[int]]] = {}
    for entry in trips.segments:
        legs = entry.legs
        segment = legs.segment
        ids = (segment.dep_station.station_id, segment.arr_station.station_id)
        stack = by_ids.get(ids)
        if stack is None:
            stack = by_ids[ids] = stacks.setdefault("%s-%s" % ids, [])
        exit_s, to_s, dep_s, in_s, arr_s = (
            legs.door_to_exit_s, legs.ride_to.mean_s, legs.dep_s, legs.in_s, legs.arr_s)
        for ride in entry.rides:
            from_s = ride.mean_s
            top = [1, exit_s + from_s, to_s, dep_s, in_s, arr_s, from_s]
            while stack and stack[-1][0] == top[0]:
                top = _merge_sums(stack.pop(), top)
            stack.append(top)
    shares = []
    for pair, stack in stacks.items():
        n, den, *sums = functools.reduce(_merge_sums, reversed(stack))
        means = [Fraction(100 * s, den * n) for s in sums]
        shares.append(
            LegShare(
                city_pair=pair,
                pct_to=float(means[0]),
                pct_dep=float(means[1]),
                pct_in=float(means[2]),
                pct_arr=float(means[3]),
                pct_from=float(means[4]),
                n_trips=n,
            )
        )
    shares.sort(key=lambda s: (s.pct_in, s.city_pair))
    return shares


@dataclass(frozen=True)
class IntegrationFit:
    """OLS fit of mean daily access ride time (minutes) vs geodesic distance
    (km) for one station; a smaller slope means better road integration."""

    station_id: str
    samples: Tuple[Tuple[float, float], ...]  # (distance_km, mean_daily_ride_min)
    slope_min_per_km: float
    intercept_min: float
    max_range_km: float


def _ols(samples: List[Tuple[float, float]]) -> Tuple[float, float]:
    n = len(samples)
    mean_x = sum(x for x, _ in samples) / n
    mean_y = sum(y for _, y in samples) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in samples)
    if sxx == 0:
        raise FitUndefinedError("all samples share one distance; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in samples)
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def airport_integration(
    station: Station,
    rides: RideStatIndex,
    zones: ZoneCollection,
    dates: Iterable[date],
) -> IntegrationFit:
    """Fit mean daily ride time to the station against zone distance.

    Uses daily-aggregate ride rows only (zone -> station zone), averaged over
    the dates where present.  Zones without an internal point are skipped.
    """
    dates = list(dates)
    samples: List[Tuple[float, float]] = []
    for zone in zones:
        if zone.internal_point is None:
            log.warning("zone %s has no internal point; skipped in integration fit",
                        zone.zone_id)
            continue
        daily = [
            stat.mean_s
            for day in dates
            if (stat := rides.get(zone.zone_id, station.zone_id, day,
                                  DayPeriod.DAILY_ONLY)) is not None
        ]
        if not daily:
            continue
        distance = geodesic_distance(zone.internal_point, (station.lat, station.lon))
        samples.append((distance, sum(daily) / len(daily) / 60.0))
    samples.sort()
    if len(samples) < 2:
        raise FitUndefinedError(
            f"station {station.station_id}: need >= 2 zones with daily ride data"
        )
    slope, intercept = _ols(samples)
    return IntegrationFit(
        station_id=station.station_id,
        samples=tuple(samples),
        slope_min_per_km=slope,
        intercept_min=intercept,
        max_range_km=max(x for x, _ in samples),
    )


@dataclass(frozen=True)
class ZoneDelta:
    """Change of a zone's fastest average time between two evaluated dates."""

    zone_id: str
    period: DayPeriod
    e_bar_a_min: Optional[float]
    e_bar_b_min: Optional[float]
    delta_min: Optional[float]  # B - A; None when the zone disappeared/appeared
    disappeared: bool  # present on date A, absent on date B


def weather_diff(
    summaries_a: Dict[Tuple[str, DayPeriod], ZonePeriodSummary],
    summaries_b: Dict[Tuple[str, DayPeriod], ZonePeriodSummary],
) -> List[ZoneDelta]:
    """Per-(zone, period) change in fastest average time between two runs.

    Both inputs must come from identically configured evaluations.  Zones
    present in A but missing in B are flagged disappeared (e.g. ride data
    dried up after a storm); zones only in B are reported with a null delta.
    """
    deltas = []
    for key in sorted(set(summaries_a) | set(summaries_b),
                      key=lambda k: (k[0], k[1].label)):
        zone_id, period = key
        a = summaries_a.get(key)
        b = summaries_b.get(key)
        deltas.append(
            ZoneDelta(
                zone_id=zone_id,
                period=period,
                e_bar_a_min=None if a is None else a.e_bar_min,
                e_bar_b_min=None if b is None else b.e_bar_min,
                delta_min=None if (a is None or b is None)
                else float(b.e_bar_s - a.e_bar_s) / 60.0,
                disappeared=a is not None and b is None,
            )
        )
    return deltas


@dataclass(frozen=True)
class DelaySensitivity:
    """Extra egress travel time induced by a flight's delay, aggregated over
    destination zones: the egress rides of the actual station exit's (date,
    period) bucket minus those of the scheduled exit's.  Every delta is 0
    when the two buckets are the same; a delay of about a day into the same
    period compares two dates."""

    segment_id: str
    scheduled_egress_period: DayPeriod
    actual_egress_period: DayPeriod
    weighted_mean_delta_s: float  # signed; density-weighted mean of zone deltas
    max_of_max_delta_s: float  # signed; worst change of the upper bound
    zones_used: Tuple[str, ...]
    zones_excluded: Tuple[str, ...]


def delay_sensitivity(
    segment: ScheduledSegment,
    rides: RideStatIndex,
    zones: ZoneCollection,
    *,
    air_dwell: Optional[DwellProfile] = None,
) -> DelaySensitivity:
    """Compare egress ride times between the scheduled and actual airport-exit
    (date, period) buckets of one segment.

    Zone deltas are weighted proportionally to population density (uniform
    weights, with a warning, when any density is missing).  Zones lacking a
    period-level ride stat in either bucket are excluded and reported.  A
    cancelled segment is rejected.
    """
    if segment.cancelled:
        raise ValidationError(f"segment {segment.segment_id} is cancelled")
    t_arr_s = resolve_dwell(segment.arr_station, air_dwell).t_arr_s
    arr_tz = segment.arr_station.tzinfo
    sched_date, sched_period = local_date_period(segment.sched_arr + t_arr_s, arr_tz)
    actual_date, actual_period = local_date_period(segment.actual_arr + t_arr_s, arr_tz)

    station_zone = segment.arr_station.zone_id
    used: List[Tuple[str, int, int]] = []  # (zone_id, mean_delta_s, max_delta_s)
    excluded: List[str] = []
    for zone in zones:
        sched_stat = rides.get(station_zone, zone.zone_id, sched_date, sched_period)
        actual_stat = rides.get(station_zone, zone.zone_id, actual_date, actual_period)
        if sched_stat is None or actual_stat is None:
            excluded.append(zone.zone_id)
            continue
        used.append((
            zone.zone_id,
            actual_stat.mean_s - sched_stat.mean_s,
            actual_stat.max_s - sched_stat.max_s,
        ))
    if not used:
        raise SensitivityUndefinedError(
            f"segment {segment.segment_id}: no zone has ride stats in both "
            f"{sched_period.label} and {actual_period.label}"
        )

    densities = [zones[z].population_density for z, _, _ in used]
    if any(d is None for d in densities) or sum(densities) == 0:
        log.warning("segment %s: missing population densities; uniform weights",
                    segment.segment_id)
        weights = [1] * len(used)
    else:
        weights = [Fraction(d) for d in densities]
    weighted_mean = Fraction(sum(w * delta for w, (_, delta, _) in zip(weights, used)),
                             sum(weights))
    max_of_max = max(delta for _, _, delta in used)

    return DelaySensitivity(
        segment_id=segment.segment_id,
        scheduled_egress_period=sched_period,
        actual_egress_period=actual_period,
        weighted_mean_delta_s=float(weighted_mean),
        max_of_max_delta_s=float(max_of_max),
        zones_used=tuple(z for z, _, _ in used),
        zones_excluded=tuple(excluded),
    )
