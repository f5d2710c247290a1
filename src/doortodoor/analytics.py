"""Higher-level studies over evaluated trips and ride statistics: per-phase
leg decomposition, airport road-integration regression, severe-weather
before/after diffs, and passenger-delay sensitivity."""

from __future__ import annotations

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
    TripRecord,
    geodesic_distance,
    local_date_period,
)
from .aggregation import ZonePeriodSummary

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


def leg_shares(trips: Iterable[TripRecord]) -> List[LegShare]:
    """Average per-phase time shares per city pair, sorted ascending by the
    in-vehicle share.

    Each trip's phase percentages are computed against its own total (so they
    sum to 100 exactly) before averaging.  Zero-total trips are excluded.

    The mean is exact and built without a rational per trip: trips with the
    same total share a denominator, so phase seconds (read off the trip's
    legs and egress ride) are summed as integers per (city pair, total), and
    the mean of phase i over the n trips of a pair is the single rational
    ``100 * sum_t(S_i(t) * (L // t)) / (L * n)`` with ``L = lcm(totals)``.
    """
    # pair -> total -> [sum to, sum dep, sum in, sum arr, sum from, count]
    groups: Dict[str, Dict[int, List[int]]] = {}
    for trip in trips:
        legs, from_s = trip.legs, trip.ride_from.mean_s
        total = legs.door_to_exit_s + from_s
        if total <= 0:
            log.warning("trip %s has zero total time; excluded from leg shares",
                        trip.segment_id)
            continue
        pair = f"{trip.dep_station_id}-{trip.arr_station_id}"
        sums = groups.setdefault(pair, {}).setdefault(total, [0] * 6)
        sums[0] += legs.ride_to.mean_s
        sums[1] += legs.dep_s
        sums[2] += legs.in_s
        sums[3] += legs.arr_s
        sums[4] += from_s
        sums[5] += 1
    shares = []
    for pair, by_total in groups.items():
        n = sum(sums[5] for sums in by_total.values())
        lcm = math.lcm(*by_total)
        numerators = [0] * 5
        for total, sums in by_total.items():
            scale = lcm // total
            for i in range(5):
                numerators[i] += sums[i] * scale
        means = [Fraction(100 * num, lcm * n) for num in numerators]
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
            if (stat := rides.get_exact(zone.zone_id, station.zone_id, day,
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
    dwell_overrides: Optional[Dict[str, DwellProfile]] = None,
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
    t_arr_s = resolve_dwell(segment.arr_station, dwell_overrides).t_arr_s
    arr_tz = segment.arr_station.tzinfo
    sched_date, sched_period = local_date_period(segment.sched_arr + t_arr_s, arr_tz)
    actual_date, actual_period = local_date_period(segment.actual_arr + t_arr_s, arr_tz)

    station_zone = segment.arr_station.zone_id
    used: List[Tuple[str, int, int]] = []  # (zone_id, mean_delta_s, max_delta_s)
    excluded: List[str] = []
    for zone in zones:
        sched_stat = rides.get_exact(station_zone, zone.zone_id,
                                     sched_date, sched_period)
        actual_stat = rides.get_exact(station_zone, zone.zone_id,
                                      actual_date, actual_period)
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
    if any(d is None for d in densities) or sum(densities or [0]) == 0:
        log.warning("segment %s: missing population densities; uniform weights",
                    segment.segment_id)
        weights = [Fraction(1, len(used))] * len(used)
    else:
        total = Fraction(sum(Fraction(d) for d in densities))
        weights = [Fraction(d) / total for d in densities]

    weighted_mean = sum(w * delta for w, (_, delta, _) in zip(weights, used))
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
