"""``evaluate_trips`` against a naive reference that evaluates every
(segment, destination zone) pair on its own, on seeded random networks whose
stations sit in three DST-observing timezones (Lord Howe's shift is 30
minutes) and whose segments cluster around the 2018 offset changes."""

import random
from datetime import date, datetime, time, timedelta
from zoneinfo import ZoneInfo

import pytest

from doortodoor import (
    DayPeriod, DwellProfile, ScheduledSegment, Station, Zone, ZoneRideStat, evaluate_trips,
)

from conftest import ride_index

# Each timezone's 2018 offset changes, as local dates.
CHANGES = {
    "Europe/Paris": (date(2018, 3, 25), date(2018, 10, 28)),
    "America/New_York": (date(2018, 3, 11), date(2018, 11, 4)),
    "Australia/Lord_Howe": (date(2018, 4, 1), date(2018, 10, 7)),
}
RIDE_DATES = sorted({day + timedelta(days=k) for days in CHANGES.values()
                     for day in days for k in range(-3, 5)})
# Period starts in minutes from local midnight, in chronological order.
PERIOD_STARTS = ((0, DayPeriod.EARLY_MORNING), (420, DayPeriod.AM),
                 (600, DayPeriod.MIDDAY), (960, DayPeriod.PM),
                 (1140, DayPeriod.LATE_EVENING))
DAY_S = 86_400


def random_network(rng):
    """Stations, segments, destination zones, ride stats and dwell overrides."""
    stations = []
    for k, tz in enumerate(t for t in CHANGES for _ in range(2)):
        dwell = DwellProfile(rng.choice((15, 60, 90.5, 125)), rng.choice((10, 45, 65)))
        stations.append(Station(f"ST{k}", rng.choice(("air", "rail")), f"SZ{k}",
                                0.0, 0.0, tz, dwell))
    segments = []
    for k in range(40):
        dep, arr = rng.sample(stations, 2)
        tz = rng.choice((dep.tz, arr.tz))
        change = rng.choice(CHANGES[tz])
        midnight = int(datetime.combine(change, time(), ZoneInfo(tz)).timestamp())
        sched_dep = midnight + rng.randrange(-2 * DAY_S, 2 * DAY_S, 60)
        sched_arr = sched_dep + rng.randrange(1800, 14 * 3600, 60)
        fields = dict(segment_id=f"S{k:02d}", mode_id=rng.choice(("air", "rail")),
                      dep_station=dep, arr_station=arr,
                      sched_dep=sched_dep, sched_arr=sched_arr)
        if rng.random() < 0.1:
            segments.append(ScheduledSegment(**fields, cancelled=True))
            continue
        # Early departures, delays of up to 6 h, and a changed flight time.
        actual_dep = sched_dep + rng.choice((rng.randrange(-1800, 0, 60),
                                             rng.randrange(0, 6 * 3600, 60)))
        actual_arr = actual_dep + max(60, sched_arr - sched_dep + rng.randrange(-1800, 1800, 60))
        segments.append(ScheduledSegment(**fields, actual_dep=actual_dep,
                                         actual_arr=actual_arr))
    dest_ids = [f"D{k}" for k in range(5)]
    # Every period bucket and daily aggregate is missing with probability
    # one half, from the origin to every station zone and from every station
    # zone to every destination zone.
    stats = []
    pairs = ([("O", s.zone_id) for s in stations]
             + [(s.zone_id, d) for s in stations for d in dest_ids])
    for origin, dest in pairs:
        for day in RIDE_DATES:
            for period in DayPeriod:
                if rng.random() < 0.5:
                    mean_s = rng.randrange(60, 9 * 3600)
                    stats.append(ZoneRideStat(origin, dest, day, period, mean_s,
                                              rng.randint(1, mean_s),
                                              mean_s + rng.randrange(0, 3600)))
    overrides = None
    if rng.random() < 0.5:
        overrides = {"air": DwellProfile(rng.choice((30, 60)), rng.choice((20, 30)))}
    return segments, dest_ids, stats, overrides


def local_date_and_period(epoch_s, tz):
    local = datetime.fromtimestamp(epoch_s, ZoneInfo(tz))
    minute = local.hour * 60 + local.minute
    return local.date(), [p for start, p in PERIOD_STARTS if start <= minute][-1]


def reference_ride(rides, origin, dest, epoch_s, tz):
    """The ride stat of the instant's local (date, period), else of its
    date's daily aggregate, else None."""
    day, period = local_date_and_period(epoch_s, tz)
    return (rides.get((origin, dest, day, period))
            or rides.get((origin, dest, day, DayPeriod.DAILY_ONLY)))


def reference_trip(segment, dest_id, rides, overrides):
    """One (segment, zone) pair from first principles: the trip's key,
    totals and arrival bucket, or the skip's reason code."""
    dwell_dep, dwell_arr = ((overrides or {}).get(s.kind, s.dwell)
                            for s in (segment.dep_station, segment.arr_station))
    sec_s = round(dwell_dep.t_sec_departure_min * 60)
    arr_s = round(dwell_arr.t_arr_min * 60)
    ride_to = reference_ride(rides, "O", segment.dep_station.zone_id,
                             segment.sched_dep - sec_s, segment.dep_station.tz)
    if ride_to is None:
        return "no_access_ride"
    exit_s = segment.actual_arr + arr_s
    ride_from = reference_ride(rides, segment.arr_station.zone_id, dest_id,
                               exit_s, segment.arr_station.tz)
    if ride_from is None:
        return "no_egress_ride"
    core_s = (sec_s + max(0, segment.actual_dep - segment.sched_dep)
              + segment.actual_arr - segment.actual_dep + arr_s)
    totals = tuple(to + core_s + frm for to, frm in zip(ride_to.values(), ride_from.values()))
    arrival = local_date_and_period(exit_s + ride_from["mean_s"], segment.arr_station.tz)
    return (segment.segment_id, dest_id, *totals, *arrival)


def reference_evaluation(segments, dest_ids, stats, overrides):
    rides = {stat[:4]: {"mean_s": stat.mean_s, "min_s": stat.min_s, "max_s": stat.max_s}
             for stat in stats}
    trips, skipped = [], []
    for segment in sorted(segments, key=lambda s: s.segment_id):
        if segment.cancelled:
            skipped.append((segment.segment_id, "*", "cancelled"))
            continue
        for dest_id in sorted(dest_ids):
            result = reference_trip(segment, dest_id, rides, overrides)
            if isinstance(result, str):
                skipped.append((segment.segment_id, dest_id, result))
            else:
                trips.append(result)
    return trips, skipped


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_trips_matches_the_pairwise_reference(seed):
    rng = random.Random(seed)
    segments, dest_ids, stats, overrides = random_network(rng)
    expected_trips, expected_skipped = reference_evaluation(segments, dest_ids, stats, overrides)

    report = evaluate_trips(rng.sample(segments, len(segments)), Zone("O"),
                            [Zone(d) for d in rng.sample(dest_ids, len(dest_ids))],
                            ride_index(stats), dwell_overrides=overrides)
    trips = [(t.segment_id, t.dest_zone_id, t.total_mean_s, t.total_min_s, t.total_max_s,
              t.arrival_date, t.arrival_period) for t in report.trips]
    assert trips == expected_trips
    assert report.skipped == expected_skipped
    # Every outcome occurs, so each branch of the comparison is exercised.
    reasons = {reason for _, _, reason in expected_skipped}
    assert reasons == {"cancelled", "no_access_ride", "no_egress_ride"} and trips
