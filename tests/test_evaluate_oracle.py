"""``evaluate_trips`` against a naive reference that evaluates every
(segment, destination zone) pair on its own, on seeded random networks whose
stations sit in three DST-observing timezones (Lord Howe's shift is 30
minutes).  Dated segments cluster around the 2018 offset changes; weekly
rows, some arriving after midnight, are expanded over the week around each
change.  The same trips then go through the group-by and ``leg_shares``,
compared with those layers' brute-force oracles."""

import random
from dataclasses import astuple
from datetime import date, datetime, time, timedelta
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple
from zoneinfo import ZoneInfo

import pytest

from doortodoor import (
    DayPeriod, DwellProfile, ScheduledSegment, Station, Zone,
    daily_zone_means, evaluate_trips, expand_weekly_schedule, leg_shares, summarize,
)
from doortodoor.ingestion import WEEKLY_HEADER

from conftest import ride_index, trip_facts
from test_aggregation import oracle_daily_means, oracle_fastest_time, oracle_winner_counts
from test_analytics import oracle_leg_shares

# Each timezone's 2018 offset changes, as local dates.
CHANGES = {
    "Europe/Paris": (date(2018, 3, 25), date(2018, 10, 28)),
    "America/New_York": (date(2018, 3, 11), date(2018, 11, 4)),
    "Australia/Lord_Howe": (date(2018, 4, 1), date(2018, 10, 7)),
}
RIDE_DATES = sorted({day + timedelta(days=k) for days in CHANGES.values()
                     for day in days for k in range(-3, 5)})
# The weekly schedule is expanded over the seven days centred on each change.
WEEKS = sorted((day - timedelta(days=3), day + timedelta(days=3))
               for days in CHANGES.values() for day in days)
# Period starts in minutes from local midnight, in chronological order.
PERIOD_STARTS = ((0, DayPeriod.EARLY_MORNING), (420, DayPeriod.AM),
                 (600, DayPeriod.MIDDAY), (960, DayPeriod.PM),
                 (1140, DayPeriod.LATE_EVENING))
DAY_S = 86_400


class WeeklyRow(NamedTuple):
    """One row of a weekly schedule file."""

    mode_id: str
    dep_station_id: str
    arr_station_id: str
    days: Tuple[bool, ...]  # Mo..Su
    dep_time: time
    arr_time: time


def write_weekly_csv(path, rows):
    """Write weekly rows as a weekly schedule file, and return its path."""
    path.write_text("".join(
        f"{line}\n" for line in [WEEKLY_HEADER, *(
            f"{r.mode_id},{r.dep_station_id},{r.arr_station_id},"
            f"{''.join('01'[on] for on in r.days)},{r.dep_time:%H:%M},{r.arr_time:%H:%M}"
            for r in rows)]))
    return path


class Network(NamedTuple):
    stations: dict
    dated: list  # ScheduledSegment
    weekly: list  # WeeklyRow
    dest_ids: list
    rows: list  # (origin, dest, date, period, mean_s, min_s, max_s)
    air_dwell: Optional[DwellProfile]  # every air station's, when overridden


def reference_expansion(rows, stations, start, end):
    """Each weekly row's on-time segment on each of its weekdays in [start,
    end]: clock times in each station's timezone, the arrival on the next
    date when its clock time is before the departure's."""
    segments = []
    for row in rows:
        dep, arr = stations[row.dep_station_id], stations[row.arr_station_id]
        for n in range((end - start).days + 1):
            day = start + timedelta(days=n)
            if not row.days[day.weekday()]:
                continue
            arr_day = day + timedelta(days=int(row.arr_time < row.dep_time))
            sched_dep = int(datetime.combine(day, row.dep_time, ZoneInfo(dep.tz)).timestamp())
            sched_arr = int(datetime.combine(arr_day, row.arr_time,
                                             ZoneInfo(arr.tz)).timestamp())
            if sched_arr <= sched_dep:
                return None
            segments.append(ScheduledSegment(
                f"{row.mode_id}_{day.isoformat()}_{row.dep_time:%H%M}", row.mode_id,
                dep, arr, sched_dep, sched_arr, sched_dep, sched_arr))
    return segments


def random_weekly_rows(rng, stations):
    """Eight weekly rows between random stations, of 1.5 to 14 hours each,
    with distinct departure clock times; a row whose arrival would not follow
    its departure on some date of ``WEEKS`` is redrawn."""
    rows, taken = [], set()
    while len(rows) < 8:
        dep, arr = rng.sample(list(stations.values()), 2)
        dep_min = rng.randrange(5 * 60, 24 * 60)
        if dep_min in taken:
            continue
        dep_time = time(dep_min // 60, dep_min % 60)
        start = datetime.combine(WEEKS[0][0], dep_time, ZoneInfo(dep.tz))
        arrival = start + timedelta(minutes=rng.randrange(90, 14 * 60))
        chosen = rng.sample(range(7), rng.randint(1, 7))
        row = WeeklyRow(rng.choice(("air", "rail")), dep.station_id, arr.station_id,
                        tuple(d in chosen for d in range(7)), dep_time,
                        arrival.astimezone(ZoneInfo(arr.tz)).time())
        if all(reference_expansion([row], stations, *week) is not None for week in WEEKS):
            rows.append(row)
            taken.add(dep_min)
    return rows


def random_network(rng):
    stations = {}
    for k, tz in enumerate(t for t in CHANGES for _ in range(2)):
        dwell = DwellProfile(rng.choice((15, 60, 90.5, 125)), rng.choice((10, 45, 65)))
        stations[f"ST{k}"] = Station(f"ST{k}", rng.choice(("air", "rail")), f"SZ{k}",
                                     0.0, 0.0, tz, dwell)
    dated = []
    for k in range(40):
        dep, arr = rng.sample(list(stations.values()), 2)
        tz = rng.choice((dep.tz, arr.tz))
        change = rng.choice(CHANGES[tz])
        midnight = int(datetime.combine(change, time(), ZoneInfo(tz)).timestamp())
        sched_dep = midnight + rng.randrange(-2 * DAY_S, 2 * DAY_S, 60)
        sched_arr = sched_dep + rng.randrange(1800, 14 * 3600, 60)
        fields = dict(segment_id=f"S{k:02d}", mode_id=rng.choice(("air", "rail")),
                      dep_station=dep, arr_station=arr,
                      sched_dep=sched_dep, sched_arr=sched_arr)
        if rng.random() < 0.1:
            dated.append(ScheduledSegment(**fields, cancelled=True))
            continue
        # Early departures, delays of up to 6 h, and a changed flight time.
        actual_dep = sched_dep + rng.choice((rng.randrange(-1800, 0, 60),
                                             rng.randrange(0, 6 * 3600, 60)))
        actual_arr = actual_dep + max(60, sched_arr - sched_dep + rng.randrange(-1800, 1800, 60))
        dated.append(ScheduledSegment(**fields, actual_dep=actual_dep,
                                      actual_arr=actual_arr))
    weekly = random_weekly_rows(rng, stations)
    dest_ids = [f"D{k}" for k in range(5)]
    # Every period bucket and daily aggregate is missing with probability
    # one half, from the origin to every station zone and from every station
    # zone to every destination zone.
    rows = []
    zone_ids = [s.zone_id for s in stations.values()]
    pairs = [("O", z) for z in zone_ids] + [(z, d) for z in zone_ids for d in dest_ids]
    for origin, dest in pairs:
        for day in RIDE_DATES:
            for period in DayPeriod:
                if rng.random() < 0.5:
                    mean_s = rng.randrange(60, 9 * 3600)
                    rows.append((origin, dest, day, period, mean_s,
                                 rng.randint(1, mean_s), mean_s + rng.randrange(0, 3600)))
    air_dwell = None
    if rng.random() < 0.5:
        air_dwell = DwellProfile(rng.choice((30, 60)), rng.choice((20, 30)))
    dated += on_period_start_segments(rng, stations, dest_ids, rows, air_dwell)
    return Network(stations, dated, weekly, dest_ids, rows, air_dwell)


def station_dwell(station, air_dwell):
    """A station's dwell: its own, or ``air_dwell`` for an air station when
    that is given."""
    return air_dwell if air_dwell and station.kind == "air" else station.dwell


def on_period_start_segments(rng, stations, dest_ids, rows, air_dwell):
    """Six on-time segments, each with a trip that arrives exactly on a
    period start (07:00 to 19:00 local) of a ride date: rows
    for the access and the egress ride of the trip are appended to ``rows``,
    where a later row replaces an earlier one with the same key."""
    segments = []
    for k in range(6):
        dep, arr = rng.sample(list(stations.values()), 2)
        dwell_dep, dwell_arr = (station_dwell(s, air_dwell) for s in (dep, arr))
        start_min, _ = rng.choice(PERIOD_STARTS[1:])
        arrival_s = int(datetime.combine(rng.choice(RIDE_DATES),
                                         time(start_min // 60, start_min % 60),
                                         ZoneInfo(arr.tz)).timestamp())
        egress_mean_s = rng.randrange(60, 3 * 3600)
        exit_s = arrival_s - egress_mean_s
        actual_arr = exit_s - round(dwell_arr.t_arr_min * 60)
        actual_dep = actual_arr - rng.randrange(1800, 8 * 3600, 60)
        access_s = actual_dep - round(dwell_dep.t_sec_departure_min * 60)
        for origin, dest, epoch_s, tz, mean_s in (
                ("O", dep.zone_id, access_s, dep.tz, rng.randrange(60, 3 * 3600)),
                (arr.zone_id, rng.choice(dest_ids), exit_s, arr.tz, egress_mean_s)):
            rows.append((origin, dest, *local_date_and_period(epoch_s, tz),
                         mean_s, mean_s, mean_s + 60))
        segments.append(ScheduledSegment(f"T{k}", rng.choice(("air", "rail")), dep, arr,
                                         actual_dep, actual_arr, actual_dep, actual_arr))
    return segments


class Trip(NamedTuple):
    """One trip's outcome, under the attribute names the layer oracles read."""

    segment_id: str
    dest_zone_id: str
    mode_id: str
    city_pair: str
    phases: Tuple[int, ...]  # access ride, departure dwell, in vehicle, arrival dwell, egress
    total_mean_s: int
    total_min_s: int
    total_max_s: int
    arrival_date: date
    arrival_period: DayPeriod
    used_daily_fallback_to: bool
    used_daily_fallback_from: bool


def observed(trip):
    """The kernel's ``TripRecord`` as a ``Trip``."""
    legs, facts = trip.legs, trip_facts(trip)
    segment = legs.segment
    return Trip(facts.segment_id, trip.dest_zone_id, facts.mode_id,
                f"{segment.dep_station.station_id}-{segment.arr_station.station_id}",
                (legs.ride_to.mean_s, legs.dep_s, legs.in_s, legs.arr_s, trip.ride_from.mean_s),
                facts.total_mean_s, facts.total_min_s, facts.total_max_s,
                trip.arrival_date, trip.arrival_period,
                trip.used_daily_fallback_to, trip.used_daily_fallback_from)


def local_date_and_period(epoch_s, tz):
    local = datetime.fromtimestamp(epoch_s, ZoneInfo(tz))
    minute = local.hour * 60 + local.minute
    return local.date(), [p for start, p in PERIOD_STARTS if start <= minute][-1]


def reference_ride(rides, origin, dest, epoch_s, tz):
    """``(mean, min, max)`` of the instant's local (date, period) and False,
    else of its date's daily aggregate and True, else None."""
    day, period = local_date_and_period(epoch_s, tz)
    for bucket in (period, DayPeriod.DAILY_ONLY):
        if (origin, dest, day, bucket) in rides:
            return rides[(origin, dest, day, bucket)], bucket is DayPeriod.DAILY_ONLY
    return None


def reference_trip(segment, dest_id, rides, air_dwell):
    """One (segment, zone) pair from first principles: a ``Trip``, or the
    skip's reason code."""
    dwell_dep, dwell_arr = (station_dwell(s, air_dwell)
                            for s in (segment.dep_station, segment.arr_station))
    sec_s = round(dwell_dep.t_sec_departure_min * 60)
    arr_s = round(dwell_arr.t_arr_min * 60)
    access = reference_ride(rides, "O", segment.dep_station.zone_id,
                            segment.sched_dep - sec_s, segment.dep_station.tz)
    if access is None:
        return "no_access_ride"
    exit_s = segment.actual_arr + arr_s
    egress = reference_ride(rides, segment.arr_station.zone_id, dest_id,
                            exit_s, segment.arr_station.tz)
    if egress is None:
        return "no_egress_ride"
    (ride_to, daily_to), (ride_from, daily_from) = access, egress
    dep_s = sec_s + max(0, segment.actual_dep - segment.sched_dep)
    in_s = segment.actual_arr - segment.actual_dep
    core_s = dep_s + in_s + arr_s
    totals = [to + core_s + frm for to, frm in zip(ride_to, ride_from)]
    arrival = local_date_and_period(exit_s + ride_from[0], segment.arr_station.tz)
    return Trip(segment.segment_id, dest_id, segment.mode_id,
                f"{segment.dep_station.station_id}-{segment.arr_station.station_id}",
                (ride_to[0], dep_s, in_s, arr_s, ride_from[0]), *totals, *arrival,
                daily_to, daily_from)


def reference_evaluation(segments, dest_ids, rows, air_dwell):
    rides = {row[:4]: row[4:] for row in rows}
    trips, skipped = [], []
    for segment in sorted(segments, key=lambda s: s.segment_id):
        if segment.cancelled:
            skipped.append((segment.segment_id, "*", "cancelled"))
            continue
        for dest_id in sorted(dest_ids):
            result = reference_trip(segment, dest_id, rides, air_dwell)
            if isinstance(result, str):
                skipped.append((segment.segment_id, dest_id, result))
            else:
                trips.append(result)
    return trips, skipped


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_trips_matches_the_pairwise_reference(tmp_path, seed):
    rng = random.Random(seed)
    net = random_network(rng)
    path = write_weekly_csv(tmp_path / "weekly.csv", net.weekly)
    weekly = [s for week in WEEKS for s in expand_weekly_schedule(path, net.stations, *week)]
    reference_weekly = [s for week in WEEKS
                        for s in reference_expansion(net.weekly, net.stations, *week)]
    expected_trips, expected_skipped = reference_evaluation(
        net.dated + reference_weekly, net.dest_ids, net.rows, net.air_dwell)

    segments = net.dated + weekly
    report = evaluate_trips(rng.sample(segments, len(segments)), Zone("O"),
                            [Zone(d) for d in rng.sample(net.dest_ids, len(net.dest_ids))],
                            ride_index(net.rows), air_dwell=net.air_dwell)
    assert [observed(t) for t in report.trips] == expected_trips
    assert report.skipped == expected_skipped
    # Every outcome occurs, so each branch of the comparison is exercised.
    reasons = {reason for _, _, reason in expected_skipped}
    assert reasons == {"cancelled", "no_access_ride", "no_egress_ride"}
    assert {t.used_daily_fallback_to for t in expected_trips} == {False, True}
    assert {t.used_daily_fallback_from for t in expected_trips} == {False, True}
    overnight_rows = [row for row in net.weekly if row.arr_time < row.dep_time]
    overnight = {s.segment_id for week in WEEKS
                 for s in reference_expansion(overnight_rows, net.stations, *week)}
    assert any(t.segment_id in overnight for t in expected_trips)
    # Some arrivals fall exactly on a period start after midnight, where a
    # classifier that bisected to the left would give the period before.
    by_id = {s.segment_id: s for s in net.dated}
    starts = {(start_min, 0) for start_min, _ in PERIOD_STARTS[1:]}
    on_start = 0
    for trip in expected_trips:
        if trip.segment_id in by_id:
            segment = by_id[trip.segment_id]
            local = datetime.fromtimestamp(segment.actual_arr + sum(trip.phases[3:]),
                                           ZoneInfo(segment.arr_station.tz))
            on_start += (local.hour * 60 + local.minute, local.second) in starts
    assert on_start

    # The group-by and leg shares of the kernel's trips equal the layer
    # oracles on the reference trips.
    cells = daily_zone_means(report.trips)
    expected_means = oracle_daily_means(expected_trips, facts=lambda trip: trip)
    assert {key: (Fraction(total, n), Fraction(spread, n), n)
            for key, (total, spread, n) in cells.items()} == expected_means
    day_means = {key: (e, v) for key, (e, v, _) in expected_means.items()}
    summaries = summarize(cells)
    assert {k: s.n_by_mode for k, s in summaries.items()} == oracle_winner_counts(day_means, 0)
    assert ({k: s.reliability_by_mode for k, s in summaries.items()}
            == oracle_winner_counts(day_means, 1))
    assert {k: s.e_bar_s for k, s in summaries.items()} == oracle_fastest_time(day_means)
    assert ([(s.city_pair, astuple(s)[1:6], s.n_trips) for s in leg_shares(report.trips)]
            == oracle_leg_shares((t.city_pair, t.phases) for t in expected_trips))
