"""Shared builders for synthetic trips, segments and ride-stat indexes."""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from datetime import date
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest

from doortodoor import (
    DayPeriod,
    RideStatIndex,
    ScheduledSegment,
    Station,
    TripRecord,
    Zone,
    ZoneRideStat,
    evaluate_trips,
)
from doortodoor.aggregation import SegmentTrips, Trips
from doortodoor.ingestion import SLOTS, _parse_local_ts
from doortodoor.model import PERIOD_BY_CODE, SegmentLegs

AMS_TZ = "Europe/Amsterdam"
PAR_TZ = "Europe/Paris"


def tree(path: Path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*") if p.is_file())


def assert_trees_identical(a: Path, b: Path):
    assert tree(a) == tree(b)
    for rel in tree(a):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def load_bench_gen(monkeypatch):
    """``bench/gen.py``, the benchmark's seeded input generator, as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
    spec.loader.exec_module(gen)
    return gen


def load_bench_run(monkeypatch):
    """``bench/run.py``, the benchmark's driver, as a module; the ``gen`` it
    imports is ``load_bench_gen``'s, and the ``sys.path`` entry it adds goes
    when the test ends."""
    monkeypatch.setitem(sys.modules, "gen", load_bench_gen(monkeypatch))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_run", Path(__file__).resolve().parents[1] / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def make_station(station_id="CDG", kind="air", zone_id="PZ9", tz=PAR_TZ,
                 lat=49.0097, lon=2.5479, dwell=None):
    return Station(station_id=station_id, kind=kind, zone_id=zone_id,
                   lat=lat, lon=lon, tz=tz, dwell=dwell)


def make_segment(segment_id="F1", mode_id="via_CDG",
                 dep_station=None, arr_station=None,
                 sched_dep="2018-01-02T12:00", sched_arr="2018-01-02T13:20",
                 actual_dep=None, actual_arr=None, cancelled=False):
    dep_station = dep_station or make_station("AMS", zone_id="AZ1", tz=AMS_TZ,
                                              lat=52.3105, lon=4.7683)
    arr_station = arr_station or make_station()

    def ts(value, station):
        """Epoch seconds of a local ISO time, read as ingestion reads it."""
        return _parse_local_ts(value, station.tzinfo)

    sched_dep = ts(sched_dep, dep_station)
    sched_arr = ts(sched_arr, arr_station)
    return ScheduledSegment(
        segment_id=segment_id, mode_id=mode_id,
        dep_station=dep_station, arr_station=arr_station,
        sched_dep=sched_dep, sched_arr=sched_arr,
        actual_dep=ts(actual_dep, dep_station) if actual_dep else sched_dep,
        actual_arr=ts(actual_arr, arr_station) if actual_arr else sched_arr,
        cancelled=cancelled,
    )


def ride_index(rows):
    """A RideStatIndex of ``(origin, dest, date, period, mean_s, min_s,
    max_s)`` rows, each written into the slot row of its zone pair and date
    as ``load_ride_stats`` writes it (it alone checks them); a later row
    replaces an earlier one with the same key."""
    pairs = {}
    for origin, dest, day, period, *values in rows:
        slot_row = pairs.setdefault((origin, dest), {}).setdefault(day, [0] * SLOTS)
        slot_row[3 * period.code:3 * period.code + 3] = values
    return RideStatIndex(pairs)


def ride_stats_by_key(index):
    """The stats of a RideStatIndex keyed by ``(origin, dest, date, period)``,
    pair by pair and date by date in the order the index holds them, and
    within a date by period code."""
    return {(origin, dest, day, period): ZoneRideStat(period, *slot_row[3 * code:3 * code + 3])
            for (origin, dest), by_date in index.pairs.items()
            for day, slot_row in by_date.items()
            for code, period in sorted(PERIOD_BY_CODE.items())
            if slot_row[3 * code]}


def make_rides(entries):
    """entries: (origin, dest, iso_date, period, mean_s[, min_s, max_s])."""
    rows = []
    for entry in entries:
        origin, dest, day, period, mean_s = entry[:5]
        min_s = entry[5] if len(entry) > 5 else mean_s
        max_s = entry[6] if len(entry) > 6 else mean_s
        rows.append((origin, dest, date.fromisoformat(day), period, mean_s, min_s, max_s))
    return ride_index(rows)


def kernel_trip(segment, origin, dest, dwell_dep, dwell_arr, rides):
    """The one trip ``evaluate_trips`` makes of ``segment`` to ``dest``, its
    departure station dwelling ``dwell_dep`` and its arrival station
    ``dwell_arr``, or None when the access or the egress ride is missing."""
    segment = replace(segment, dep_station=replace(segment.dep_station, dwell=dwell_dep),
                      arr_station=replace(segment.arr_station, dwell=dwell_arr))
    trips = list(evaluate_trips([segment], origin, [dest], rides).trips)
    return trips[0] if trips else None


class TripFacts(NamedTuple):
    segment_id: str
    mode_id: str
    ride_to: ZoneRideStat
    wait_s: int  # the departure delay counted in legs.dep_s
    total_mean_s: int
    total_min_s: int
    total_max_s: int


def trip_facts(trip):
    """What the tests read of a TripRecord besides its fields, derived from
    ``trip.legs`` and ``trip.ride_from``: the segment and mode ids, the access
    ride, the departure delay (early pushback counts 0) and the door-to-door
    total under the mean, min and max ride of both rides."""
    legs, ride_from = trip.legs, trip.ride_from
    segment, ride_to = legs.segment, legs.ride_to
    core_s = legs.dep_s + legs.in_s + legs.arr_s
    return TripFacts(
        segment.segment_id, segment.mode_id, ride_to,
        max(0, segment.actual_dep - segment.sched_dep),
        legs.door_to_exit_s + ride_from.mean_s,
        ride_to.min_s + core_s + ride_from.min_s,
        ride_to.max_s + core_s + ride_from.max_s)


@lru_cache(maxsize=None)
def _trip_segment(segment_id, mode_id, dep_station_id, arr_station_id):
    return make_segment(
        segment_id=segment_id, mode_id=mode_id,
        dep_station=make_station(dep_station_id, zone_id="AZ1", tz=AMS_TZ,
                                 lat=52.3105, lon=4.7683),
        arr_station=make_station(arr_station_id))


def make_trip(dest_zone="PZ1", mode_id="via_CDG", arrival_date="2018-01-02",
              arrival_period=DayPeriod.MIDDAY, to_s=1800, dep_s=5400, in_s=4800,
              arr_s=2700, from_s=1500, to_spread=0, from_spread=0,
              segment_id="F1", dep_station_id="AMS", arr_station_id="CDG"):
    """A TripRecord over its own SegmentLegs, with symmetric min/max ride
    spreads around the means.

    Both rides are period-level stats (no daily fallback) of the arrival
    period.  A ride of 0 s, which ``load_ride_stats`` rejects (it
    needs ``min > 0``), lets phase shares be tested with empty phases;
    constructing one checks nothing."""
    when = date.fromisoformat(arrival_date)

    def ride(mean_s, spread):
        if mean_s > 0:
            return ZoneRideStat(arrival_period, mean_s,
                                max(1, mean_s - spread), max(1, mean_s + spread))
        return ZoneRideStat(arrival_period, 0, 0, 0)

    segment = _trip_segment(segment_id, mode_id, dep_station_id, arr_station_id)
    legs = SegmentLegs(segment=segment, ride_to=ride(to_s, to_spread),
                       dep_s=dep_s, in_s=in_s, arr_s=arr_s)
    return TripRecord(legs=legs, dest_zone_id=dest_zone,
                      ride_from=ride(from_s, from_spread),
                      arrival_date=when, arrival_period=arrival_period)


def segment_entry(record):
    """One ``TripRecord`` as a one-trip ``SegmentTrips``: its egress ride sits
    in a slot row of its own, at the first slot ``RideStatIndex.locate``
    would answer."""
    ride = record.ride_from
    slot = 3 * ride.period.code
    row = [0] * SLOTS
    row[slot:slot + 3] = ride[1:]
    return SegmentTrips(record.legs, (record.dest_zone_id,), (row,), (slot,),
                        ((record.arrival_date, record.arrival_period),))


def trips_of(records):
    """The ``Trips`` that ``daily_zone_means`` and ``leg_shares`` read, built
    from TripRecords, one segment entry per record, in their order."""
    return Trips(list(map(segment_entry, records)))


@pytest.fixture
def origin_zone():
    return Zone("AZ1", internal_point=(52.37, 4.89))


@pytest.fixture
def dest_zone():
    return Zone("PZ1", internal_point=(48.86, 2.35), population_density=5000)
