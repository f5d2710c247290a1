"""Shared builders for synthetic trips, segments and ride-stat indexes."""

from __future__ import annotations

from datetime import date
from functools import lru_cache

import pytest

from doortodoor import (
    DayPeriod,
    RideStatIndex,
    ScheduledSegment,
    Station,
    TripRecord,
    Zone,
    ZoneRideStat,
)
from doortodoor.ingestion import _parse_local_ts
from doortodoor.model import SegmentLegs, segment_legs, zone_trip

AMS_TZ = "Europe/Amsterdam"
PAR_TZ = "Europe/Paris"


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


def make_rides(entries):
    """entries: (origin, dest, iso_date, period, mean_s[, min_s, max_s])."""
    index = RideStatIndex()
    for entry in entries:
        origin, dest, day, period, mean_s = entry[:5]
        min_s = entry[5] if len(entry) > 5 else mean_s
        max_s = entry[6] if len(entry) > 6 else mean_s
        index.add(ZoneRideStat(
            origin_zone_id=origin, dest_zone_id=dest,
            date=date.fromisoformat(day), period=period,
            mean_s=mean_s, min_s=min_s, max_s=max_s,
        ))
    return index


def kernel_trip(segment, origin, dest, dwell_dep, dwell_arr, rides):
    return zone_trip(segment_legs(segment, origin, dwell_dep, dwell_arr, rides), dest, rides)


@lru_cache(maxsize=None)
def _trip_segment(segment_id, mode_id, dep_station_id, arr_station_id):
    return make_segment(
        segment_id=segment_id, mode_id=mode_id,
        dep_station=make_station(dep_station_id, zone_id="AZ1", tz=AMS_TZ,
                                 lat=52.3105, lon=4.7683),
        arr_station=make_station(arr_station_id))


def make_trip(dest_zone="PZ1", mode_id="via_CDG", arrival_date="2018-01-02",
              arrival_period=DayPeriod.MIDDAY, to_s=1800, dep_s=5400, in_s=4800,
              arr_s=2700, from_s=1500, wait_s=0, to_spread=0, from_spread=0,
              segment_id="F1", origin_zone="AZ1",
              dep_station_id="AMS", arr_station_id="CDG"):
    """A TripRecord over its own SegmentLegs, with symmetric min/max ride
    spreads around the means.

    Both rides are period-level stats (no daily fallback) of the arrival
    date and period.  A ride of 0 s, which ``load_ride_stats`` and
    ``RideStatIndex.add`` reject (they need ``min > 0``), lets phase shares
    be tested with empty phases; constructing one checks nothing."""
    when = date.fromisoformat(arrival_date)

    def ride(origin, dest, mean_s, spread):
        values = (origin, dest, when, arrival_period, max(1, mean_s),
                  max(1, mean_s - spread), max(1, mean_s + spread))
        if mean_s > 0:
            return ZoneRideStat(*values)
        return ZoneRideStat(*values[:4], 0, 0, 0)

    segment = _trip_segment(segment_id, mode_id, dep_station_id, arr_station_id)
    legs = SegmentLegs(
        segment=segment, origin_zone_id=origin_zone,
        ride_to=ride(origin_zone, "AZ1", to_s, to_spread),
        dep_s=dep_s, wait_s=wait_s, in_s=in_s, arr_s=arr_s,
        egress_s=segment.sched_arr + arr_s, egress_date=when,
        egress_period=arrival_period, arr_tz=segment.arr_station.tzinfo,
    )
    return TripRecord(legs=legs, dest_zone_id=dest_zone,
                      ride_from=ride("PZ9", dest_zone, from_s, from_spread),
                      arrival_date=when, arrival_period=arrival_period)


@pytest.fixture
def origin_zone():
    return Zone("AZ1", internal_point=(52.37, 4.89))


@pytest.fixture
def dest_zone():
    return Zone("PZ1", internal_point=(48.86, 2.35), population_density=5000)
