"""Core model: period taxonomy, the trip kernel, geodesic distance."""

import math
from datetime import datetime, timedelta, timezone, tzinfo
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, strategies as st

from doortodoor import (
    DayPeriod,
    DwellProfile,
    ScheduledSegment,
    ValidationError,
    Zone,
    classify_period,
    geodesic_distance,
)
from doortodoor.model import (
    CLASSIFIABLE_PERIODS, PERIOD_BY_CODE, PeriodClassifier, local_date_period,
)

from conftest import kernel_trip, make_rides, make_segment, make_station, trip_facts


class TestClassifyPeriod:
    @pytest.mark.parametrize("minute,expected", [
        (0, DayPeriod.EARLY_MORNING),
        (419, DayPeriod.EARLY_MORNING),
        (420, DayPeriod.AM),
        (599, DayPeriod.AM),
        (600, DayPeriod.MIDDAY),
        (959, DayPeriod.MIDDAY),
        (960, DayPeriod.PM),
        (1139, DayPeriod.PM),
        (1140, DayPeriod.LATE_EVENING),
        (1439, DayPeriod.LATE_EVENING),
    ])
    def test_examples(self, minute, expected):
        assert classify_period(minute) is expected

    @pytest.mark.parametrize("minute", [-1, 1440, 100000])
    def test_out_of_range(self, minute):
        with pytest.raises(ValidationError):
            classify_period(minute)

    def test_partition_tiles_the_day(self):
        seen = {p: 0 for p in CLASSIFIABLE_PERIODS}
        for minute in range(1440):
            seen[classify_period(minute)] += 1
        # Each period ends where the next starts; the last at midnight.
        ends = [p.start_min for p in CLASSIFIABLE_PERIODS[1:]] + [1440]
        widths = {p: end - p.start_min for p, end in zip(CLASSIFIABLE_PERIODS, ends)}
        assert seen == widths
        assert sum(seen.values()) == 1440

    def test_daily_only_never_classified(self):
        assert all(classify_period(m) is not DayPeriod.DAILY_ONLY
                   for m in range(0, 1440, 13))

    def test_csv_codes(self):
        """ride_stats.csv codes: 0 the daily aggregate, 1..5 in chronological order."""
        assert PERIOD_BY_CODE == {
            0: DayPeriod.DAILY_ONLY, 1: DayPeriod.EARLY_MORNING, 2: DayPeriod.AM,
            3: DayPeriod.MIDDAY, 4: DayPeriod.PM, 5: DayPeriod.LATE_EVENING,
        }


MIDDAY_RIDES = [
    ("AZ1", "AZ1", "2018-01-02", DayPeriod.MIDDAY, 1800, 1500, 2400),
    ("PZ9", "PZ1", "2018-01-02", DayPeriod.MIDDAY, 1500, 1200, 2100),
]


class TestComputeTrip:
    dwell = DwellProfile(90, 45)

    def compute(self, segment, rides=None):
        return kernel_trip(
            segment,
            Zone("AZ1"),
            Zone("PZ1"),
            self.dwell,
            self.dwell,
            rides or make_rides(MIDDAY_RIDES),
        )

    def test_worked_example_270_minutes(self):
        trip = self.compute(make_segment())
        assert trip_facts(trip).ride_to.mean_s == 30 * 60
        assert trip.legs.dep_s == 90 * 60
        assert trip.legs.in_s == 80 * 60
        assert trip.legs.arr_s == 45 * 60
        assert trip.ride_from.mean_s == 25 * 60
        assert trip_facts(trip).total_mean_s == 270 * 60
        assert trip.arrival_period is DayPeriod.MIDDAY
        assert str(trip.arrival_date) == "2018-01-02"
        assert not trip.used_daily_fallback_to
        assert not trip.used_daily_fallback_from

    def test_sixteen_minute_delay_example(self):
        segment = make_segment(actual_dep="2018-01-02T12:16",
                               actual_arr="2018-01-02T13:36")
        trip = self.compute(segment)
        assert trip_facts(trip).wait_s == 16 * 60
        assert trip_facts(trip).total_mean_s == 286 * 60

    def test_early_pushback_clamped(self):
        segment = make_segment(actual_dep="2018-01-02T11:50",
                               actual_arr="2018-01-02T13:10")
        trip = self.compute(segment)
        assert trip_facts(trip).wait_s == 0
        assert trip.legs.dep_s == self.dwell.t_sec_departure_s

    def test_dep_minus_wait_is_processing_time(self):
        segment = make_segment(actual_dep="2018-01-02T12:07",
                               actual_arr="2018-01-02T13:27")
        trip = self.compute(segment)
        assert trip.legs.dep_s - trip_facts(trip).wait_s == self.dwell.t_sec_departure_s

    def test_variant_ordering(self):
        trip = self.compute(make_segment())
        facts = trip_facts(trip)
        assert facts.total_min_s <= facts.total_mean_s <= facts.total_max_s

    def test_timezone_crossing_uses_absolute_instants(self):
        # Westbound: local clocks agree, the absolute flight time is 3 hours.
        dep = make_station("JFK", zone_id="NY1", tz="America/New_York",
                           lat=40.64, lon=-73.78)
        arr = make_station("LAX", zone_id="LA1", tz="America/Los_Angeles",
                           lat=33.94, lon=-118.41)
        segment = make_segment(dep_station=dep, arr_station=arr,
                               sched_dep="2018-02-01T10:00",
                               sched_arr="2018-02-01T10:00")
        rides = make_rides([
            ("NY1", "NY1", "2018-02-01", DayPeriod.AM, 1200),
            ("LA1", "PZ1", "2018-02-01", DayPeriod.MIDDAY, 900),
        ])
        trip = kernel_trip(segment, Zone("NY1"), Zone("PZ1"),
                           self.dwell, self.dwell, rides)
        assert trip.legs.in_s == 3 * 3600

    def test_daily_fallback_flagged(self):
        rides = make_rides([
            ("AZ1", "AZ1", "2018-01-02", DayPeriod.DAILY_ONLY, 1800),
            ("PZ9", "PZ1", "2018-01-02", DayPeriod.MIDDAY, 1500),
        ])
        trip = self.compute(make_segment(), rides=rides)
        assert trip.used_daily_fallback_to
        assert not trip.used_daily_fallback_from

    def test_no_stat_raises(self):
        rides = make_rides([("AZ1", "AZ1", "2018-01-02", DayPeriod.MIDDAY, 1800)])
        assert self.compute(make_segment(), rides=rides) is None

    def test_missing_actuals_need_on_time_flag(self):
        # On-time mode fills missing actual times at load; the type lets
        # only a cancelled segment go without them.
        fields = make_segment().__dict__
        for missing in ({"actual_dep": None}, {"actual_arr": None},
                        {"actual_dep": None, "actual_arr": None}):
            with pytest.raises(ValidationError,
                               match="actual times required on a non-cancelled row"):
                ScheduledSegment(**{**fields, **missing})
        cancelled = ScheduledSegment(
            **{**fields, "actual_dep": None, "actual_arr": None, "cancelled": True})
        assert cancelled.actual_dep is None and cancelled.actual_arr is None

    def test_access_period_from_station_deadline(self):
        # Deadline 12:00 - 90min = 10:30, so the access ride uses midday
        # stats even though departure itself is also midday; shrink the
        # processing time to push the deadline into the AM period.
        rides = make_rides([
            ("AZ1", "AZ1", "2018-01-02", DayPeriod.AM, 3000),
            ("AZ1", "AZ1", "2018-01-02", DayPeriod.MIDDAY, 1800),
            ("PZ9", "PZ1", "2018-01-02", DayPeriod.MIDDAY, 1500),
        ])
        segment = make_segment(sched_dep="2018-01-02T11:00",
                               sched_arr="2018-01-02T12:20",
                               actual_dep="2018-01-02T11:00",
                               actual_arr="2018-01-02T12:20")
        trip = self.compute(segment, rides=rides)  # deadline 09:30 -> AM
        assert trip_facts(trip).ride_to.mean_s == 3000


# Runs between two stations of one timezone (Europe/Paris) in the nights of
# the 2018 DST changes: 2018-03-25 02:00 CET -> 03:00 CEST and 2018-10-28
# 03:00 CEST -> 02:00 CET.  Each case: local sched_dep and sched_arr, dwell
# minutes (departure, arrival), egress ride seconds, in-vehicle seconds, and
# the local (date, period) of the access deadline, the station exit and the
# final arrival.
EARLY, AM, LATE = DayPeriod.EARLY_MORNING, DayPeriod.AM, DayPeriod.LATE_EVENING
DST_CASES = {
    # Paris 22:00 -> Nice 07:00 lasts 8 h in March and 10 h in October.
    "spring-night-train": (
        "2018-03-24T22:00", "2018-03-25T07:00", (90, 45), 1500, 8 * 3600,
        ("2018-03-24", LATE), ("2018-03-25", AM), ("2018-03-25", AM)),
    "autumn-night-train": (
        "2018-10-27T22:00", "2018-10-28T07:00", (90, 45), 1500, 10 * 3600,
        ("2018-10-27", LATE), ("2018-10-28", AM), ("2018-10-28", AM)),
    # Exit at 00:30 CET; a 6 h ride ends at 07:30 CEST.
    "spring-egress-ride": (
        "2018-03-24T21:30", "2018-03-24T23:45", (90, 45), 6 * 3600, 8100,
        ("2018-03-24", LATE), ("2018-03-25", EARLY), ("2018-03-25", AM)),
    # Exit at 01:30 CEST; a 5 h 30 ride ends at 06:00 CET.
    "autumn-egress-ride": (
        "2018-10-27T22:00", "2018-10-28T00:45", (90, 45), 19800, 9900,
        ("2018-10-27", LATE), ("2018-10-28", EARLY), ("2018-10-28", EARLY)),
    # Departure 03:30 CET; four hours earlier it was 00:30 CEST.
    "autumn-access-deadline": (
        "2018-10-28T03:30", "2018-10-28T05:00", (240, 45), 1500, 5400,
        ("2018-10-28", EARLY), ("2018-10-28", EARLY), ("2018-10-28", EARLY)),
}


@pytest.mark.parametrize("case", DST_CASES.values(), ids=DST_CASES.keys())
def test_same_timezone_trip_across_dst_change(case):
    dep, arr, dwell_min, ride_s, in_s, to_key, from_key, arrival_key = case
    paris = make_station("PLY", kind="rail", zone_id="PZ5", lat=48.84, lon=2.37)
    nice = make_station("NCE", kind="rail", zone_id="NZ1", lat=43.70, lon=7.26)
    segment = make_segment(dep_station=paris, arr_station=nice,
                           sched_dep=dep, sched_arr=arr)
    # Only the buckets at the expected local dates and periods exist, so a
    # lookup at any other one makes the trip not computable.
    rides = make_rides([
        ("PZ1", "PZ5", *to_key, 1200),
        ("NZ1", "NZ9", *from_key, ride_s),
    ])
    dwell = DwellProfile(*dwell_min)
    trip = kernel_trip(segment, Zone("PZ1"), Zone("NZ9"), dwell, dwell, rides)
    assert trip.legs.in_s == in_s
    assert (trip_facts(trip).ride_to.mean_s, trip.ride_from.mean_s) == (1200, ride_s)
    assert (str(trip.arrival_date), trip.arrival_period) == arrival_key


def utc_s(*fields):
    return int(datetime(*fields, tzinfo=timezone.utc).timestamp())


# (timezone, a UTC instant next to one of its offset changes or odd days).
CLASSIFIER_ANCHORS = (
    ("Europe/Paris", utc_s(2018, 3, 25, 1)), ("Europe/Paris", utc_s(2018, 10, 28, 1)),
    ("America/New_York", utc_s(2018, 3, 11, 7)),
    ("America/New_York", utc_s(2018, 11, 4, 6)),
    # Both changes at local midnight: 24:00 turns back to 23:00, a midnight is skipped.
    ("America/Santiago", utc_s(2018, 5, 13, 3)),
    ("America/Santiago", utc_s(2018, 8, 12, 4)),
    # The date goes backward: 7 Nov 00:01 NDT was 6 Nov 23:01 NST.
    ("America/St_Johns", utc_s(2010, 11, 7, 2, 31)),
    ("America/Havana", utc_s(2018, 3, 11, 5)), ("America/Havana", utc_s(2018, 11, 4, 5)),
    # 2011-12-30 never happened in Apia: 29 Dec 24:00 (-10) was 31 Dec 00:00 (+14).
    ("Pacific/Apia", utc_s(2011, 12, 30, 10)), ("Pacific/Apia", utc_s(2018, 4, 1, 1)),
    # A 30-minute DST shift, and a +5:45 offset that once was +5:30.
    ("Australia/Lord_Howe", utc_s(2018, 3, 31, 15)),
    ("Australia/Lord_Howe", utc_s(2018, 10, 6, 15, 30)),
    ("Asia/Kathmandu", utc_s(1985, 12, 31, 18, 30)), ("Asia/Kathmandu", utc_s(2018, 6, 1)),
    # UTC+14: the local date runs a day ahead of UTC's for most of the day.
    ("Pacific/Kiritimati", utc_s(2018, 6, 1, 12)),
)
TWO_DAYS_S = 2 * 86400
egress_instants = st.sampled_from(CLASSIFIER_ANCHORS).flatmap(
    lambda anchor: st.tuples(st.just(anchor[0]), st.integers(anchor[1] - TWO_DAYS_S,
                                                             anchor[1] + TWO_DAYS_S)))
arrival_delays = st.lists(st.integers(0, 48 * 3600), min_size=1, max_size=20)


class ShiftedHours(tzinfo):
    """UTC, but UTC+1 over the instants [start_s, end_s)."""

    def __init__(self, start_s, end_s):
        self.start_s, self.end_s = start_s, end_s

    def _offset_s(self, epoch_s):
        return 3600 if self.start_s <= epoch_s < self.end_s else 0

    def utcoffset(self, dt):
        # PEP 495: fold=0 picks the earlier instant of a repeated wall time
        # and, for a skipped one, the offset before the change (here +0).
        wall_s = utc_s(*dt.timetuple()[:6])
        valid = [off for off in (3600, 0) if self._offset_s(wall_s - off) == off] or [0]
        return timedelta(seconds=valid[min(dt.fold, len(valid) - 1)])

    def dst(self, dt):
        return None

    def fromutc(self, dt):
        epoch_s = utc_s(*dt.timetuple()[:6])
        offset_s = self._offset_s(epoch_s)
        repeated = offset_s == 0 and self._offset_s(epoch_s - 3600) == 3600
        return (dt + timedelta(seconds=offset_s)).replace(fold=int(repeated))


class TestPeriodClassifier:
    @given(egress_instants, arrival_delays)
    # Santiago, 2018-05-12: 23:59:59 -03 is followed by 23:00:00 -04.
    @example(("America/Santiago", utc_s(2018, 5, 13, 2, 30)), [0, 2700, 5400, 86400])
    # Apia: 29 Dec 23:30 -10 then 31 Dec 00:30 +14.
    @example(("Pacific/Apia", utc_s(2011, 12, 30, 9, 30)), [0, 3600, 86400, 2 * 86400])
    # St. John's: 6 Nov 23:30, 7 Nov 00:00, then 6 Nov 23:16 again.
    @example(("America/St_Johns", utc_s(2010, 11, 7, 2)), [0, 1800, 2760, 5400, 86400])
    # Every period start of a regular day (Amsterdam, 1 June 2018), and a
    # second either side of each.
    @example(("Europe/Amsterdam", utc_s(2018, 5, 31, 22)),
             [start_s + d for start_s in (0, 25200, 36000, 57600, 68400, 86400)
              for d in (-1, 0, 1) if start_s + d >= 0])
    def test_agrees_with_local_date_period(self, egress, delays):
        tz_name, egress_s = egress
        tz = ZoneInfo(tz_name)
        classifier = PeriodClassifier(tz)
        hint, _ = local_date_period(egress_s, tz)
        for delay_s in delays:
            arrival_s = egress_s + delay_s
            assert classifier.classify(arrival_s, hint) == local_date_period(arrival_s, tz)

    def test_offset_changes_that_undo_each_other_within_a_day(self):
        # A 24-hour day whose 06:30-07:30 is skipped and 12:00-13:00 repeats:
        # its 10:00 starts at 09:00 UTC, so it is not regular.
        tz = ShiftedHours(utc_s(2018, 6, 1, 6, 30), utc_s(2018, 6, 1, 12))
        classifier = PeriodClassifier(tz)
        hint, _ = local_date_period(utc_s(2018, 6, 1), tz)
        for minute in range(0, 2 * 1440, 10):
            arrival_s = utc_s(2018, 6, 1) + minute * 60
            assert classifier.classify(arrival_s, hint) == local_date_period(arrival_s, tz)

    def test_a_regular_day_shares_one_date(self):
        tz = ZoneInfo("Europe/Paris")
        classifier = PeriodClassifier(tz)
        hint, _ = local_date_period(utc_s(2018, 6, 1, 6), tz)
        dates = {id(classifier.classify(utc_s(2018, 6, 1, hour), hint)[0])
                 for hour in range(6, 20)}
        assert len(dates) == 1

    def test_a_regular_day_keeps_one_pair_per_period(self):
        tz = ZoneInfo("Europe/Paris")
        classifier = PeriodClassifier(tz)
        hint, _ = local_date_period(utc_s(2018, 6, 1), tz)
        arrivals = [classifier.classify(utc_s(2018, 6, 1) + minute * 60, hint)
                    for minute in range(0, 22 * 60, 20)]
        assert len({id(arrival) for arrival in arrivals}) == len(set(arrivals)) == 5


latitudes = st.floats(min_value=-90, max_value=90, allow_nan=False)
longitudes = st.floats(min_value=-180, max_value=180, allow_nan=False)
points = st.tuples(latitudes, longitudes)


class TestGeodesicDistance:
    def test_identity(self):
        assert geodesic_distance((48.86, 2.35), (48.86, 2.35)) == 0.0

    def test_one_degree_of_longitude_at_equator(self):
        expected = 2 * math.pi * 6371.0088 / 360
        assert geodesic_distance((0, 0), (0, 1)) == pytest.approx(expected, abs=1e-3)
        assert geodesic_distance((0, 0), (0, 1)) == pytest.approx(111.1949, abs=1e-3)

    def test_antipodal(self):
        assert geodesic_distance((0, 0), (0, 180)) == pytest.approx(
            math.pi * 6371.0088, abs=0.01)

    def test_invalid_coordinates(self):
        with pytest.raises(ValidationError):
            geodesic_distance((91, 0), (0, 0))
        with pytest.raises(ValidationError):
            geodesic_distance((0, 0), (0, 181))

    @given(points, points)
    def test_symmetry_and_nonnegativity(self, a, b):
        d_ab = geodesic_distance(a, b)
        assert d_ab >= 0
        assert d_ab == pytest.approx(geodesic_distance(b, a), abs=1e-9)

    @given(points, points, points)
    @example(a=(0.0, 180.0), b=(0.0, 1.0), c=(0.0, 1e-05))
    def test_triangle_inequality(self, a, b, c):
        assert geodesic_distance(a, c) <= (
            geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-6)
