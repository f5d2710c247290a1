"""Parsers, indexes, weekly-schedule expansion and dwell defaults."""

from datetime import date, datetime, time, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings, strategies as st

from doortodoor import (
    DayPeriod,
    DwellProfile,
    RideStatIndex,
    ValidationError,
    ZoneRideStat,
    expand_weekly_schedule,
    load_ride_stats,
    load_segments_actuals,
    load_stations,
    load_weekly_schedule,
    load_zones,
    resolve_dwell,
)
from doortodoor.ingestion import (
    DEFAULT_RAIL_DWELL,
    DEFAULT_STATION_DWELL,
    WeeklyScheduleRow,
    _parse_local_ts,
)
from doortodoor.model import PERIOD_BY_CODE, local_date_period

from conftest import make_station

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

RIDE_HEADER = "origin_zone,dest_zone,date,period,mean_s,min_s,max_s"

STATIONS_CSV = """\
station_id,kind,zone_id,lat,lon,tz,t_sec_dep_min,t_arr_min
AMS,air,AZ1,52.3105,4.7683,Europe/Amsterdam,,
CDG,air,PZ9,49.0097,2.5479,Europe/Paris,,
GDN,rail,PZ8,48.8809,2.3553,Europe/Paris,,
XNA,air,XZ1,36.28,-94.31,America/Chicago,95,40
"""


def utc_epoch(*fields):
    """Epoch seconds of a UTC wall time (year, month, day, hour, minute)."""
    return int(datetime(*fields, tzinfo=timezone.utc).timestamp())


def local_date(epoch_s, station):
    return local_date_period(epoch_s, station.tzinfo)[0]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadRideStats:
    def test_direct_field_mapping(self, tmp_path):
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\nZ1,Z9,2018-01-02,2,1800,1200,3600\n")
        index = load_ride_stats(path)
        stat = index.lookup("Z1", "Z9", date(2018, 1, 2), DayPeriod.AM)
        assert stat.mean_s == 1800 and stat.min_s == 1200 and stat.max_s == 3600
        assert stat.period is DayPeriod.AM

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\n"
                     "Z1,Z9,2018-01-02,2,1800,1200,3600\n"
                     "Z1,Z9,2018-01-02,2,1900,1300,3700\n")
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert str(info.value) == f"{path}:3: duplicate ride stat key Z1,Z9,2018-01-02,2"

    def test_error_order_on_a_row_with_several_faults(self, tmp_path):
        """Each step fixes the fault the step before it reported."""
        steps = [
            ("Z1,Z9,2018-13-01,p,a,b,c", "period: not an integer: 'p'"),
            ("Z1,Z9,2018-13-01,9,a,b,c", "period code 9 not in 0..5"),
            ("Z1,Z9,2018-13-01,2,a,b,c", "bad date '2018-13-01'"),
            ("Z1,Z9,2018-01-02,2,a,b,c", "mean_s: not an integer: 'a'"),
            ("Z1,Z9,2018-01-02,2,1800,b,c", "min_s: not an integer: 'b'"),
            ("Z1,Z9,2018-01-02,2,1800,1900,c", "max_s: not an integer: 'c'"),
            ("Z1,Z9,2018-01-02,2,1800,1900,3600",
             "ride stat Z1->Z9 2018-01-02: need 0 < min <= mean <= max, got 1900/1800/3600"),
            ("Z1,Z9,2018-01-02,2,1800,1200,3600", "duplicate ride stat key Z1,Z9,2018-01-02,2"),
        ]
        for row, message in steps:
            path = write(tmp_path, "rides.csv",
                         f"{RIDE_HEADER}\nZ1,Z9,2018-01-02,2,1700,1100,3500\n{row}\n")
            with pytest.raises(ValidationError) as info:
                load_ride_stats(path)
            assert str(info.value) == f"{path}:3: {message}"

    def test_period_zero_is_daily_fallback(self, tmp_path):
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\nZ1,Z9,2018-01-02,0,1800,1200,3600\n")
        index = load_ride_stats(path)
        stat = index.lookup("Z1", "Z9", date(2018, 1, 2), DayPeriod.PM)
        assert stat.period is DayPeriod.DAILY_ONLY

    def test_min_above_max_cites_line(self, tmp_path):
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\n"
                     "Z1,Z9,2018-01-02,2,1800,1200,3600\n"
                     "Z1,Z9,2018-01-03,2,1800,3700,3600\n")
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert info.value.line == 3

    def test_malformed_row_cites_line(self, tmp_path):
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\nZ1,Z9,2018-01-02,2,xx,1200,3600\n")
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert info.value.line == 2

    def test_wrong_header_rejected(self, tmp_path):
        path = write(tmp_path, "rides.csv", "a,b,c\n")
        with pytest.raises(ValidationError):
            load_ride_stats(path)


def oracle_ride_stats(rows):
    """What ``load_ride_stats`` gives for ``rows`` (lists of 7 fields from
    line 2 on), checked field by field: its records by key, or the first
    error as ``line: message``."""
    stats = {}
    for line, (origin, dest, date_s, period_s, *ints) in enumerate(rows, start=2):
        try:
            code = int(period_s)
        except ValueError:
            return f"{line}: period: not an integer: {period_s!r}"
        if code not in PERIOD_BY_CODE:
            return f"{line}: period code {code} not in 0..5"
        try:
            day = date.fromisoformat(date_s)
        except ValueError:
            return f"{line}: bad date {date_s!r}"
        values = []
        for name, text in zip(("mean_s", "min_s", "max_s"), ints):
            try:
                values.append(int(text))
            except ValueError:
                return f"{line}: {name}: not an integer: {text!r}"
        mean, low, high = values
        if not 0 < low <= mean <= high:
            return (f"{line}: ride stat {origin}->{dest} {day}: "
                    f"need 0 < min <= mean <= max, got {low}/{mean}/{high}")
        key = (origin, dest, day, PERIOD_BY_CODE[code])
        if key in stats:
            return f"{line}: duplicate ride stat key {origin},{dest},{day},{code}"
        stats[key] = ZoneRideStat(*key, mean, low, high)
    return stats


def spelled(n):
    """Spellings of ``n`` that ``int()`` accepts, mostly the canonical one."""
    return st.sampled_from([str(n)] * 4 + [f" {n}", f"+{n}", f"0{n}", f"{n}\t", f"{n}_0"])


# Clean rows parse (their keys often collide through other spellings of the
# same date or period); noisy rows are clean rows with one to three of their
# date, period and integer fields replaced by text that is bad, zero or
# negative in some of them.
clean_row = st.tuples(
    st.sampled_from(["Z1", " Z1"]), st.just("Z9"),
    st.sampled_from(["2018-01-02", "20180102", "2018-01-03"]),
    st.sampled_from(["2", "02", " 2", "+2", "0", "5"]),
    st.lists(st.integers(1, 40), min_size=3, max_size=3).map(sorted).flatmap(
        lambda t: st.tuples(spelled(t[1]), spelled(t[0]), spelled(t[2]))),
).map(lambda r: r[:4] + r[4])
noisy_row = st.tuples(clean_row, st.dictionaries(
    st.integers(2, 6),
    st.sampled_from(["", "x", "1.5", "1__0", "0x1", "\u0663", "0", "-1", "6", "2018-02-30",
                     "2018-1-2"]),
    min_size=1, max_size=3,
)).map(lambda r: tuple(r[1].get(i, text) for i, text in enumerate(r[0])))
ride_rows = st.lists(st.one_of(clean_row, clean_row, noisy_row), max_size=5)


@settings(max_examples=300, deadline=None)
@given(rows=ride_rows)
def test_ride_stats_load_like_a_field_by_field_oracle(tmp_path_factory, rows):
    """Non-canonical spellings, bad fields and repeated keys load, or fail
    with the ``path:line:`` message, exactly as checked field by field."""
    path = write_utf8(tmp_path_factory.getbasetemp(), "differential.csv",
                      "".join([f"{RIDE_HEADER}\n"] + [",".join(row) + "\n" for row in rows]))
    try:
        outcome = {stat.key: stat for stat in load_ride_stats(path)}
    except ValidationError as exc:
        outcome = str(exc)
    expected = oracle_ride_stats(rows)
    assert outcome == (expected if isinstance(expected, dict) else f"{path}:{expected}")


class TestRideStatIndexChecks:
    """Constructing a ZoneRideStat checks nothing; indexing one does."""

    STAT = ZoneRideStat("Z1", "Z9", date(2018, 1, 2), DayPeriod.AM, 1800, 1200, 3600)

    def test_record_is_the_tuple_of_its_fields(self):
        assert ZoneRideStat("Z1", "Z9", date(2018, 1, 2), DayPeriod.AM, 0, 0, 0) == (
            "Z1", "Z9", date(2018, 1, 2), DayPeriod.AM, 0, 0, 0)
        assert self.STAT.key == ("Z1", "Z9", date(2018, 1, 2), DayPeriod.AM)

    @pytest.mark.parametrize("mean, low, high", [(1800, 1900, 3600), (1800, 0, 3600)],
                             ids=["min-above-mean", "min-zero"])
    @pytest.mark.parametrize("build", [lambda stat: RideStatIndex().add(stat),
                                       lambda stat: RideStatIndex([stat])],
                             ids=["add", "constructor"])
    def test_invariant_rejected(self, build, mean, low, high):
        with pytest.raises(ValidationError) as info:
            build(self.STAT._replace(mean_s=mean, min_s=low, max_s=high))
        assert str(info.value) == (
            f"ride stat Z1->Z9 2018-01-02: need 0 < min <= mean <= max, got {low}/{mean}/{high}")

    def test_duplicate_key_rejected_by_add(self):
        index = RideStatIndex([self.STAT])
        with pytest.raises(ValidationError) as info:
            index.add(self.STAT._replace(mean_s=1900))
        assert str(info.value) == "duplicate ride stat key Z1,Z9,2018-01-02,2"
        assert list(index) == [self.STAT]


period_codes = st.sampled_from(list(DayPeriod))


class TestRideStatIndexFallback:
    @given(st.lists(
        st.tuples(st.sampled_from(["A", "B"]), st.sampled_from(["X", "Y"]),
                  st.integers(1, 5), period_codes, st.integers(60, 3600)),
        max_size=20))
    def test_fallback_semantics(self, rows):
        index = RideStatIndex()
        keys = {}
        for origin, dest, day_n, period, mean_s in rows:
            stat = ZoneRideStat(origin, dest, date(2018, 1, day_n), period,
                                mean_s, mean_s, mean_s)
            if stat.key in keys:
                continue
            keys[stat.key] = stat
            index.add(stat)
        for (origin, dest, day, period), stat in keys.items():
            if period is DayPeriod.DAILY_ONLY:
                continue
            hit = index.lookup(origin, dest, day, period)
            assert hit == stat
        # Keys with only a daily record fall back; absent pairs return None.
        for (origin, dest, day, period) in list(keys):
            for probe in DayPeriod:
                if probe is DayPeriod.DAILY_ONLY:
                    continue
                if (origin, dest, day, probe) in keys:
                    continue
                hit = index.lookup(origin, dest, day, probe)
                daily = keys.get((origin, dest, day, DayPeriod.DAILY_ONLY))
                if daily is not None:
                    assert hit == daily
                else:
                    assert hit is None


WEEKLY_HEADER = "mode_id,dep_station,arr_station,days,dep_time,arr_time"


class TestWeeklySchedule:
    @pytest.fixture
    def stations(self, tmp_path):
        return load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))

    def test_daily_row_over_one_week(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1111111,06:45,08:05\n")
        rows = load_weekly_schedule(path)
        segments = expand_weekly_schedule(rows, stations,
                                          date(2018, 1, 1), date(2018, 1, 7))
        assert len(segments) == 7
        assert segments[0].sched_dep == utc_epoch(2018, 1, 1, 5, 45)  # 06:45+01:00
        assert segments[0].actual_dep == segments[0].sched_dep
        assert len({s.segment_id for s in segments}) == 7

    def test_weekday_mask_respected(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1000010,06:45,08:05\n")
        segments = expand_weekly_schedule(load_weekly_schedule(path), stations,
                                          date(2018, 1, 1), date(2018, 1, 14))
        # 2018-01-01 is a Monday: two Mondays + two Saturdays in two weeks.
        assert len(segments) == 4
        assert {local_date(s.sched_dep, stations["AMS"]).weekday()
                for s in segments} == {0, 5}

    def test_all_false_mask_rejected(self, tmp_path):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,0000000,06:45,08:05\n")
        with pytest.raises(ValidationError, match="no weekday"):
            load_weekly_schedule(path)

    @pytest.mark.parametrize("clock", ["24:00", "6:7:8", "-1:30", "9" * 20 + ":00"])
    def test_bad_clock_time_cites_row(self, tmp_path, clock):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1111111,{clock},08:05\n")
        with pytest.raises(ValidationError) as info:
            load_weekly_schedule(path)
        assert str(info.value) == f"{path}:2: bad HH:MM time {clock!r}"

    def test_late_evening_departure_same_date(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1111111,21:45,23:05\n")
        segments = expand_weekly_schedule(load_weekly_schedule(path), stations,
                                          date(2018, 1, 1), date(2018, 1, 1))
        assert len(segments) == 1
        assert local_date(segments[0].sched_arr, stations["CDG"]) == date(2018, 1, 1)

    def test_overnight_rolls_arrival(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nnight,AMS,CDG,1111111,23:30,00:50\n")
        segments = expand_weekly_schedule(load_weekly_schedule(path), stations,
                                          date(2018, 1, 1), date(2018, 1, 1))
        assert local_date(segments[0].sched_arr, stations["CDG"]) == date(2018, 1, 2)

    def test_segment_count_matches_matching_dates(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\n"
                     "a,AMS,CDG,1111111,06:45,08:05\n"
                     "b,AMS,CDG,1111100,09:00,10:20\n")
        segments = expand_weekly_schedule(load_weekly_schedule(path), stations,
                                          date(2018, 1, 1), date(2018, 1, 14))
        assert len(segments) == 14 + 10
        assert len({s.segment_id for s in segments}) == 24

    @pytest.mark.parametrize("first, second", [
        ("via_X,AMS,CDG,1111111,06:45,08:05", "via_X,CDG,GDN,0100000,06:45,07:05"),
        ("via_X,CDG,GDN,0100000,06:45,07:05", "via_X,AMS,CDG,1111111,06:45,08:05"),
    ], ids=["am-first", "midday-first"])
    def test_same_id_from_two_rows_rejected(self, tmp_path, stations, first, second):
        # Both rows expand to via_X_2018-01-02_0645 on the Tuesday, whatever
        # their order; the row that repeats the id is cited.
        path = write(tmp_path, "weekly.csv", f"{WEEKLY_HEADER}\n{first}\n{second}\n")
        with pytest.raises(ValidationError) as info:
            expand_weekly_schedule(load_weekly_schedule(path), stations,
                                   date(2018, 1, 1), date(2018, 1, 7))
        assert str(info.value) == f"{path}:3: duplicate segment_id via_X_2018-01-02_0645"

    def test_id_taken_by_dated_segments_rejected(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_X,AMS,CDG,0100000,06:45,08:05\n")
        with pytest.raises(ValidationError) as info:
            expand_weekly_schedule(load_weekly_schedule(path), stations,
                                   date(2018, 1, 1), date(2018, 1, 7),
                                   taken_ids=["F1", "via_X_2018-01-02_0645"])
        assert str(info.value) == f"{path}:2: duplicate segment_id via_X_2018-01-02_0645"


SEGMENTS_HEADER = ("segment_id,mode_id,dep_station,arr_station,"
                   "sched_dep,actual_dep,sched_arr,actual_arr,cancelled")


class TestLoadSegments:
    @pytest.fixture
    def stations(self, tmp_path):
        return load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))

    def test_cancelled_retained_without_actuals(self, tmp_path, stations):
        path = write(tmp_path, "segments.csv",
                     f"{SEGMENTS_HEADER}\n"
                     "F1,via_CDG,AMS,CDG,2018-01-02T12:00,,2018-01-02T13:20,,1\n")
        segments = load_segments_actuals(path, stations)
        assert len(segments) == 1
        assert segments[0].cancelled
        assert segments[0].actual_dep is None

    def test_delay_preserved(self, tmp_path, stations):
        path = write(tmp_path, "segments.csv",
                     f"{SEGMENTS_HEADER}\n"
                     "F1,via_CDG,AMS,CDG,2018-01-02T18:02,2018-01-02T18:18,"
                     "2018-01-02T19:22,2018-01-02T19:38,0\n")
        (segment,) = load_segments_actuals(path, stations)
        assert segment.actual_dep - segment.sched_dep == 16 * 60

    def test_local_times_zoned_from_station_table(self, tmp_path, stations):
        path = write(tmp_path, "segments.csv",
                     f"{SEGMENTS_HEADER}\n"
                     "F1,via_CDG,AMS,CDG,2018-01-02T12:00,2018-01-02T12:00,"
                     "2018-01-02T13:20,2018-01-02T13:20,0\n")
        (segment,) = load_segments_actuals(path, stations)
        assert segment.sched_dep == utc_epoch(2018, 1, 2, 11, 0)  # 12:00+01:00

    def test_missing_actuals_rejected_unless_on_time(self, tmp_path, stations):
        text = (f"{SEGMENTS_HEADER}\n"
                "F1,via_CDG,AMS,CDG,2018-01-02T12:00,,2018-01-02T13:20,,0\n"
                "F2,via_CDG,AMS,CDG,2018-01-02T12:00,2018-01-02T12:10,"
                "2018-01-02T13:20,,0\n"
                "F3,via_CDG,AMS,CDG,2018-01-02T12:00,,2018-01-02T13:20,,1\n")
        path = write(tmp_path, "segments.csv", text)
        with pytest.raises(ValidationError, match=":2: actual times required"):
            load_segments_actuals(path, stations)
        f1, f2, f3 = load_segments_actuals(path, stations, assume_on_time=True)
        assert (f1.actual_dep, f1.actual_arr) == (f1.sched_dep, f1.sched_arr)
        assert (f2.actual_dep, f2.actual_arr) == (f2.sched_dep + 600, f2.sched_arr)
        assert (f3.actual_dep, f3.actual_arr) == (None, None)  # cancelled

    def test_reversed_actuals_rejected(self, tmp_path, stations):
        path = write(tmp_path, "segments.csv",
                     f"{SEGMENTS_HEADER}\n"
                     "F1,via_CDG,AMS,CDG,2018-01-02T12:00,2018-01-02T13:30,"
                     "2018-01-02T13:20,2018-01-02T13:00,0\n")
        with pytest.raises(ValidationError):
            load_segments_actuals(path, stations)

    @pytest.mark.parametrize("row", [
        # 02:30 does not exist in Paris on 2018-03-25; read with the offset
        # before the change (01:30 UTC) it is after the 03:10 arrival.
        "G1,x,CDG,GDN,2018-03-25T02:30,2018-03-25T02:30,"
        "2018-03-25T03:10,2018-03-25T03:10,0",
        "F1,via_CDG,AMS,CDG,2018-01-03T16:42:00.5,2018-01-03T16:42,"
        "2018-01-03T18:02,2018-01-03T18:02,0",
    ], ids=["dst-gap-inverts-order", "sub-second"])
    def test_untimeable_row_cites_path_and_line(self, tmp_path, stations, row):
        path = write(tmp_path, "segments.csv", f"{SEGMENTS_HEADER}\n{row}\n")
        with pytest.raises(ValidationError) as info:
            load_segments_actuals(path, stations)
        assert (info.value.path, info.value.line) == (str(path), 2)

    def test_unknown_station_rejected(self, tmp_path, stations):
        path = write(tmp_path, "segments.csv",
                     f"{SEGMENTS_HEADER}\n"
                     "F1,x,NOPE,CDG,2018-01-02T12:00,2018-01-02T12:00,"
                     "2018-01-02T13:20,2018-01-02T13:20,0\n")
        with pytest.raises(ValidationError, match="NOPE"):
            load_segments_actuals(path, stations)


def write_utf8(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


class TestPhysicalLines:
    """A row is cited by the line it starts on, counting ``\\n`` only."""

    @pytest.mark.parametrize("zone_id", ["Z\x851", "Z\x0c1"], ids=["nel", "form-feed"])
    def test_unicode_line_break_in_a_field_loads(self, tmp_path, zone_id):
        path = write_utf8(tmp_path, "rides.csv",
                          f"{RIDE_HEADER}\n{zone_id},Z9,2018-01-02,2,1800,1200,3600\n")
        (stat,) = load_ride_stats(path)
        assert stat.origin_zone_id == zone_id

    def test_row_after_a_quoted_line_break_cites_its_own_line(self, tmp_path):
        """A quoted field spanning lines is rejected, citing the line its row
        starts on, before any later row is read."""
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\n"
                     "Z1,Z8,2018-01-02,2,1800,1200,3600\n"
                     '"Z\n1",Z9,2018-01-02,2,1800,1200,3600\n'
                     "Z1,Z9,2018-01-02,2,xx,1200,3600\n")
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert str(info.value) == f"{path}:3: malformed CSV: line break inside a quoted field"

    def test_quote_left_open_cites_its_row(self, tmp_path):
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\n"
                     "Z1,Z8,2018-01-02,2,1800,1200,3600\n"
                     '"Z1,Z9,2018-01-02,2,1800,1200,3600\n')
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert str(info.value) == f"{path}:3: malformed CSV: line break inside a quoted field"

    @pytest.mark.parametrize("row, message", [
        ("Z\r1,Z9,2018-01-02,2,1800,1200,3600",
         "malformed CSV: new-line character seen in unquoted field"),
        ("Z" * 200_000 + ",Z9,2018-01-02,2,1800,1200,3600",
         "malformed CSV: field larger than field limit (131072)"),
    ], ids=["carriage-return", "huge-field"])
    def test_malformed_csv_row_cites_its_line(self, tmp_path, row, message):
        path = write_utf8(tmp_path, "rides.csv",
                          f"{RIDE_HEADER}\nZ\x851,Z9,2018-01-02,2,1800,1200,3600\n{row}\n")
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("name, load", [
        ("ride_stats.csv", lambda path: list(load_ride_stats(path))),
        ("stations.csv", load_stations),
        ("segments.csv",
         lambda path: load_segments_actuals(path, load_stations(GOLDEN / "stations.csv"))),
        ("weekly_schedule.csv",
         lambda path: [(row, row.line) for row in load_weekly_schedule(path)]),
    ])
    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path, name, load):
        text = (GOLDEN / name).read_text()
        crlf = write(tmp_path, name, text.replace("\n", "\r\n"))
        assert load(crlf) == load(GOLDEN / name)


def fold_0_epoch(local: datetime, tz: ZoneInfo) -> int:
    """The PEP 495 ``fold=0`` reading of a naive local time, from the UTC
    offsets at the start and end of its day: the earlier of the readings
    that round-trip, or, in a gap, the reading with the offset before it."""
    before = tz.utcoffset(local.replace(hour=0, minute=0))
    after = tz.utcoffset(local.replace(hour=23, minute=59))
    wall = int((local - datetime(1970, 1, 1)).total_seconds())
    readings = sorted(
        wall - int(offset.total_seconds()) for offset in {before, after}
        if datetime.fromtimestamp(wall - offset.total_seconds(), tz).replace(tzinfo=None)
        == local)
    return readings[0] if readings else wall - int(before.total_seconds())


DST_CHANGES_2018 = [
    ("Europe/Paris", date(2018, 3, 25)), ("Europe/Paris", date(2018, 10, 28)),
    ("America/New_York", date(2018, 3, 11)), ("America/New_York", date(2018, 11, 4)),
]


@given(change=st.sampled_from(DST_CHANGES_2018),
       minute=st.one_of(st.integers(0, 4 * 60), st.integers(0, 23 * 60 - 1)))
def test_dst_local_times_read_with_fold_0_by_both_sources(change, minute):
    """A local time in or near a DST gap or overlap gets the same epoch from
    segments.csv and from weekly expansion: its fold=0 reading."""
    tz_name, day = change
    local = datetime.combine(day, time(minute // 60, minute % 60))
    station = make_station("S1", tz=tz_name)
    row = WeeklyScheduleRow(mode_id="x", dep_station_id="S1", arr_station_id="S1",
                            days=(True,) * 7, dep_time=local.time(), arr_time=time(23, 59))
    (segment,) = expand_weekly_schedule([row], {"S1": station}, day, day)
    from_segments_csv = _parse_local_ts(local.isoformat(), station.tzinfo)
    assert segment.sched_dep == from_segments_csv == fold_0_epoch(local, ZoneInfo(tz_name))


ZONES_GEOJSON = """{
  "type": "FeatureCollection",
  "features": [
    {"type": "Feature",
     "properties": {"zone_id": "Z1", "internal_point": [2.35, 48.86],
                    "population_density": 5000},
     "geometry": {"type": "Point", "coordinates": [2.35, 48.86]}},
    {"type": "Feature",
     "properties": {"zone_id": "Z2"},
     "geometry": {"type": "Point", "coordinates": [2.40, 48.90]}}
  ]
}
"""


class TestLoadZones:
    def test_field_mapping(self, tmp_path):
        zones = load_zones(write(tmp_path, "zones.geojson", ZONES_GEOJSON))
        assert zones["Z1"].population_density == 5000
        assert zones["Z1"].internal_point == (48.86, 2.35)

    def test_missing_internal_point_loads_with_warning(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            zones = load_zones(write(tmp_path, "zones.geojson", ZONES_GEOJSON))
        assert zones["Z2"].internal_point is None
        assert any("Z2" in r.message for r in caplog.records)

    def test_negative_density_rejected(self, tmp_path):
        bad = ZONES_GEOJSON.replace("5000", "-1")
        with pytest.raises(ValidationError):
            load_zones(write(tmp_path, "zones.geojson", bad))

    def test_duplicate_zone_id_rejected(self, tmp_path):
        bad = ZONES_GEOJSON.replace('"Z2"', '"Z1"')
        with pytest.raises(ValidationError, match="duplicate"):
            load_zones(write(tmp_path, "zones.geojson", bad))


@pytest.mark.parametrize("name,old,new,line", [
    ("stations.csv", "52.3105", "abc", 2),
    ("stations.csv", "4.7683", "east", 2),
    ("stations.csv", "95,40", "soon,40", 5),
    ("stations.csv", "95,40", "95,forty", 5),
    ("zones.geojson", '"internal_point": [2.35', '"internal_point": ["east"', None),
    ("zones.geojson", '"internal_point": [2.35', '"internal_point": [null', None),
    ("zones.geojson", "5000", '"dense"', None),
])
def test_non_numeric_field_cites_path_and_line(tmp_path, name, old, new, line):
    text = STATIONS_CSV if name == "stations.csv" else ZONES_GEOJSON
    path = write(tmp_path, name, text.replace(old, new))
    loader = load_stations if name == "stations.csv" else load_zones
    with pytest.raises(ValidationError) as info:
        loader(path)
    assert (info.value.path, info.value.line) == (str(path), line)


class TestDwellDefaults:
    @pytest.mark.parametrize("station_id,dep,arr", [
        ("ATL", 110, 60), ("BOS", 105, 40), ("DCA", 100, 35),
        ("LAX", 125, 65), ("SEA", 105, 50), ("SFO", 105, 45),
        ("AMS", 90, 45), ("CDG", 90, 45), ("ORY", 90, 45),
    ])
    def test_airport_table(self, station_id, dep, arr):
        profile = DEFAULT_STATION_DWELL[station_id]
        assert (profile.t_sec_departure_min, profile.t_arr_min) == (dep, arr)

    def test_rail_default(self):
        assert (DEFAULT_RAIL_DWELL.t_sec_departure_min,
                DEFAULT_RAIL_DWELL.t_arr_min) == (15, 10)
        station = make_station("GDN", kind="rail", zone_id="PZ8")
        assert resolve_dwell(station) == DEFAULT_RAIL_DWELL

    def test_station_config_beats_table(self):
        station = make_station("CDG", dwell=DwellProfile(80, 35))
        assert resolve_dwell(station) == DwellProfile(80, 35)

    def test_kind_override_beats_everything(self):
        station = make_station("CDG", dwell=DwellProfile(80, 35))
        overrides = {"air": DwellProfile(60, 30)}
        assert resolve_dwell(station, overrides) == DwellProfile(60, 30)

    def test_stations_csv_dwell_columns(self, tmp_path):
        stations = load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))
        assert resolve_dwell(stations["XNA"]) == DwellProfile(95, 40)
        assert resolve_dwell(stations["CDG"]) == DEFAULT_STATION_DWELL["CDG"]
