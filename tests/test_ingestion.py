"""Parsers, indexes, weekly-schedule expansion and dwell defaults."""

import tracemalloc
from datetime import date, datetime, time, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings, strategies as st

from doortodoor import (
    DayPeriod,
    DwellProfile,
    ValidationError,
    ZoneRideStat,
    expand_weekly_schedule,
    load_ride_stats,
    load_segments_actuals,
    load_stations,
    load_zones,
    resolve_dwell,
)
from doortodoor.ingestion import (
    DEFAULT_RAIL_DWELL,
    DEFAULT_STATION_DWELL,
    SLOTS,
    _parse_local_ts,
)
from doortodoor.model import PERIOD_BY_CODE, local_date_period

from conftest import load_bench_gen, make_station, ride_index, ride_stats_by_key

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
            ("Z1,Z9,2018-01-02,2,1800,0,3600",
             "ride stat Z1->Z9 2018-01-02: need 0 < min <= mean <= max, got 0/1800/3600"),
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
        stats[key] = ZoneRideStat(key[3], mean, low, high)
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
        outcome = ride_stats_by_key(load_ride_stats(path))
    except ValidationError as exc:
        outcome = str(exc)
    expected = oracle_ride_stats(rows)
    assert outcome == (expected if isinstance(expected, dict) else f"{path}:{expected}")


def test_ride_stat_is_the_tuple_of_its_fields():
    """Constructing a ZoneRideStat checks nothing; ``load_ride_stats`` does."""
    stat = ZoneRideStat(DayPeriod.AM, 0, 0, 0)
    assert stat == (DayPeriod.AM, 0, 0, 0)
    assert ZoneRideStat._fields == ("period", "mean_s", "min_s", "max_s")


period_codes = st.sampled_from(list(DayPeriod))


class TestRideStatIndexFallback:
    @given(st.lists(
        st.tuples(st.sampled_from(["A", "B"]), st.sampled_from(["X", "Y"]),
                  st.integers(1, 5), period_codes, st.integers(60, 3600)),
        max_size=20))
    def test_fallback_semantics(self, rows):
        index = ride_index((origin, dest, date(2018, 1, day_n), period, mean_s, mean_s, mean_s)
                           for origin, dest, day_n, period, mean_s in rows)
        stats = ride_stats_by_key(index)
        for (origin, dest, day, period), stat in stats.items():
            if period is DayPeriod.DAILY_ONLY:
                continue
            hit = index.lookup(origin, dest, day, period)
            assert hit == stat
        # Keys with only a daily record fall back; absent pairs return None.
        for (origin, dest, day, period) in stats:
            for probe in DayPeriod:
                if probe is DayPeriod.DAILY_ONLY:
                    continue
                if (origin, dest, day, probe) in stats:
                    continue
                hit = index.lookup(origin, dest, day, probe)
                daily = index.get(origin, dest, day, DayPeriod.DAILY_ONLY)
                if daily is not None:
                    assert hit == daily
                else:
                    assert hit is None


INDEX_ZONES = ("Z1", "Z2", "Z3")
INDEX_DAYS = (date(2018, 1, 2), date(2018, 1, 3), date(2018, 1, 4))

# Ride rows by key (origin, dest, date, period), so no key repeats, over few
# zones, dates and periods, so pairs, dates and periods repeat across rows;
# period 0 (daily) is drawn as often as any other.
ride_rows_by_key = st.dictionaries(
    st.tuples(st.sampled_from(INDEX_ZONES), st.sampled_from(INDEX_ZONES),
              st.sampled_from(INDEX_DAYS), period_codes),
    st.lists(st.integers(1, 5000), min_size=3, max_size=3).map(sorted),
    max_size=40,
)


class TestRideStatIndexContract:
    """The index ``load_ride_stats`` builds, against a brute-force pass over
    the rows it was given."""

    @staticmethod
    def load(tmp_path_factory, rows):
        path = write(tmp_path_factory.getbasetemp(), "index.csv", "".join(
            [f"{RIDE_HEADER}\n"] + [f"{o},{d},{day},{period.code},{mean},{low},{high}\n"
                                    for (o, d, day, period), (low, mean, high) in rows]))
        return load_ride_stats(path)

    @staticmethod
    def brute_lookup(rows, origin, dest, day, period):
        """The period's stat, else the day's daily stat, else None."""
        for wanted in (period, DayPeriod.DAILY_ONLY):
            for (o, d, when, row_period), (low, mean, high) in rows:
                if (o, d, when, row_period) == (origin, dest, day, wanted):
                    return ZoneRideStat(row_period, mean, low, high)
        return None

    @settings(max_examples=150, deadline=None)
    @given(rows_by_key=ride_rows_by_key, seed=st.randoms(use_true_random=False))
    def test_index_matches_brute_force_in_any_row_order(self, tmp_path_factory,
                                                        rows_by_key, seed):
        rows = list(rows_by_key.items())
        index = self.load(tmp_path_factory, rows)
        assert len(index) == len(rows)
        for (origin, dest, day, period), (low, mean, high) in rows:
            assert index.get(origin, dest, day, period) == (period, mean, low, high)
        probes = [(o, d, day, period) for o in INDEX_ZONES for d in INDEX_ZONES
                  for day in INDEX_DAYS + (date(2018, 1, 5),) for period in DayPeriod]
        for probe in probes:
            if probe not in rows_by_key:
                assert index.get(*probe) is None
            if probe[3] is not DayPeriod.DAILY_ONLY:
                assert index.lookup(*probe) == self.brute_lookup(rows, *probe)
        daily = sum(1 for key in rows_by_key if key[3] is DayPeriod.DAILY_ONLY)
        assert index.daily_count() == daily

        seed.shuffle(rows)
        permuted = self.load(tmp_path_factory, rows)
        assert len(permuted) == len(index)
        assert ride_stats_by_key(permuted) == ride_stats_by_key(index)
        assert [permuted.lookup(*probe) for probe in probes] == [
            index.lookup(*probe) for probe in probes]
        assert permuted.daily_count() == index.daily_count()

    def test_each_pair_and_date_holds_one_slot_row(self):
        """A zone pair's rows of one date share one slot row, three slots per
        period code, and every row of one date text shares one date key."""
        index = load_ride_stats(GOLDEN / "ride_stats.csv")
        slot_rows = [(day, slot_row) for by_date in index.pairs.values()
                     for day, slot_row in by_date.items()]
        assert len(index.pairs) > 1 and len(index) == 170 and len(slot_rows) == 88
        assert {len(slot_row) for _, slot_row in slot_rows} == {SLOTS} == {18}
        assert sum(1 for _, slot_row in slot_rows for slot in range(0, SLOTS, 3)
                   if slot_row[slot]) == 170
        assert len({id(day) for day, _ in slot_rows}) == len({day for day, _ in slot_rows})


def test_ride_stat_load_peak_memory_per_row(tmp_path, monkeypatch):
    """The tracemalloc peak of one load, per row of the ``legs-delays``
    benchmark's seed-1 ride file (45,322 rows): 138.9 B/row when every row
    kept a stat object and the reader held the whole text and its lines,
    about 68 B/row with slot rows and lines read one at a time."""
    load_bench_gen(monkeypatch).generate("legs-delays", 1, tmp_path)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before, _ = tracemalloc.get_traced_memory()
        index = load_ride_stats(tmp_path / "ride_stats.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(index) == 45_322
    assert (peak - before) / len(index) < 100


WEEKLY_HEADER = "mode_id,dep_station,arr_station,days,dep_time,arr_time"


class TestWeeklySchedule:
    @pytest.fixture
    def stations(self, tmp_path):
        return load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))

    def test_daily_row_over_one_week(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1111111,06:45,08:05\n")
        segments = expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 7))
        assert len(segments) == 7
        assert segments[0].sched_dep == utc_epoch(2018, 1, 1, 5, 45)  # 06:45+01:00
        assert segments[0].actual_dep == segments[0].sched_dep
        assert len({s.segment_id for s in segments}) == 7

    def test_weekday_mask_respected(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1000010,06:45,08:05\n")
        segments = expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 14))
        # 2018-01-01 is a Monday: two Mondays + two Saturdays in two weeks.
        assert len(segments) == 4
        assert {local_date(s.sched_dep, stations["AMS"]).weekday()
                for s in segments} == {0, 5}

    def test_all_false_mask_rejected(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,0000000,06:45,08:05\n")
        with pytest.raises(ValidationError, match="no weekday"):
            expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 7))

    @pytest.mark.parametrize("clock", ["24:00", "6:7:8", "-1:30", "9" * 20 + ":00"])
    def test_bad_clock_time_cites_row(self, tmp_path, stations, clock):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1111111,{clock},08:05\n")
        with pytest.raises(ValidationError) as info:
            expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 7))
        assert str(info.value) == f"{path}:2: bad HH:MM time {clock!r}"

    def test_first_bad_line_wins(self, tmp_path, stations):
        # Row 2's unknown station is found as row 2 is read, before row 3's clock.
        path = write(tmp_path, "weekly.csv", f"{WEEKLY_HEADER}\n"
                     "via_CDG,AMS,ZZZ,1111111,06:45,08:05\n"
                     "via_CDG,AMS,CDG,1111111,6:7:8,08:05\n")
        with pytest.raises(ValidationError) as info:
            expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 7))
        assert str(info.value) == f"{path}:2: unknown station 'ZZZ' in weekly schedule"

    def test_empty_range_checks_every_row(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv", f"{WEEKLY_HEADER}\n"
                     "via_CDG,AMS,CDG,1111111,06:45,08:05\n"
                     "via_CDG,AMS,ZZZ,1111111,06:45,08:05\n")
        with pytest.raises(ValidationError, match=r":3: unknown station 'ZZZ'"):
            expand_weekly_schedule(path, stations, date(2018, 1, 7), date(2018, 1, 1))
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1111111,06:45,08:05\n")
        assert expand_weekly_schedule(path, stations, date(2018, 1, 7), date(2018, 1, 1)) == []

    def test_late_evening_departure_same_date(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_CDG,AMS,CDG,1111111,21:45,23:05\n")
        segments = expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 1))
        assert len(segments) == 1
        assert local_date(segments[0].sched_arr, stations["CDG"]) == date(2018, 1, 1)

    def test_overnight_rolls_arrival(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nnight,AMS,CDG,1111111,23:30,00:50\n")
        segments = expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 1))
        assert local_date(segments[0].sched_arr, stations["CDG"]) == date(2018, 1, 2)

    def test_overnight_arrival_past_the_last_date_cites_row(self, tmp_path, stations):
        # The 9999-12-31 departure would arrive on a date ``date`` cannot hold.
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nn,AMS,CDG,1111111,23:30,00:50\n")
        with pytest.raises(ValidationError) as info:
            expand_weekly_schedule(path, stations, date(9999, 12, 30), date(9999, 12, 31))
        assert str(info.value) == (
            f"{path}:2: segment n_9999-12-31_2330: arrival date after 9999-12-31")

    def test_segment_count_matches_matching_dates(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\n"
                     "a,AMS,CDG,1111111,06:45,08:05\n"
                     "b,AMS,CDG,1111100,09:00,10:20\n")
        segments = expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 14))
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
            expand_weekly_schedule(path, stations, date(2018, 1, 1), date(2018, 1, 7))
        assert str(info.value) == f"{path}:3: duplicate segment_id via_X_2018-01-02_0645"

    def test_id_taken_by_dated_segments_rejected(self, tmp_path, stations):
        path = write(tmp_path, "weekly.csv",
                     f"{WEEKLY_HEADER}\nvia_X,AMS,CDG,0100000,06:45,08:05\n")
        with pytest.raises(ValidationError) as info:
            expand_weekly_schedule(path, stations,
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
        ((origin, _),) = load_ride_stats(path).pairs
        assert origin == zone_id

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

    @pytest.mark.parametrize("last_line", [
        '"Z1,Z9,2018-01-02,2,1800,1200,3600',
        'Z1,Z9,2018-01-02,2,1800,1200,"3600',  # csv reads the last field as 3600
    ], ids=["row", "last-field"])
    def test_quote_left_open_without_a_last_line_end_cites_its_row(self, tmp_path, last_line):
        path = write(tmp_path, "rides.csv",
                     f"{RIDE_HEADER}\nZ1,Z8,2018-01-02,2,1800,1200,3600\n{last_line}")
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert str(info.value) == (
            f"{path}:3: malformed CSV: quote left open at the end of the file")

    def test_quoted_text_then_more_text_still_loads(self, tmp_path):
        path = write(tmp_path, "rides.csv",
                     f'{RIDE_HEADER}\n"Z"1,Z9,2018-01-02,2,1800,1200,"3600"')
        index = load_ride_stats(path)
        assert index.get("Z1", "Z9", date(2018, 1, 2), DayPeriod.AM) == (DayPeriod.AM, 1800,
                                                                          1200, 3600)

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

    ROW = "Z1,Z9,2018-01-02,2,1800,1200,3600"

    @pytest.mark.parametrize("lines, line, message", [
        ([ROW, b"Z2\xff,Z9,2018-01-02,2,1800,1200,3600", "Z3,Z9,2018-01-02,2,xx,1200,3600"],
         3, "not UTF-8: byte 0xff"),
        ([ROW, "Z3,Z9,2018-01-02,2,xx,1200,3600", b"Z2\xff,Z9,2018-01-02,2,1800,1200,3600"],
         3, "mean_s: not an integer: 'xx'"),
        ([ROW, '"Z2,Z9', b"\xc3,2018-01-02,2,1800,1200,3600"],
         3, "malformed CSV: line break inside a quoted field"),
        ([ROW, b"\xed\xa0\x80,Z9,2018-01-02,2,1800,1200,3600"], 3, "not UTF-8: byte 0xed"),
    ], ids=["bad-byte-first", "bad-field-first", "bad-byte-in-open-quote", "surrogate"])
    def test_first_bad_line_wins(self, tmp_path, lines, line, message):
        """Each line is decoded when it is read, so a byte that is not UTF-8
        is cited by its own line, after any fault of an earlier line."""
        path = tmp_path / "rides.csv"
        path.write_bytes(b"\n".join(
            part if isinstance(part, bytes) else part.encode()
            for part in [RIDE_HEADER, *lines]) + b"\n")
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert (info.value.path, info.value.line) == (str(path), line)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_bad_byte_in_the_header_cites_line_1(self, tmp_path):
        path = tmp_path / "rides.csv"
        path.write_bytes(RIDE_HEADER.encode() + b"\xff\n" + self.ROW.encode() + b"\n")
        with pytest.raises(ValidationError, match=r":1: not UTF-8: byte 0xff$"):
            load_ride_stats(path)

    @pytest.mark.parametrize("end, last", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", ""),
                                           ("\r\n", "")],
                             ids=["lf", "crlf", "lf-none-last", "crlf-none-last"])
    def test_line_ends_and_a_missing_last_one(self, tmp_path, end, last):
        """LF and CRLF files, also when the last line has no line end, load
        the same stats and cite the same lines."""
        rows = [self.ROW, "Z2,Z9,2018-01-02,0,1500,1200,3600"]
        path = write_utf8(tmp_path, "rides.csv", end.join([RIDE_HEADER, *rows]) + last)
        assert list(ride_stats_by_key(load_ride_stats(path))) == [
            ("Z1", "Z9", date(2018, 1, 2), DayPeriod.AM),
            ("Z2", "Z9", date(2018, 1, 2), DayPeriod.DAILY_ONLY)]
        path = write_utf8(tmp_path, "bad.csv", end.join([RIDE_HEADER, *rows, "Z3,Z9"]) + last)
        with pytest.raises(ValidationError, match=r"bad\.csv:4: expected 7 fields, got 2$"):
            load_ride_stats(path)

    @pytest.mark.parametrize("text, line, message", [
        (f"{RIDE_HEADER}\r{ROW}\r", 1, "header must be exactly"),
        (f"{RIDE_HEADER}\n{ROW}\r{ROW}\n", 2,
         "malformed CSV: new-line character seen in unquoted field"),
    ], ids=["as-line-ends", "inside-a-row"])
    def test_lone_carriage_return_ends_no_line(self, tmp_path, text, line, message):
        path = write_utf8(tmp_path, "rides.csv", text)
        with pytest.raises(ValidationError) as info:
            load_ride_stats(path)
        assert info.value.line == line and message in str(info.value)

    def test_lone_carriage_return_before_the_end_of_file_loads(self, tmp_path):
        path = write_utf8(tmp_path, "rides.csv", f"{RIDE_HEADER}\n{self.ROW}\r")
        assert len(load_ride_stats(path)) == 1

    @pytest.mark.parametrize("name, load", [
        ("ride_stats.csv", lambda path: list(ride_stats_by_key(load_ride_stats(path)).items())),
        ("stations.csv", load_stations),
        ("segments.csv",
         lambda path: load_segments_actuals(path, load_stations(GOLDEN / "stations.csv"))),
        ("weekly_schedule.csv",
         lambda path: expand_weekly_schedule(path, load_stations(GOLDEN / "stations.csv"),
                                             date(2018, 1, 1), date(2018, 1, 7))),
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


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("dst")


@given(change=st.sampled_from(DST_CHANGES_2018),
       minute=st.one_of(st.integers(0, 4 * 60), st.integers(0, 23 * 60 - 1)))
def test_dst_local_times_read_with_fold_0_by_both_sources(scratch, change, minute):
    """A local time in or near a DST gap or overlap gets the same epoch from
    segments.csv and from weekly expansion: its fold=0 reading."""
    tz_name, day = change
    local = datetime.combine(day, time(minute // 60, minute % 60))
    station = make_station("S1", tz=tz_name)
    path = write(scratch, "weekly.csv", f"{WEEKLY_HEADER}\nx,S1,S1,1111111,{local:%H:%M},23:59\n")
    (segment,) = expand_weekly_schedule(path, {"S1": station}, day, day)
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
        assert resolve_dwell(station, DwellProfile(60, 30)) == DwellProfile(60, 30)

    def test_stations_csv_dwell_columns(self, tmp_path):
        stations = load_stations(write(tmp_path, "stations.csv", STATIONS_CSV))
        assert resolve_dwell(stations["XNA"]) == DwellProfile(95, 40)
        assert resolve_dwell(stations["CDG"]) == DEFAULT_STATION_DWELL["CDG"]
