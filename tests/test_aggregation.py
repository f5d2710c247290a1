"""Aggregation reductions checked against exhaustive brute-force oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from doortodoor import (
    DayPeriod,
    DwellProfile,
    RideStatIndex,
    Zone,
    bin_zone_counts,
    daily_zone_means,
    evaluate_trips,
    summarize,
)
from doortodoor.aggregation import interval_bin

from conftest import make_rides, make_segment, make_trip


# ---------------------------------------------------------------------------
# Brute-force oracles: straight re-statement of the definitions, independent
# of the grouping machinery under test.


def oracle_daily_means(trips):
    out = {}
    keys = {(t.dest_zone_id, t.arrival_date, t.arrival_period, t.mode_id)
            for t in trips}
    for key in keys:
        members = [t for t in trips
                   if (t.dest_zone_id, t.arrival_date, t.arrival_period,
                       t.mode_id) == key]
        e = Fraction(sum(t.total_mean_s for t in members), len(members))
        v = Fraction(sum(t.total_max_s - t.total_min_s for t in members),
                     len(members))
        out[key] = (e, v, len(members))
    return out


def oracle_winner_counts(day_means, value_index):
    cells = {(z, p) for (z, _, p, _) in day_means}
    counts = {}
    for z, p in cells:
        modes = {m for (z1, _, p1, m) in day_means if (z1, p1) == (z, p)}
        days = {d for (z1, d, p1, _) in day_means if (z1, p1) == (z, p)}
        n = {m: 0 for m in modes}
        for d in days:
            today = {m: day_means[(z, d, p, m)][value_index]
                     for m in modes if (z, d, p, m) in day_means}
            best = min(today.values())
            for m, value in today.items():
                if value == best:
                    n[m] += 1
        counts[(z, p)] = n
    return counts


def oracle_fastest_time(day_means):
    cells = {(z, p) for (z, _, p, _) in day_means}
    out = {}
    for z, p in cells:
        days = sorted({d for (z1, d, p1, _) in day_means if (z1, p1) == (z, p)})
        minima = []
        for d in days:
            today = [day_means[(z, d, p, m)][0]
                     for (z1, d1, p1, m) in day_means
                     if (z1, d1, p1) == (z, d, p)]
            if today:
                minima.append(min(today))
        out[(z, p)] = sum(minima, Fraction(0)) / len(minima)
    return out


def by_cell(summaries):
    return {(s.zone_id, s.period): s for s in summaries}


# ---------------------------------------------------------------------------


class TestDailyZoneMeans:
    def test_arithmetic_mean(self):
        base = dict(to_s=600, dep_s=1200, arr_s=600, from_s=600)
        trips = [make_trip(in_s=100 * 60 - 3000, **base),
                 make_trip(in_s=120 * 60 - 3000, **base)]
        (stat,) = daily_zone_means(trips)
        assert stat.e_s == Fraction(110 * 60)
        assert stat.n_trips == 2

    def test_singleton(self):
        trip = make_trip(to_spread=300, from_spread=600)
        (stat,) = daily_zone_means([trip])
        assert stat.e_s == trip.total_mean_s
        assert stat.v_s == trip.total_max_s - trip.total_min_s == 1800

    def test_zones_never_pooled(self):
        trips = [make_trip(dest_zone="PZ1"), make_trip(dest_zone="PZ2")]
        stats = daily_zone_means(trips)
        assert {s.zone_id for s in stats} == {"PZ1", "PZ2"}
        assert all(s.n_trips == 1 for s in stats)

    def test_empty_input(self):
        assert daily_zone_means([]) == []


class TestFastestModeCounts:
    def three_day_stats(self):
        trips = []
        # Mode A minimal on days 1 and 2, mode B on day 3.
        for day, (a_min, b_min) in [("2018-01-01", (240, 250)),
                                    ("2018-01-02", (240, 260)),
                                    ("2018-01-03", (250, 240))]:
            trips.append(make_trip(mode_id="A", arrival_date=day,
                                   in_s=a_min * 60 - 1800 - 5400 - 2700 - 1500))
            trips.append(make_trip(mode_id="B", arrival_date=day,
                                   in_s=b_min * 60 - 1800 - 5400 - 2700 - 1500))
        return daily_zone_means(trips)

    def test_counts_and_winner(self):
        (summary,) = summarize(self.three_day_stats())
        assert summary.n_by_mode == {"A": 2, "B": 1}
        assert summary.fastest_mode == "A"

    def test_tie_counts_both(self):
        trips = [make_trip(mode_id="A"), make_trip(mode_id="B")]
        (summary,) = summarize(daily_zone_means(trips))
        assert summary.n_by_mode == {"A": 1, "B": 1}
        assert summary.fastest_mode == "A"  # lexicographic tie-break

    def test_absent_mode_never_selected(self):
        (summary,) = summarize(self.three_day_stats())
        assert "C" not in summary.n_by_mode

    def test_counting_conservation(self):
        stats = self.three_day_stats()
        (summary,) = summarize(stats)
        days = len({s.date for s in stats})
        assert sum(summary.n_by_mode.values()) >= days


class TestFastestTime:
    def test_mean_of_minima(self):
        trips = []
        for day, minute in [("2018-01-01", 240), ("2018-01-02", 260)]:
            trips.append(make_trip(mode_id="A", arrival_date=day,
                                   in_s=minute * 60 - 1800 - 5400 - 2700 - 1500))
            trips.append(make_trip(mode_id="B", arrival_date=day,
                                   in_s=(minute + 30) * 60 - 1800 - 5400 - 2700 - 1500))
        times = by_cell(summarize(daily_zone_means(trips)))
        summary = times[("PZ1", DayPeriod.MIDDAY)]
        assert summary.e_bar_s == Fraction(250 * 60)
        assert summary.days_used == 2

    def test_single_mode_degenerate(self):
        trips = [make_trip(arrival_date="2018-01-01"),
                 make_trip(arrival_date="2018-01-02", in_s=4800 + 600)]
        times = by_cell(summarize(daily_zone_means(trips)))
        summary = times[("PZ1", DayPeriod.MIDDAY)]
        assert summary.e_bar_s == Fraction((270 + 280) * 60, 2)

    def test_partial_coverage_reported(self):
        trips = [make_trip(dest_zone="PZ1", arrival_date="2018-01-01"),
                 make_trip(dest_zone="PZ1", arrival_date="2018-01-02"),
                 make_trip(dest_zone="PZ2", arrival_date="2018-01-01")]
        times = by_cell(summarize(daily_zone_means(trips)))
        assert times[("PZ2", DayPeriod.MIDDAY)].days_used == 1
        assert times[("PZ2", DayPeriod.MIDDAY)].days_total == 2


class TestReliability:
    def test_lowest_variability_wins(self):
        trips = []
        for day in ("2018-01-01", "2018-01-02"):
            trips.append(make_trip(mode_id="A", arrival_date=day,
                                   to_spread=1200, from_spread=1200))  # V=80min
            trips.append(make_trip(mode_id="B", arrival_date=day,
                                   to_spread=600, from_spread=150))  # V=25min
        (summary,) = summarize(daily_zone_means(trips))
        assert summary.most_reliable_mode == "B"
        assert summary.reliability_by_mode == {"A": 0, "B": 2}

    def test_fastest_and_most_reliable_can_differ(self):
        trips = []
        for day in ("2018-01-01", "2018-01-02"):
            # A is faster on average but has a wider min/max spread.
            trips.append(make_trip(mode_id="A", arrival_date=day,
                                   in_s=4200, to_spread=1500, from_spread=1200))
            trips.append(make_trip(mode_id="B", arrival_date=day,
                                   in_s=4800, to_spread=60, from_spread=60))
        (summary,) = summarize(daily_zone_means(trips))
        assert summary.fastest_mode == "A"
        assert summary.most_reliable_mode == "B"

    def test_tie_counts_both(self):
        trips = [make_trip(mode_id="A", to_spread=300),
                 make_trip(mode_id="B", to_spread=300)]
        (summary,) = summarize(daily_zone_means(trips))
        assert summary.reliability_by_mode == {"A": 1, "B": 1}


class TestIntervalBins:
    @pytest.mark.parametrize("minutes,label", [
        (0, "<4h"), (239, "<4h"), (240, "4h-4h30"), (269, "4h-4h30"),
        (270, "4h30-5h"), (299, "4h30-5h"), (300, ">=5h"), (480, ">=5h"),
    ])
    def test_boundaries(self, minutes, label):
        assert interval_bin(minutes) == label

    def test_bins_conserve_summaries(self):
        trips = []
        for i, minutes in enumerate([230, 250, 280, 320]):
            trips.append(make_trip(dest_zone=f"PZ{i}",
                                   in_s=minutes * 60 - 1800 - 5400 - 2700 - 1500))
        summaries = summarize(daily_zone_means(trips))
        counts = bin_zone_counts(summaries)
        assert sum(counts.values()) == len(summaries) == 4
        assert set(k[2] for k in counts) == {"<4h", "4h-4h30", "4h30-5h", ">=5h"}


def random_trips(rng, n_zones=5, n_modes=3, n_days=14):
    trips = []
    for day_n in range(1, n_days + 1):
        for zone_n in range(n_zones):
            for mode_n in range(n_modes):
                if rng.random() < 0.3:  # sparse coverage
                    continue
                for _ in range(rng.randint(1, 3)):
                    mean_extra = rng.randrange(0, 7200)
                    trips.append(make_trip(
                        dest_zone=f"Z{zone_n}",
                        mode_id=f"m{mode_n}",
                        arrival_date=f"2018-01-{day_n:02d}",
                        arrival_period=rng.choice(
                            [DayPeriod.AM, DayPeriod.MIDDAY]),
                        in_s=3600 + mean_extra,
                        to_spread=rng.randrange(0, 1500),
                        from_spread=rng.randrange(0, 1200),
                    ))
    return trips


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_fixture_matches_brute_force(self, seed):
        rng = random.Random(seed)
        trips = random_trips(rng)
        day_stats = daily_zone_means(trips)
        expected = oracle_daily_means(trips)
        assert len(day_stats) == len(expected)
        day_means = {}
        for stat in day_stats:
            key = (stat.zone_id, stat.date, stat.period, stat.mode_id)
            assert (stat.e_s, stat.v_s, stat.n_trips) == expected[key]
            day_means[key] = (stat.e_s, stat.v_s)

        summaries = summarize(day_stats)
        fast = {key: s.n_by_mode for key, s in by_cell(summaries).items()}
        assert fast == oracle_winner_counts(day_means, 0)

        reliable = {key: s.reliability_by_mode for key, s in by_cell(summaries).items()}
        assert reliable == oracle_winner_counts(day_means, 1)

        times = {key: s.e_bar_s for key, s in by_cell(summaries).items()}
        assert times == oracle_fastest_time(day_means)

        bins = bin_zone_counts(summaries)
        assert sum(bins.values()) == len(summaries)
        for summary in summaries:
            assert interval_bin(float(summary.e_bar_s) / 60) == summary.interval_bin


# A day cell's mean time and mean variability are drawn as fractions p / q
# with small p and q, and its trip count as k * q_time * q_variability, so
# equal means often meet with different trip counts (3/2 against 6/4) and
# equal daily minima often have different denominators.
fractions_pq = st.tuples(st.integers(0, 5), st.integers(1, 3))
tie_cells = st.dictionaries(
    st.tuples(st.sampled_from(["Z0", "Z1"]), st.integers(1, 4),
              st.sampled_from([DayPeriod.AM, DayPeriod.MIDDAY]),
              st.sampled_from(["a", "b", "c"])),
    st.tuples(fractions_pq, fractions_pq, st.integers(1, 2)),
    min_size=1, max_size=24)


def tie_trips(cells):
    """Trips whose (zone, day, period, mode) cells have the drawn means: the
    whole remainder above a round base sits on each cell's first trip."""
    trips = []
    for (zone, day, period, mode), ((p_e, q_e), (p_v, q_v), k) in cells.items():
        for i in range(k * q_e * q_v):
            # make_trip's variability is twice to_spread.
            trips.append(make_trip(
                dest_zone=zone, mode_id=mode, arrival_date=f"2018-01-0{day}",
                arrival_period=period,
                in_s=3600 + (p_e * k * q_v if i == 0 else 0),
                to_spread=p_v * k * q_e if i == 0 else 0))
    return trips


class TestTieOracle:
    @settings(deadline=None)
    @given(tie_cells, st.randoms(use_true_random=False))
    @example({("Z0", 1, DayPeriod.AM, "a"): ((3, 2), (3, 2), 1),
              ("Z0", 1, DayPeriod.AM, "b"): ((3, 2), (3, 2), 2),
              ("Z0", 2, DayPeriod.AM, "b"): ((1, 1), (1, 1), 1),
              ("Z0", 2, DayPeriod.AM, "c"): ((2, 2), (3, 3), 2)}, random.Random(0))
    def test_summaries_match_the_oracle(self, cells, rng):
        base_e = 11400 + 3600  # make_trip's phase sum with in_s=3600
        day_means = {key: (base_e + Fraction(p_e, q_e), 2 * Fraction(p_v, q_v))
                     for key, ((p_e, q_e), (p_v, q_v), _) in cells.items()}
        trips = tie_trips(cells)
        rng.shuffle(trips)
        day_stats = daily_zone_means(trips)
        assert {(s.zone_id, s.date.day, s.period, s.mode_id): (s.e_s, s.v_s)
                for s in day_stats} == day_means

        rng.shuffle(day_stats)
        summaries = by_cell(summarize(day_stats))
        fastest = oracle_winner_counts(day_means, 0)
        reliable = oracle_winner_counts(day_means, 1)
        assert {k: s.n_by_mode for k, s in summaries.items()} == fastest
        assert {k: s.reliability_by_mode for k, s in summaries.items()} == reliable
        e_bar = oracle_fastest_time(day_means)
        assert {k: s.e_bar_s for k, s in summaries.items()} == e_bar
        days_total = len({day for (_, day, _, _) in cells})
        for key, summary in summaries.items():
            for mode, counts in ((summary.fastest_mode, fastest[key]),
                                 (summary.most_reliable_mode, reliable[key])):
                best = max(counts.values())
                assert mode == min(m for m, c in counts.items() if c == best)
            assert summary.days_used == len({d for (z, d, p, _) in cells if (z, p) == key})
            assert summary.days_total == days_total


class TestMonotonicity:
    def test_increasing_one_mode_never_improves_it(self):
        rng = random.Random(7)
        base = random_trips(rng, n_zones=3, n_modes=2, n_days=6)
        slower = [
            t if t.mode_id != "m0" else make_trip(
                dest_zone=t.dest_zone_id, mode_id=t.mode_id,
                arrival_date=t.arrival_date.isoformat(),
                arrival_period=t.arrival_period,
                in_s=t.legs.in_s + 600,
                to_spread=t.ride_to.mean_s - t.ride_to.min_s,
                from_spread=t.ride_from.mean_s - t.ride_from.min_s,
                segment_id=t.segment_id)
            for t in base
        ]
        t_base = by_cell(summarize(daily_zone_means(base)))
        t_slow = by_cell(summarize(daily_zone_means(slower)))
        assert all(t_slow[k].n_by_mode.get("m0", 0) <= t_base[k].n_by_mode.get("m0", 0)
                   for k in t_base)
        assert all(t_slow[k].e_bar_s >= t_base[k].e_bar_s for k in t_base)


# ---------------------------------------------------------------------------
# What-if recomputation over the full pipeline.


def whatif_fixture():
    """Two modes into two zones over three days, with a 21:45 air departure
    whose trips arrive just after midnight under default processing times."""
    stations = {
        "AMS": make_segment().dep_station,
        "CDG": make_segment().arr_station,
    }
    segments = []
    for day in ("2018-01-01", "2018-01-02", "2018-01-03"):
        segments.append(make_segment(
            segment_id=f"late_{day}", mode_id="via_CDG",
            sched_dep=f"{day}T21:45", sched_arr=f"{day}T23:05"))
        segments.append(make_segment(
            segment_id=f"noon_{day}", mode_id="via_CDG",
            sched_dep=f"{day}T12:00", sched_arr=f"{day}T13:20"))
    rides = []
    for day_n in range(1, 5):
        day = f"2018-01-{day_n:02d}"
        rides.append(("AZ1", "AZ1", day, DayPeriod.DAILY_ONLY, 1800, 1500, 2400))
        for zone in ("PZ1", "PZ2"):
            rides.append(("PZ9", zone, day, DayPeriod.DAILY_ONLY, 1200, 900, 1800))
    zones = [Zone("PZ1"), Zone("PZ2")]
    return segments, Zone("AZ1"), zones, make_rides(rides)


def what_if(segments, origin, zones, rides, overrides):
    """Summaries of all trips recomputed under per-kind dwell overrides."""
    report = evaluate_trips(segments, origin, zones, rides, dwell_overrides=overrides)
    return summarize(daily_zone_means(report.trips))


class TestWhatIf:
    DEFAULTS = {"air": DwellProfile(90, 45)}
    FASTER = {"air": DwellProfile(60, 30)}

    def test_default_overrides_reproduce_baseline(self):
        segments, origin, zones, rides = whatif_fixture()
        report = evaluate_trips(segments, origin, zones, rides)
        baseline = summarize(daily_zone_means(report.trips))
        replayed = what_if(segments, origin, zones, rides, self.DEFAULTS)
        assert replayed == baseline

    def test_disappearance_from_early_morning(self):
        segments, origin, zones, rides = whatif_fixture()
        # Baseline: 23:05 arrival + 45min dwell + 20min ride = 00:10 next day.
        baseline = what_if(segments, origin, zones, rides, self.DEFAULTS)
        early = [s for s in baseline if s.period is DayPeriod.EARLY_MORNING]
        assert early and all("via_CDG" in s.n_by_mode for s in early)
        # Faster processing: egress 23:35 + 20min = 23:55 same day.
        faster = what_if(segments, origin, zones, rides, self.FASTER)
        assert not [s for s in faster if s.period is DayPeriod.EARLY_MORNING]
        late = [s for s in faster if s.period is DayPeriod.LATE_EVENING]
        assert late

    def test_untouched_kind_unchanged(self):
        segments, origin, zones, rides = whatif_fixture()
        rail_only = {"rail": DwellProfile(5, 5)}
        baseline = what_if(segments, origin, zones, rides, self.DEFAULTS)
        assert what_if(segments, origin, zones, rides,
                       {**self.DEFAULTS, **rail_only}) == baseline


class TestEvaluateTrips:
    def test_cancelled_and_uncovered_zones_skipped(self):
        segments, origin, zones, rides = whatif_fixture()
        segments = segments[:1] + [make_segment(segment_id="X", cancelled=True)]
        zones = zones + [Zone("PZ_NO_DATA")]
        report = evaluate_trips(segments, origin, zones, rides)
        assert ("X", "*", "cancelled") in report.skipped
        assert any(z == "PZ_NO_DATA" for _, z, _ in report.skipped)
        assert all(t.dest_zone_id != "PZ_NO_DATA" for t in report.trips)

    def test_missing_access_ride_skips_every_zone(self):
        segments, origin, zones, rides = whatif_fixture()
        report = evaluate_trips(segments[:1], Zone("AZ_NO_DATA"), zones, rides)
        assert report.trips == []
        message = "no ride stat AZ_NO_DATA->AZ1 on 2018-01-01 (late_evening or daily)"
        assert report.skipped == [("late_2018-01-01", "PZ1", message),
                                  ("late_2018-01-01", "PZ2", message)]

    def test_access_ride_looked_up_once_per_segment(self):
        class CountingRides(RideStatIndex):
            lookups = 0

            def lookup(self, *key):
                self.lookups += 1
                return super().lookup(*key)

        segments, origin, zones, rides = whatif_fixture()
        rides = CountingRides(rides)
        segments = segments + [make_segment(segment_id="X", cancelled=True)]
        report = evaluate_trips(segments, origin, zones, rides)
        n_segments, n_zones = len(segments) - 1, len(zones)
        assert len(report.trips) == n_segments * n_zones  # every bucket present
        assert rides.lookups == n_segments + n_segments * n_zones
