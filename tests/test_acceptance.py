"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them)."""

import random
import time as time_mod
from datetime import date
from fractions import Fraction

import pytest

from doortodoor import (
    DayPeriod,
    DwellProfile,
    Zone,
    airport_integration,
    bin_zone_counts,
    classify_period,
    daily_zone_means,
    delay_sensitivity,
    evaluate_trips,
    geodesic_distance,
    load_ride_stats,
    load_stations,
    load_zones,
    summarize,
    expand_weekly_schedule,
)
from doortodoor.cli import main
from doortodoor.ingestion import DEFAULT_RAIL_DWELL, DEFAULT_STATION_DWELL

from conftest import kernel_trip, make_rides, make_segment, trip_facts, trips_of
from test_aggregation import (
    oracle_daily_means,
    oracle_fastest_time,
    oracle_winner_counts,
    random_trips,
)
from test_analytics import delay_fixture, linear_ride_index, zone_collection
from test_cli import BASE_FLAGS, FIXTURES, assert_trees_identical


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_dwell_defaults():
    expected = {
        "ATL": (110, 60), "BOS": (105, 40), "DCA": (100, 35),
        "LAX": (125, 65), "SEA": (105, 50), "SFO": (105, 45),
        "AMS": (90, 45), "CDG": (90, 45), "ORY": (90, 45),
    }
    assert set(DEFAULT_STATION_DWELL) == set(expected)
    for station_id, (dep, arr) in expected.items():
        profile = DEFAULT_STATION_DWELL[station_id]
        assert (profile.t_sec_departure_min, profile.t_arr_min) == (dep, arr)
    assert (DEFAULT_RAIL_DWELL.t_sec_departure_min,
            DEFAULT_RAIL_DWELL.t_arr_min) == (15, 10)
    report(1, "built-in dwell table matches the published airport/rail values")


def test_criterion_2_worked_trip_and_runtime():
    dwell = DwellProfile(90, 45)
    rides = make_rides([
        ("AZ1", "AZ1", "2018-01-02", DayPeriod.MIDDAY, 1800),
        ("PZ9", "PZ1", "2018-01-02", DayPeriod.MIDDAY, 1500),
    ])
    origin, dest = Zone("AZ1"), Zone("PZ1")
    on_time = make_segment()
    delayed = make_segment(actual_dep="2018-01-02T12:16",
                           actual_arr="2018-01-02T13:36")
    assert trip_facts(kernel_trip(on_time, origin, dest, dwell, dwell, rides)
                      ).total_mean_s == 270 * 60
    assert trip_facts(kernel_trip(delayed, origin, dest, dwell, dwell, rides)
                      ).total_mean_s == 286 * 60
    best = float("inf")
    for _ in range(200):
        start = time_mod.perf_counter()
        kernel_trip(on_time, origin, dest, dwell, dwell, rides)
        best = min(best, time_mod.perf_counter() - start)
    assert best < 1e-3, f"the trip kernel took {best * 1e3:.3f} ms"
    report(2, f"worked trip totals 270/286 min; runtime {best * 1e6:.0f} us < 1 ms")


def test_criterion_3_oracle_equivalence_100_seeds():
    start = time_mod.perf_counter()
    for seed in range(100):
        trips = random_trips(random.Random(seed))
        cells = daily_zone_means(trips_of(trips))
        expected = oracle_daily_means(trips)
        day_means = {}
        for key, (total, spread, n) in cells.items():
            assert (Fraction(total, n), Fraction(spread, n), n) == expected[key]
            day_means[key] = (Fraction(total, n), Fraction(spread, n))
        assert len(cells) == len(expected)
        summaries = summarize(cells)
        assert ({k: s.n_by_mode for k, s in summaries.items()}
                == oracle_winner_counts(day_means, 0))
        assert ({k: s.reliability_by_mode for k, s in summaries.items()}
                == oracle_winner_counts(day_means, 1))
        assert ({k: s.e_bar_s for k, s in summaries.items()}
                == oracle_fastest_time(day_means))
        assert sum(bin_zone_counts(summaries).values()) == len(summaries)
    elapsed = time_mod.perf_counter() - start
    assert elapsed < 10, f"oracle suite took {elapsed:.1f} s"
    report(3, f"100-seed brute-force equivalence, exact, in {elapsed:.1f} s")


def test_criterion_4_period_partition():
    widths = {DayPeriod.EARLY_MORNING: range(0, 420),
              DayPeriod.AM: range(420, 600),
              DayPeriod.MIDDAY: range(600, 960),
              DayPeriod.PM: range(960, 1140),
              DayPeriod.LATE_EVENING: range(1140, 1440)}
    for minute in range(1440):
        period = classify_period(minute)
        assert minute in widths[period]
    for boundary, later in [(420, DayPeriod.AM), (600, DayPeriod.MIDDAY),
                            (960, DayPeriod.PM), (1140, DayPeriod.LATE_EVENING)]:
        assert classify_period(boundary) is later
    report(4, "all 1440 minutes classify into the five published intervals")


def test_criterion_5_what_if_identity_and_disappearance(tmp_path):
    out = tmp_path / "identity"
    assert main(["whatif"] + BASE_FLAGS +
                ["--dep-proc-min", "90", "--arr-proc-min", "45",
                 "--out-dir", str(out)]) == 0
    assert_trees_identical(out / "baseline", out / "override")

    out = tmp_path / "faster"
    assert main(["whatif"] + BASE_FLAGS +
                ["--dep-proc-min", "60", "--arr-proc-min", "30",
                 "--format", "csv", "--out-dir", str(out)]) == 0
    baseline_em = (out / "baseline" / "fastest_early_morning.csv").read_text()
    override_em = (out / "override" / "fastest_early_morning.csv").read_text()
    assert "via_CDG" in baseline_em  # 21:45 flights land after midnight
    assert "via_CDG" not in override_em  # faster processing keeps them same-day
    report(5, "default overrides reproduce baseline byte-for-byte; "
              "60/30 override removes the air mode from next-day early morning")


def test_criterion_6_ols_recovery_and_ranking():
    from conftest import make_station

    station = make_station("APT", zone_id="SZ", lat=0.0, lon=0.0)
    zones = [Zone(f"Z{i}", internal_point=(0.0, lon))
             for i, lon in enumerate((0.1, 0.25, 0.5, 1.0))]
    day = date(2018, 1, 2)
    rides = linear_ride_index(station, zones, day, 0.8, 5)
    fit = airport_integration(station, rides, zone_collection(*zones), [day])
    assert fit.slope_min_per_km == pytest.approx(0.8, abs=1e-9)
    assert fit.intercept_min == pytest.approx(5, abs=1e-9)

    # Ranking by slope across stations is invariant to a uniform time scaling.
    other = make_station("APT2", zone_id="SZ", lat=0.0, lon=0.0)
    for scale in (1.0, 2.5):
        fit_a = airport_integration(
            station, linear_ride_index(station, zones, day, 0.8, 5, scale=scale),
            zone_collection(*zones), [day])
        fit_b = airport_integration(
            other, linear_ride_index(other, zones, day, 1.4, 3, scale=scale),
            zone_collection(*zones), [day])
        assert fit_a.slope_min_per_km < fit_b.slope_min_per_km
    report(6, "noiseless 0.8x+5 fit recovered within 1e-9; "
              "slope ranking invariant to uniform scaling")


def test_criterion_7_geodesic():
    assert geodesic_distance((0, 0), (0, 1)) == pytest.approx(111.1949, abs=1e-3)
    rng = random.Random(42)
    for _ in range(300):
        pts = [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
        a, b, c = pts
        assert geodesic_distance(a, a) == 0
        assert geodesic_distance(a, b) == pytest.approx(
            geodesic_distance(b, a), abs=1e-9)
        assert geodesic_distance(a, c) <= (geodesic_distance(a, b)
                                           + geodesic_distance(b, c) + 1e-6)
    report(7, "geodesic identity/symmetry/triangle properties and the "
              "1-degree equator value hold")


def test_criterion_8_delay_sensitivity():
    segment, rides, zones = delay_fixture(densities=(1, 3))
    result = delay_sensitivity(segment, rides, zones)
    assert result.weighted_mean_delta_s == 17.5 * 60
    assert result.max_of_max_delta_s == 30 * 60

    segment, rides, uniform = delay_fixture(densities=(5, 5))
    assert delay_sensitivity(segment, rides, uniform).weighted_mean_delta_s == 15 * 60

    _, _, scaled = delay_fixture(densities=(10, 30))
    assert (delay_sensitivity(segment, rides, scaled).weighted_mean_delta_s
            == 17.5 * 60)

    early, rides, zones = delay_fixture(actual_arr="2018-02-15T14:00")
    assert delay_sensitivity(early, rides, zones).weighted_mean_delta_s < 0
    report(8, "two-zone weighted mean 17.5 min, max-of-max, uniform reduction, "
              "scale invariance and signed early-arrival result hold")


def test_criterion_9_golden_run_replaces_nonreproducible_figures():
    # The source study's headline percentages rest on withdrawn proprietary
    # ride and flight extracts; the committed synthetic two-city fixture plus
    # an independent brute-force recomputation stands in for them.
    stations = load_stations(FIXTURES / "stations.csv")
    zones = load_zones(FIXTURES / "zones.geojson")
    rides = load_ride_stats(FIXTURES / "ride_stats.csv")
    segments = expand_weekly_schedule(FIXTURES / "weekly_schedule.csv", stations,
                                      date(2018, 1, 1), date(2018, 1, 7))
    from doortodoor.ingestion import load_segments_actuals
    segments += load_segments_actuals(FIXTURES / "segments.csv", stations)
    trips = evaluate_trips(segments, zones["AZ1"], list(zones), rides).trips

    day_means = {key: (Fraction(total, n), Fraction(spread, n))
                 for key, (total, spread, n) in daily_zone_means(trips).items()}
    oracle = oracle_fastest_time(day_means)

    for path in sorted((FIXTURES.parent / "golden_expected" / "fastest_time").glob("*.csv")):
        if path.name == "interval_counts.csv":
            continue
        period_label = path.stem.replace("fastest_time_", "")
        for line in path.read_text().splitlines()[1:]:
            fields = line.split(",")
            zone_id, e_bar = fields[0], fields[4]
            key = next(((z, p) for z, p in oracle
                        if z == zone_id and p.label == period_label), None)
            if e_bar == "":
                assert key is None
            else:
                assert key is not None
                assert float(e_bar) == pytest.approx(
                    float(oracle[key]) / 60, abs=5e-7)
    report(9, "committed golden outputs agree with an independent exhaustive "
              "recomputation of the fixture")


def test_criterion_10_determinism(tmp_path):
    from test_cli import TestDeterminism

    runner = TestDeterminism()
    a, b = tmp_path / "a", tmp_path / "b"
    runner.run_all(a, "1")
    runner.run_all(b, "4")
    assert_trees_identical(a, b)
    assert_trees_identical(a, FIXTURES.parent / "golden_expected")
    report(10, "two full CLI runs (jobs=1 vs jobs=4) are byte-identical and "
               "match the committed golden tree")
