"""Leg decomposition, integration regression, weather diff, delay sensitivity."""

import random
from dataclasses import astuple
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from doortodoor import (
    DayPeriod,
    FitUndefinedError,
    SensitivityUndefinedError,
    Zone,
    ZoneRideStat,
    airport_integration,
    daily_zone_means,
    delay_sensitivity,
    evaluate_trips,
    geodesic_distance,
    leg_shares,
    summarize,
    weather_diff,
)
from doortodoor.analytics import _ols
from doortodoor.ingestion import RideStatIndex, ZoneCollection

from conftest import make_rides, make_segment, make_station, make_trip


def zone_collection(*zones):
    collection = ZoneCollection()
    for zone in zones:
        collection.zones[zone.zone_id] = zone
        collection.geometries[zone.zone_id] = None
    return collection


class TestLegShares:
    def test_hand_computed_percentages(self):
        trip = make_trip(to_s=30 * 60, dep_s=90 * 60, in_s=80 * 60,
                         arr_s=45 * 60, from_s=25 * 60)
        (share,) = leg_shares([trip])
        assert astuple(share)[1:6] == pytest.approx(
            (11.1111, 33.3333, 29.6296, 16.6667, 9.2593), abs=1e-3)

    def test_per_trip_vectors_sum_to_100(self):
        rng = random.Random(3)
        trips = [make_trip(to_s=rng.randrange(300, 3000),
                           dep_s=rng.randrange(900, 7000),
                           in_s=rng.randrange(1800, 20000),
                           arr_s=rng.randrange(300, 4000),
                           from_s=rng.randrange(300, 3000))
                 for _ in range(25)]
        (share,) = leg_shares(trips)
        assert sum(astuple(share)[1:6]) == pytest.approx(100, abs=1e-9)

    def test_single_phase_trip(self):
        trip = make_trip(to_s=0, dep_s=0, in_s=7200, arr_s=0, from_s=0)
        (share,) = leg_shares([trip])
        assert share.pct_in == 100
        assert share.pct_to == share.pct_from == 0

    def test_equal_phases(self):
        trip = make_trip(to_s=600, dep_s=600, in_s=600, arr_s=600, from_s=600)
        (share,) = leg_shares([trip])
        assert astuple(share)[1:6] == (20, 20, 20, 20, 20)

    def test_sorted_by_in_vehicle_share(self):
        long_haul = make_trip(in_s=30000, segment_id="L")
        short_haul = make_trip(in_s=1800, segment_id="S", dep_station_id="BOS")
        shares = leg_shares([long_haul, short_haul])
        assert [s.city_pair for s in shares] == ["BOS-CDG", "AMS-CDG"]
        assert shares[0].pct_in < shares[1].pct_in

    def test_zero_total_excluded_with_warning(self, caplog):
        zero = make_trip(to_s=0, dep_s=0, in_s=0, arr_s=0, from_s=0)
        with caplog.at_level("WARNING"):
            shares = leg_shares([zero, make_trip()])
        assert len(shares) == 1
        assert shares[0].n_trips == 1
        assert any("zero total" in r.message for r in caplog.records)

    # Phases from a small range repeat trip totals; from a wide range, nearly
    # every total is distinct.  Each draw is (city pair, five phases).
    trip_draws = st.lists(st.tuples(
        st.sampled_from(["AMS-CDG", "BOS-CDG", "AMS-GDN"]),
        st.one_of(st.just((0, 0, 0, 0, 0)),
                  st.tuples(*[st.integers(0, 4)] * 5),
                  st.tuples(*[st.integers(0, 10 ** 6)] * 5)),
    ), max_size=60)

    @settings(deadline=None)  # the per-trip Fraction oracle is slow by design
    @given(trip_draws, st.data())
    def test_exact_mean_of_per_trip_shares(self, draws, data):
        groups = {}
        for pair, phases in draws:
            total = sum(phases)
            if total > 0:
                groups.setdefault(pair, []).append(
                    [Fraction(100 * p, total) for p in phases])
        expected = sorted(
            ((pair, tuple(float(sum(v[i] for v in vectors) / len(vectors))
                          for i in range(5)), len(vectors))
             for pair, vectors in groups.items()),
            key=lambda row: (row[1][2], row[0]))

        trips = []
        for k, (pair, phases) in enumerate(draws):
            dep, arr = pair.split("-")
            trips.append(make_trip(**dict(zip(("to_s", "dep_s", "in_s", "arr_s", "from_s"),
                                              phases)), segment_id=f"T{k}",
                                   dep_station_id=dep, arr_station_id=arr))
        shares = leg_shares(trips)
        assert [(s.city_pair, astuple(s)[1:6], s.n_trips) for s in shares] == expected
        assert sum(s.n_trips for s in shares) == sum(sum(p) > 0 for _, p in draws)
        assert leg_shares(data.draw(st.permutations(trips))) == shares


def linear_ride_index(station, zones, day, slope_min_per_km, intercept_min,
                      scale=1.0):
    """Daily ride stats lying exactly on time = slope*distance + intercept."""
    index = RideStatIndex()
    for zone in zones:
        dist = geodesic_distance(zone.internal_point, (station.lat, station.lon))
        mean_s = (slope_min_per_km * dist + intercept_min) * 60 * scale
        index.add(ZoneRideStat(zone.zone_id, station.zone_id, day,
                               DayPeriod.DAILY_ONLY, mean_s, mean_s, mean_s))
    return index


class TestAirportIntegration:
    station = make_station("APT", zone_id="SZ", lat=0.0, lon=0.0)
    zones = [Zone(f"Z{i}", internal_point=(0.0, lon))
             for i, lon in enumerate((0.1, 0.25, 0.5, 1.0))]
    day = date(2018, 1, 2)

    def test_exact_recovery_of_synthetic_line(self):
        rides = linear_ride_index(self.station, self.zones, self.day, 0.8, 5)
        fit = airport_integration(self.station, rides,
                                  zone_collection(*self.zones), [self.day])
        assert fit.slope_min_per_km == pytest.approx(0.8, abs=1e-9)
        assert fit.intercept_min == pytest.approx(5, abs=1e-9)
        assert fit.max_range_km == pytest.approx(
            geodesic_distance((0, 0), (0, 1.0)), abs=1e-9)

    def test_equidistant_zones_undefined(self):
        zones = [Zone("Z1", internal_point=(0.0, 0.5)),
                 Zone("Z2", internal_point=(0.5, 0.0))]  # same distance
        rides = RideStatIndex()
        for zone in zones:
            rides.add(ZoneRideStat(zone.zone_id, "SZ", self.day,
                                   DayPeriod.DAILY_ONLY, 600, 600, 600))
        with pytest.raises(FitUndefinedError):
            airport_integration(self.station, rides, zone_collection(*zones),
                                [self.day])

    def test_fewer_than_two_samples_undefined(self):
        rides = linear_ride_index(self.station, self.zones[:1], self.day, 0.8, 5)
        with pytest.raises(FitUndefinedError):
            airport_integration(self.station, rides,
                                zone_collection(*self.zones), [self.day])

    def test_doubled_times_double_the_slope(self):
        rides = linear_ride_index(self.station, self.zones, self.day, 0.8, 5)
        doubled = linear_ride_index(self.station, self.zones, self.day, 0.8, 5,
                                    scale=2.0)
        collection = zone_collection(*self.zones)
        fit = airport_integration(self.station, rides, collection, [self.day])
        fit2 = airport_integration(self.station, doubled, collection, [self.day])
        assert fit2.slope_min_per_km == pytest.approx(
            2 * fit.slope_min_per_km, rel=1e-12)

    def test_residuals_orthogonal_to_distance(self):
        rng = random.Random(11)
        rides = RideStatIndex()
        for zone in self.zones:
            mean_s = rng.randrange(300, 7200)
            rides.add(ZoneRideStat(zone.zone_id, "SZ", self.day,
                                   DayPeriod.DAILY_ONLY, mean_s, mean_s, mean_s))
        fit = airport_integration(self.station, rides,
                                  zone_collection(*self.zones), [self.day])
        dot = sum(x * (y - fit.slope_min_per_km * x - fit.intercept_min)
                  for x, y in fit.samples)
        assert dot == pytest.approx(0, abs=1e-6)

    def test_fit_invariant_to_input_ordering(self):
        stats = list(linear_ride_index(self.station, self.zones, self.day, 1.3, 7))
        shuffled = RideStatIndex()
        for stat in random.Random(5).sample(stats, len(stats)):
            shuffled.add(stat)
        collection = zone_collection(*self.zones)
        fit1 = airport_integration(
            self.station, RideStatIndex(stats), collection, [self.day])
        fit2 = airport_integration(self.station, shuffled, collection, [self.day])
        assert fit1 == fit2

    def test_zones_without_internal_point_skipped(self):
        zones = self.zones + [Zone("Z_NOPOINT")]
        rides = linear_ride_index(self.station, self.zones, self.day, 0.8, 5)
        fit = airport_integration(self.station, rides, zone_collection(*zones),
                                  [self.day])
        assert len(fit.samples) == 4

    def test_ols_closed_form(self):
        slope, intercept = _ols([(0, 5), (1, 5.8), (2, 6.6), (10, 13)])
        assert slope == pytest.approx(0.8, abs=1e-12)
        assert intercept == pytest.approx(5, abs=1e-12)


def one_day_summaries(from_mean_s, day="2018-01-02"):
    """Fastest-time summaries for a one-day, one-mode, two-zone fixture."""
    rides = make_rides(
        [("AZ1", "AZ1", day, DayPeriod.DAILY_ONLY, 1800)]
        + [("PZ9", z, day, DayPeriod.DAILY_ONLY, from_mean_s)
           for z in ("PZ1", "PZ2")]
    )
    segment = make_segment(sched_dep=f"{day}T12:00", sched_arr=f"{day}T13:20")
    report = evaluate_trips([segment], Zone("AZ1"), [Zone("PZ1"), Zone("PZ2")],
                            rides)
    return {(s.zone_id, s.period): s
            for s in summarize(daily_zone_means(report.trips))}


class TestWeatherDiff:
    def test_identical_inputs_zero_delta(self):
        a = one_day_summaries(1200)
        deltas = weather_diff(a, a)
        assert all(d.delta_min == 0 for d in deltas)
        assert not any(d.disappeared for d in deltas)

    def test_uniform_shift_propagates_through_trip_sum(self):
        deltas = weather_diff(one_day_summaries(1200), one_day_summaries(1200 + 1800))
        assert all(d.delta_min == pytest.approx(30) for d in deltas)

    def test_antisymmetry(self):
        a, b = one_day_summaries(1200), one_day_summaries(2400)
        forward = {(d.zone_id, d.period): d.delta_min for d in weather_diff(a, b)}
        backward = {(d.zone_id, d.period): d.delta_min for d in weather_diff(b, a)}
        assert forward.keys() == backward.keys()
        assert all(forward[k] == -backward[k] for k in forward)

    def test_disappeared_zone_flagged(self):
        a = one_day_summaries(1200)
        b = {k: v for k, v in a.items() if k[0] != "PZ2"}
        deltas = {d.zone_id: d for d in weather_diff(a, b)}
        assert deltas["PZ2"].disappeared
        assert deltas["PZ2"].delta_min is None
        assert not deltas["PZ1"].disappeared


def delay_fixture(densities=(1, 3), actual_arr="2018-02-15T18:18",
                  sched_arr="2018-02-15T18:02", le_means=(1800, 2400),
                  le_maxes=(2600, 4000)):
    """PM -> late-evening egress shift with zone deltas of 10 and 20 minutes
    and max-spread deltas of 10 and 30 minutes."""
    day = sched_arr[:10]
    actual_day = actual_arr[:10]
    entries = [
        ("PZ9", "PZ1", day, DayPeriod.PM, 1200, 900, 2000),
        ("PZ9", "PZ2", day, DayPeriod.PM, 1200, 900, 2200),
        ("PZ9", "PZ1", actual_day, DayPeriod.LATE_EVENING,
         le_means[0], 900, le_maxes[0]),
        ("PZ9", "PZ2", actual_day, DayPeriod.LATE_EVENING,
         le_means[1], 900, le_maxes[1]),
        ("PZ9", "PZ1", day, DayPeriod.MIDDAY, 900, 800, 1500),
        ("PZ9", "PZ2", day, DayPeriod.MIDDAY, 600, 500, 1400),
    ]
    rides = make_rides(entries)
    zones = zone_collection(
        Zone("PZ1", population_density=densities[0]),
        Zone("PZ2", population_density=densities[1]),
    )
    segment = make_segment(
        segment_id="UA460",
        sched_dep=f"{day}T16:42", sched_arr=sched_arr,
        actual_dep=f"{day}T12:00", actual_arr=actual_arr,
    )
    return segment, rides, zones


class TestDelaySensitivity:
    def test_density_weighted_mean(self):
        segment, rides, zones = delay_fixture()
        result = delay_sensitivity(segment, rides, zones)
        assert result.scheduled_egress_period is DayPeriod.PM
        assert result.actual_egress_period is DayPeriod.LATE_EVENING
        # deltas 10 and 20 min weighted 1:3 -> 17.5 min
        assert result.weighted_mean_delta_s == 17.5 * 60
        assert result.max_of_max_delta_s == 30 * 60

    def test_same_period_is_zero(self):
        segment, rides, zones = delay_fixture(
            actual_arr="2018-02-15T18:06")  # egress still PM
        result = delay_sensitivity(segment, rides, zones)
        assert result.scheduled_egress_period is result.actual_egress_period
        assert result.weighted_mean_delta_s == 0
        assert result.max_of_max_delta_s == 0

    def test_same_period_next_day_compares_the_two_dates(self):
        # A ~24 h delay exits in the same period a day later, when rides are
        # slower: the deltas come from the two (date, period) buckets.
        segment, rides, zones = delay_fixture(actual_arr="2018-02-16T18:06")
        rides.add(ZoneRideStat("PZ9", "PZ1", date(2018, 2, 16), DayPeriod.PM, 1500, 900, 2600))
        rides.add(ZoneRideStat("PZ9", "PZ2", date(2018, 2, 16), DayPeriod.PM, 1800, 900, 2200))
        result = delay_sensitivity(segment, rides, zones)
        assert result.scheduled_egress_period is result.actual_egress_period
        # deltas 5 and 10 min weighted 1:3 -> 8.75 min
        assert result.weighted_mean_delta_s == 8.75 * 60
        assert result.max_of_max_delta_s == 600
        assert result.zones_used == ("PZ1", "PZ2")

    def test_uniform_density_reduces_to_plain_mean(self):
        segment, rides, zones = delay_fixture(densities=(7, 7))
        result = delay_sensitivity(segment, rides, zones)
        assert result.weighted_mean_delta_s == 15 * 60

    def test_density_scaling_invariance(self):
        segment, rides, zones = delay_fixture(densities=(1, 3))
        _, _, scaled = delay_fixture(densities=(1000, 3000))
        assert (delay_sensitivity(segment, rides, zones).weighted_mean_delta_s
                == delay_sensitivity(segment, rides, scaled).weighted_mean_delta_s)

    def test_missing_density_falls_back_to_uniform(self, caplog):
        segment, rides, zones = delay_fixture()
        zones.zones["PZ2"] = Zone("PZ2")  # density unknown
        with caplog.at_level("WARNING"):
            result = delay_sensitivity(segment, rides, zones)
        assert result.weighted_mean_delta_s == 15 * 60
        assert any("uniform" in r.message for r in caplog.records)

    def test_early_arrival_negative_delta(self):
        # Early arrival: egress moves from PM back to midday, where rides
        # are faster; the signed delta is negative.
        segment, rides, zones = delay_fixture(actual_arr="2018-02-15T14:00")
        result = delay_sensitivity(segment, rides, zones)
        assert result.actual_egress_period is DayPeriod.MIDDAY
        # deltas -5 and -10 min weighted 1:3 -> -8.75 min
        assert result.weighted_mean_delta_s == -8.75 * 60
        # max-spread deltas: PZ1 1500-2000, PZ2 1400-2200; worst case -500s
        assert result.max_of_max_delta_s == -500

    def test_zone_missing_one_period_excluded(self):
        segment, rides, zones = delay_fixture()
        zones.zones["PZ3"] = Zone("PZ3", population_density=9)
        result = delay_sensitivity(segment, rides, zones)
        assert result.zones_excluded == ("PZ3",)
        assert result.weighted_mean_delta_s == 17.5 * 60

    def test_no_usable_zone_undefined(self):
        segment, _, zones = delay_fixture()
        with pytest.raises(SensitivityUndefinedError):
            delay_sensitivity(segment, RideStatIndex(), zones)
