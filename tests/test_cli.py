"""Command-line contract: exit codes, config handling, export shapes."""

import gc
import json
from datetime import date
from pathlib import Path

import pytest

from doortodoor.cli import RunConfig, evaluate, load_inputs, main

FIXTURES = Path(__file__).parent / "fixtures" / "golden"

BASE_FLAGS = [
    "--ride-stats", str(FIXTURES / "ride_stats.csv"),
    "--segments", str(FIXTURES / "segments.csv"),
    "--weekly-schedule", str(FIXTURES / "weekly_schedule.csv"),
    "--stations", str(FIXTURES / "stations.csv"),
    "--zones", str(FIXTURES / "zones.geojson"),
    "--from-date", "2018-01-01", "--to-date", "2018-01-07",
    "--origin-zone", "AZ1",
]


def tree(path: Path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*") if p.is_file())


def assert_trees_identical(a: Path, b: Path):
    assert tree(a) == tree(b)
    for rel in tree(a):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestValidate:
    def test_complete_fixture_reports_totals(self, capsys):
        assert main(["validate"] + BASE_FLAGS) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["zones"] == 7
        assert report["ride_stats"] == 170
        assert report["cancelled_segments"] == 1

    def test_bad_ride_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "rides.csv"
        bad.write_text("origin_zone,dest_zone,date,period,mean_s,min_s,max_s\n"
                       "Z1,Z9,2018-01-02,2,1800,3700,3600\n")
        flags = BASE_FLAGS.copy()
        flags[1] = str(bad)
        assert main(["validate"] + flags) == 2
        err = capsys.readouterr().err
        assert ":2:" in err
        error = json.loads(err)
        assert (error["error"], error["path"], error["line"]) == ("ValidationError", str(bad), 2)

    @pytest.mark.parametrize("row, message", [
        # Paris to Paris on Sunday 2018-03-25: 02:30 is in the spring-forward
        # gap and reads as 01:30 UTC, after the 03:10 (01:10 UTC) arrival.
        ("x,CDG,GDN,0000001,02:30,03:10",
         "segment x_2018-03-25_0230: scheduled arrival not after departure"),
        ("x,CDG,ZZZ,0000001,08:30,09:10", "unknown station 'ZZZ' in weekly schedule"),
    ], ids=["dst-gap", "unknown-station"])
    def test_weekly_expansion_error_cites_row(self, tmp_path, capsys, row, message):
        weekly = tmp_path / "weekly.csv"
        weekly.write_text("mode_id,dep_station,arr_station,days,dep_time,arr_time\n"
                          + row + "\n")
        flags = BASE_FLAGS.copy()
        flags[5] = str(weekly)
        flags[11], flags[13] = "2018-03-19", "2018-03-26"
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["path"], error["line"]) == ("ValidationError", str(weekly), 2)
        assert error["message"] == f"{weekly}:2: {message}"

    def test_on_time_mode_row_running_backwards_exits_2(self, tmp_path, capsys):
        # Departs 23:59, and its missing arrival is read as the 18:02 schedule.
        segments = tmp_path / "segments.csv"
        segments.write_text((FIXTURES / "segments.csv").read_text().replace(
            "2018-01-03T16:58,2018-01-03T18:02,2018-01-03T18:18,0",
            "2018-01-03T23:59,2018-01-03T18:02,,0"))
        flags = BASE_FLAGS.copy()
        flags[3] = str(segments)
        assert main(["validate", "--on-time-mode"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["path"], error["line"]) == (
            "ValidationError", str(segments), 2)
        assert error["message"] == (
            f"{segments}:2: segment F_DELAY16: actual arrival not after departure")

    def test_segment_id_repeated_by_weekly_expansion_exits_2(self, tmp_path, capsys):
        segments = tmp_path / "segments.csv"
        segments.write_text((FIXTURES / "segments.csv").read_text()
                            .replace("F_DELAY16", "via_CDG_2018-01-03_0645"))
        flags = BASE_FLAGS.copy()
        flags[3] = str(segments)
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        weekly = str(FIXTURES / "weekly_schedule.csv")
        assert (error["error"], error["path"], error["line"]) == ("ValidationError", weekly, 2)
        assert error["message"] == f"{weekly}:2: duplicate segment_id via_CDG_2018-01-03_0645"

    @pytest.mark.parametrize("flag, data, line", [
        (1, b"origin_zone,dest_zone,date,period,mean_s,min_s,max_s\n"
            b"AZ1,PZ1,2018-01-02,2,1800,1500,2400\xff\n", 2),
        (9, b'{"type":"FeatureCollection","features":[]}\n\xff', 2),
    ], ids=["ride_stats", "zones"])
    def test_bytes_not_utf8_exit_2(self, tmp_path, capsys, flag, data, line):
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        flags = BASE_FLAGS.copy()
        flags[flag] = str(bad)
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["path"], error["line"]) == ("ValidationError", str(bad), line)

    @pytest.mark.parametrize("doc", [
        "[1,2]",
        '{"type":"FeatureCollection","features":[1]}',
        '{"type":"FeatureCollection","features":[{"properties":{"zone_id":["a"]}}]}',
        '{"type":"FeatureCollection","features":'
        '[{"properties":{"zone_id":"Z1","population_density":true}}]}',
        '{"type":"FeatureCollection","features":'
        '[{"properties":{"zone_id":"Z1","internal_point":[true,false]}}]}',
        '{"type":"FeatureCollection","features":'
        '[{"properties":{"zone_id":"Z1","population_density":NaN}}]}',
        '{"type":"FeatureCollection","features":'
        '[{"properties":{"zone_id":"Z1","population_density":Infinity}}]}',
    ], ids=["top-level-list", "feature-not-object", "zone-id-list", "density-bool",
            "point-bool", "density-nan", "density-infinite"])
    def test_zones_of_the_wrong_shape_exit_2(self, tmp_path, capsys, doc):
        zones = tmp_path / "zones.geojson"
        zones.write_text(doc)
        flags = BASE_FLAGS.copy()
        flags[9] = str(zones)
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["path"]) == ("ValidationError", str(zones))

    def test_missing_stations_exits_2(self):
        flags = BASE_FLAGS.copy()
        flags[7] = str(FIXTURES / "nope.csv")
        assert main(["validate"] + flags) == 2

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        flags = BASE_FLAGS.copy()
        flags[1] = str(tmp_path)  # a directory
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["path"]) == ("ValidationError", str(tmp_path))


class TestConfigHandling:
    def test_config_file_via_flag(self, tmp_path, capsys):
        assert main(["--config", str(FIXTURES / "run.conf"), "validate"]) == 0
        assert json.loads(capsys.readouterr().out)["zones"] == 7

    def test_config_file_via_env(self, monkeypatch, capsys):
        monkeypatch.setenv("D2D_CONFIG", str(FIXTURES / "run.conf"))
        assert main(["validate"]) == 0
        assert json.loads(capsys.readouterr().out)["zones"] == 7

    def test_flags_win_over_config(self, capsys):
        rc = main(["--config", str(FIXTURES / "run.conf"), "validate",
                   "--zones", str(FIXTURES / "nope.geojson")])
        assert rc == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("nonsense=1\n")
        assert main(["--config", str(conf), "validate"]) == 2

    @pytest.mark.parametrize("entry", [
        "jobs=two", "dep_proc_min=fast", "arr_proc_min=",
        "from_date=2018-13-01", "to_date=soon", "on_time_mode=treu", "format=xml",
    ])
    def test_unparsable_config_value_exits_2(self, tmp_path, capsys, entry):
        conf = tmp_path / "bad.conf"
        conf.write_text("# comment\n" + entry + "\n")
        assert main(["--config", str(conf), "validate"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["path"], err["line"]) == ("ValidationError", str(conf), 2)
        assert err["message"].startswith(f"{conf}:2: ")

    def test_config_lines_are_physical_lines(self, tmp_path, capsys):
        # U+0085 breaks a line for str.splitlines, not for the line count.
        conf = tmp_path / "c.conf"
        conf.write_bytes("# caf\u0085 note\nfrom_date=notadate\n".encode("utf-8"))
        assert main(["--config", str(conf), "validate"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{conf}:2: from_date: cannot parse 'notadate'"

    @pytest.mark.parametrize("argv", [
        ["validate", "--jobs", "two"],
        ["validate", "--from-date", "2018-13-01"],
        ["weather-diff", "--date-b", "2018-01-02"],
    ])
    def test_malformed_flags_exit_2_with_json(self, capsys, argv):
        assert main(argv + BASE_FLAGS) == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        assert "usage: d2d validate" in capsys.readouterr().out


class TestDateFilter:
    def test_departure_date_is_the_local_date(self, tmp_path):
        # Amsterdam is UTC+1: NEXT departs at 00:30 local on 01-08, which is
        # 23:30 UTC on 01-07; LATE departs at 23:30 local on 01-07.
        segments = tmp_path / "segments.csv"
        segments.write_text(
            "segment_id,mode_id,dep_station,arr_station,"
            "sched_dep,actual_dep,sched_arr,actual_arr,cancelled\n"
            "NEXT,via_CDG,AMS,CDG,2018-01-08T00:30,2018-01-08T00:30,"
            "2018-01-08T01:50,2018-01-08T01:50,0\n"
            "LATE,via_CDG,AMS,CDG,2018-01-07T23:30,2018-01-07T23:30,"
            "2018-01-08T00:50,2018-01-08T00:50,0\n")
        config = RunConfig(
            ride_stats=str(FIXTURES / "ride_stats.csv"), segments=str(segments),
            stations=str(FIXTURES / "stations.csv"),
            zones=str(FIXTURES / "zones.geojson"),
            to_date=date(2018, 1, 7), origin_zone="AZ1")
        report = evaluate(config, load_inputs(config))
        evaluated = ({t.segment_id for t in report.trips}
                     | {segment_id for segment_id, _, _ in report.skipped})
        assert evaluated == {"LATE"}


class TestFastest:
    def test_writes_one_geojson_per_period(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fastest"] + BASE_FLAGS +
                    ["--out-dir", str(out), "--format", "geojson"]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"fastest_{p}.geojson" for p in
                         ["am", "early_morning", "late_evening", "midday", "pm"]]

    def test_geojson_covers_all_zones(self, tmp_path):
        out = tmp_path / "out"
        main(["fastest"] + BASE_FLAGS + ["--out-dir", str(out), "--format", "geojson"])
        doc = json.loads((out / "fastest_midday.geojson").read_text())
        ids = {f["properties"]["zone_id"] for f in doc["features"]}
        zones_doc = json.loads((FIXTURES / "zones.geojson").read_text())
        assert ids == {f["properties"]["zone_id"] for f in zones_doc["features"]}


class TestDeterminism:
    def run_all(self, out: Path, jobs: str):
        common = BASE_FLAGS + ["--jobs", jobs]
        assert main(["fastest-time"] + common +
                    ["--out-dir", str(out / "fastest_time")]) == 0
        assert main(["whatif"] + common + ["--dep-proc-min", "60",
                    "--arr-proc-min", "30", "--format", "csv",
                    "--out-dir", str(out / "whatif")]) == 0
        assert main(["legs"] + common + ["--out-dir", str(out / "legs")]) == 0
        assert main(["integration"] + common +
                    ["--out-dir", str(out / "integration")]) == 0
        assert main(["weather-diff"] + common +
                    ["--date-a", "2018-01-02", "--date-b", "2018-01-05",
                     "--out-dir", str(out / "weather_diff")]) == 0
        assert main(["delay"] + common + ["--segment-id", "F_DELAY16",
                    "--out-dir", str(out / "delay")]) == 0

    def test_runs_byte_identical_across_parallelism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self.run_all(a, "1")
        self.run_all(b, "4")
        assert_trees_identical(a, b)

    def test_matches_committed_golden_outputs(self, tmp_path):
        out = tmp_path / "run"
        self.run_all(out, "1")
        assert_trees_identical(out, FIXTURES.parent / "golden_expected")


class TestWhatIfCommand:
    def test_default_overrides_reproduce_baseline(self, tmp_path):
        out = tmp_path / "out"
        assert main(["whatif"] + BASE_FLAGS +
                    ["--dep-proc-min", "90", "--arr-proc-min", "45",
                     "--out-dir", str(out), "--format", "csv"]) == 0
        assert_trees_identical(out / "baseline", out / "override")

    def test_missing_override_flags_rejected(self, tmp_path):
        assert main(["whatif"] + BASE_FLAGS +
                    ["--out-dir", str(tmp_path / "o")]) == 2


class TestDelayCommand:
    def test_output_matches_module_oracle(self, tmp_path):
        from doortodoor import delay_sensitivity, load_ride_stats, load_zones
        from doortodoor.ingestion import load_segments_actuals, load_stations

        out = tmp_path / "out"
        assert main(["delay"] + BASE_FLAGS + ["--segment-id", "F_DELAY16",
                    "--out-dir", str(out)]) == 0
        line = (out / "delay_sensitivity.csv").read_text().splitlines()[1]
        fields = line.split(",")

        stations = load_stations(FIXTURES / "stations.csv")
        (segment, _) = load_segments_actuals(FIXTURES / "segments.csv", stations)
        expected = delay_sensitivity(
            segment, load_ride_stats(FIXTURES / "ride_stats.csv"),
            load_zones(FIXTURES / "zones.geojson"))
        assert fields[0] == "F_DELAY16"
        assert fields[1] == expected.scheduled_egress_period.label
        assert fields[2] == expected.actual_egress_period.label
        assert float(fields[3]) == pytest.approx(expected.weighted_mean_delta_s)
        assert float(fields[4]) == pytest.approx(expected.max_of_max_delta_s)

    def test_cancelled_segment_exits_2(self, tmp_path, capsys):
        # The cancelled segment of the fixture, given actual times.
        segments = tmp_path / "segments.csv"
        segments.write_text(
            (FIXTURES / "segments.csv").read_text().replace(
                "2018-01-04T16:42,,2018-01-04T18:02,,1",
                "2018-01-04T16:42,2018-01-04T16:42,2018-01-04T18:02,2018-01-04T18:02,1"))
        flags = BASE_FLAGS.copy()
        flags[3] = str(segments)
        out = tmp_path / "o"
        assert main(["delay"] + flags + ["--segment-id", "F_CANCEL",
                    "--out-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert not out.exists()

    def test_on_time_mode_reads_missing_actuals_as_scheduled(self, tmp_path):
        segments = tmp_path / "segments.csv"
        segments.write_text((FIXTURES / "segments.csv").read_text().replace(
            "2018-01-03T16:58,2018-01-03T18:02,2018-01-03T18:18,0",
            ",2018-01-03T18:02,,0"))
        flags = BASE_FLAGS.copy()
        flags[3] = str(segments)
        out = tmp_path / "o"
        assert main(["delay", "--on-time-mode"] + flags + [
            "--segment-id", "F_DELAY16", "--out-dir", str(out)]) == 0
        row = (out / "delay_sensitivity.csv").read_text().splitlines()[1]
        assert row.startswith("F_DELAY16,pm,pm,0.000000,0.000000,")

    def test_unknown_segment_exits_2(self, tmp_path):
        assert main(["delay"] + BASE_FLAGS + ["--segment-id", "NOPE",
                    "--out-dir", str(tmp_path / "o")]) == 2

    def test_computation_error_emits_json_and_exit_3(self, tmp_path, capsys):
        # A segment whose egress periods have no usable ride stats.
        rides = tmp_path / "rides.csv"
        rides.write_text("origin_zone,dest_zone,date,period,mean_s,min_s,max_s\n"
                         "AZ1,AZ1,2018-01-03,0,1800,1500,2400\n"
                         "PZ9,PZ1,2018-01-03,0,1200,900,1800\n")
        flags = BASE_FLAGS.copy()
        flags[1] = str(rides)
        rc = main(["delay"] + flags + ["--segment-id", "F_DELAY16",
                  "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SensitivityUndefinedError"


class TestIntegrationCommand:
    def test_exit_2_without_date_range(self, tmp_path):
        flags = [f for f in BASE_FLAGS
                 if f not in ("--from-date", "--to-date",
                              "2018-01-01", "2018-01-07")]
        assert main(["integration"] + flags +
                    ["--out-dir", str(tmp_path / "o")]) == 2


class TestGcPolicy:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, code", [
        (["validate"] + BASE_FLAGS, 0),
        (["validate", "--jobs", "two"] + BASE_FLAGS, 2),
    ], ids=["exit-0", "exit-2"])
    def test_collector_left_as_found(self, capsys, enabled, argv, code):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_unreachable_cycles_do_not_grow_with_trips(self, tmp_path):
        def legs_run(to_date):
            """(trips evaluated, objects the collector frees after the run)."""
            out = tmp_path / to_date
            flags = BASE_FLAGS.copy()
            flags[13] = to_date
            gc.collect()
            assert main(["legs"] + flags + ["--out-dir", str(out)]) == 0
            found = gc.collect()
            rows = (out / "leg_shares.csv").read_text().splitlines()[1:]
            return sum(int(row.rsplit(",", 1)[1]) for row in rows), found

        legs_run("2018-01-03")  # first use fills module-level caches
        few_trips, few_found = legs_run("2018-01-02")
        many_trips, many_found = legs_run("2018-01-07")
        assert few_trips < many_trips
        assert many_found <= few_found
