"""Command-line contract: exit codes, config handling, export shapes."""

import csv
import errno
import gc
import json
import os
import tracemalloc
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import pytest

from doortodoor import TripRecord, aggregation, analytics, cli, ingestion
from doortodoor.cli import COMMANDS, RunConfig, evaluate, load_inputs, main
from doortodoor.errors import ValidationError
from doortodoor.model import CLASSIFIABLE_PERIODS, DayPeriod

from conftest import assert_trees_identical, load_bench_gen, load_bench_run, trip_facts

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


# Values that parse but are out of range, and the one message each gives,
# whether it comes from a flag, from Python or (after ``path:line: ``) from a
# config line.
OUT_OF_RANGE = [
    (name, value, f"{name}: must be finite and >= 0, got {float(value)!r}")
    for name in ("dep_proc_min", "arr_proc_min") for value in ("-5", "nan", "inf")
] + [("jobs", value, f"jobs: must be at least 1, got {value}") for value in ("0", "-3")
     ] + [("format", "xml", "format: cannot parse 'xml'"),
          ("out_dir", "", "out_dir: must not be empty"),
          ("zones", "a\0b", "zones: must not contain a NUL byte")]
OUT_OF_RANGE_IDS = ["proc-min-5", "proc-min-nan", "proc-min-inf", "arr-proc-min-5",
                    "arr-proc-min-nan", "arr-proc-min-inf", "jobs-0", "jobs-minus-3",
                    "format-xml", "out-dir-empty", "zones-nul"]

# Each setting: a text for it, the value that text gives, and the settings
# that must come with it, each given as its own text here.
SETTING_CASES = {
    "ride_stats": ("r.csv", "r.csv", ()),
    "segments": ("s.csv", "s.csv", ()),
    "weekly_schedule": ("w.csv", "w.csv", ("from_date", "to_date")),
    "stations": ("st.csv", "st.csv", ()),
    "zones": ("z.geojson", "z.geojson", ()),
    "from_date": ("2018-01-02", date(2018, 1, 2), ()),
    "to_date": ("2018-01-07", date(2018, 1, 7), ()),
    "on_time_mode": ("yes", True, ()),  # its flag takes no text
    "dep_proc_min": ("45.5", 45.5, ("arr_proc_min",)),
    "arr_proc_min": ("20", 20.0, ("dep_proc_min",)),
    "out_dir": ("o", "o", ()),
    "format": ("csv", "csv", ()),
    "origin_zone": ("AZ1", "AZ1", ()),
    "jobs": ("3", 3, ()),
}
# The settings whose relative value, from a config file, is read from the
# file's directory.
PATH_SETTINGS = {"ride_stats", "segments", "weekly_schedule", "stations", "zones", "out_dir"}
# What each subcommand requires besides its settings.
REQUIRED_ARGS = {"weather-diff": ["--date-a", "2018-01-02", "--date-b", "2018-01-03"],
                 "delay": ["--segment-id", "F1"]}


def setting_flag(name, text):
    """The command-line arguments that give setting ``name`` the text ``text``."""
    flag = "--" + name.replace("_", "-")
    return [flag] if name == "on_time_mode" else [flag, text]


def config_of(argv):
    return cli.build_config(cli.build_parser().parse_args(argv))


def without(flags, *names):
    """``flags``, a list of flag-value pairs, less each named flag and its value."""
    pairs = zip(flags[::2], flags[1::2])
    return [item for flag, value in pairs if flag not in names for item in (flag, value)]


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

    @pytest.mark.parametrize("flag, row, message", [
        (7, "XXX,bus,AZ1,52.0,4.0,Europe/Amsterdam,,", "station XXX: kind must be air|rail"),
        (7, "XXX,air,AZ1,52.0,4.0,Nope/Zone,,",
         "station XXX: unresolvable timezone 'Nope/Zone'"),
        (7, "XXX,air,AZ1,52.0,4.0,Europe/Amsterdam,-5,40",
         "dwell t_sec_departure_min=-5.0 must be finite and >= 0"),
        (7, "XXX,air,AZ1,52.0,4.0,Europe/Amsterdam,95,nan",
         "dwell t_arr_min=nan must be finite and >= 0"),
        (7, "ACS,rail,AZ1,52.3791,4.9003,Europe/Amsterdam,,", "duplicate station ACS"),
        (7, "XXX,air,AZ1,52.0,4.0,Europe/Amsterdam,40,",
         "dwell override needs both t_sec_dep_min and t_arr_min"),
        (3, "X1,via_CDG,AMS,CDG,2018-01-03T25:00,2018-01-03T16:58,"
            "2018-01-03T18:02,2018-01-03T18:18,0", "bad timestamp '2018-01-03T25:00'"),
        (3, "X1,via_CDG,AMS,CDG,2018-01-03T16:42,2018-01-03T16:58,"
            "2018-01-03T18:02,2018-01-03T18:18,2", "cancelled must be 0|1, got '2'"),
        (3, "F_DELAY16,via_CDG,AMS,CDG,2018-01-05T16:42,2018-01-05T16:58,"
            "2018-01-05T18:02,2018-01-05T18:18,0", "duplicate segment_id F_DELAY16"),
    ], ids=["station-kind", "station-tz", "station-dwell-negative", "station-dwell-nan",
            "station-duplicate", "station-dwell-half", "segment-timestamp",
            "segment-cancelled", "segment-duplicate"])
    def test_bad_row_cites_its_line(self, tmp_path, capsys, flag, row, message):
        source = Path(BASE_FLAGS[flag])
        text = source.read_text()
        bad = tmp_path / source.name
        bad.write_text(text + row + "\n")
        flags = BASE_FLAGS.copy()
        flags[flag] = str(bad)
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        line = text.count("\n") + 1
        assert (error["error"], error["path"], error["line"]) == ("ValidationError", str(bad), line)
        assert error["message"] == f"{bad}:{line}: {message}"

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

    def test_overnight_weekly_row_past_the_last_date_exits_2(self, tmp_path, capsys):
        weekly = tmp_path / "weekly.csv"
        weekly.write_text("mode_id,dep_station,arr_station,days,dep_time,arr_time\n"
                          "n,AMS,CDG,1111111,23:30,00:50\n")
        flags = BASE_FLAGS.copy()
        flags[5], flags[11], flags[13] = str(weekly), "9999-12-30", "9999-12-31"
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["path"], error["line"]) == (
            "ValidationError", str(weekly), 2)
        assert error["message"] == (
            f"{weekly}:2: segment n_9999-12-31_2330: arrival date after 9999-12-31")

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
        '{"type":"FeatureCollection","features":[{"properties":{"zone_id":"P;Z1"}}]}',
    ], ids=["top-level-list", "feature-not-object", "zone-id-list", "density-bool",
            "point-bool", "density-nan", "density-infinite", "zone-id-semicolon"])
    def test_zones_of_the_wrong_shape_exit_2(self, tmp_path, capsys, doc):
        zones = tmp_path / "zones.geojson"
        zones.write_text(doc)
        flags = BASE_FLAGS.copy()
        flags[9] = str(zones)
        assert main(["validate"] + flags) == 2
        error = json.loads(capsys.readouterr().err)
        assert (error["error"], error["path"]) == ("ValidationError", str(zones))

    def test_header_only_ride_stats_reports_zero(self, tmp_path, capsys):
        rides = tmp_path / "rides.csv"
        rides.write_text("origin_zone,dest_zone,date,period,mean_s,min_s,max_s\n")
        flags = BASE_FLAGS.copy()
        flags[1] = str(rides)
        assert main(["validate"] + flags) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["ride_stats"], report["ride_stats_daily_fraction"]) == (0, 0.0)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["ride_stats", "stations", "zones"])
    def test_empty_required_input_is_missing(self, tmp_path, capsys, name, source):
        flag = "--" + name.replace("_", "-")
        argv = ["validate"] + without(BASE_FLAGS, flag)
        if source == "flag":
            argv += [flag, ""]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"{name}=\n")
            argv = ["--config", str(conf)] + argv
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError", "message": f"missing required input: {flag}"}

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

    def test_validate_counts_the_ride_stats_once(self, monkeypatch, capsys):
        # Each len() scans every slot row; daily_count() adds one cheaper scan.
        calls = []
        count = ingestion.RideStatIndex.__len__
        monkeypatch.setattr(ingestion.RideStatIndex, "__len__",
                            lambda index: calls.append(1) or count(index))
        assert main(["--config", str(FIXTURES / "run.conf"), "validate"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["ride_stats"], report["ride_stats_daily_fraction"]) == (170, 0.2)
        assert len(calls) == 1

    def test_config_file_via_env(self, monkeypatch, capsys):
        monkeypatch.setenv("D2D_CONFIG", str(FIXTURES / "run.conf"))
        assert main(["validate"]) == 0
        assert json.loads(capsys.readouterr().out)["zones"] == 7

    def test_config_paths_are_read_from_its_directory(self, tmp_path, monkeypatch):
        # run.conf names its inputs relative to itself, so the golden run
        # works from any directory; the --out-dir flag is read from this one.
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(FIXTURES / "run.conf"), "fastest-time",
                     "--out-dir", "ft"]) == 0
        assert_trees_identical(tmp_path / "ft",
                               FIXTURES.parent / "golden_expected" / "fastest_time")

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

    def test_config_built_in_python_is_checked(self, tmp_path, monkeypatch, capsys):
        # The golden run with a format no writer knows, built in Python rather
        # than read from a flag or a config file.
        args = cli.build_parser().parse_args(
            ["--config", str(FIXTURES / "run.conf"), "fastest", "--out-dir", str(tmp_path)])
        config = cli.build_config(args)
        with pytest.raises(ValidationError, match="^format: cannot parse 'xml'$"):
            COMMANDS["fastest"][0](replace(config, format="xml"), args)
        monkeypatch.setattr(cli, "build_config", lambda args: replace(config, format="xml"))
        assert main(["fastest"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError", "message": "format: cannot parse 'xml'"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lone", [{"dep_proc_min": 60}, {"arr_proc_min": 30}],
                             ids=["dep", "arr"])
    def test_lone_processing_time_in_python_raises(self, lone):
        with pytest.raises(ValidationError,
                           match="^--dep-proc-min and --arr-proc-min go together$"):
            RunConfig(**lone)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["validate", "fastest", "whatif"])
    @pytest.mark.parametrize("name, value, message", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_value_exits_2_before_loading(
            self, tmp_path, monkeypatch, capsys, name, value, message, command, source):
        monkeypatch.setattr(cli, "load_inputs", lambda *args, **kwargs: pytest.fail(
            "inputs loaded before the config was checked"))
        # The out-of-range value, then its partner when it needs one.
        values = {name: value, **{other: SETTING_CASES[other][0]
                                  for other in SETTING_CASES[name][2]}}
        out = tmp_path / "o"
        argv = [command] + BASE_FLAGS + ["--out-dir", str(out)]
        if command == "whatif" and "dep_proc_min" not in values:
            argv += ["--dep-proc-min", "60", "--arr-proc-min", "30"]
        expected = {"error": "ValidationError", "message": message}
        if source == "flag":
            for key, text in values.items():
                argv += setting_flag(key, text)
        else:
            conf = tmp_path / "run.conf"
            conf.write_text("".join(f"{key}={text}\n" for key, text in values.items()))
            argv = ["--config", str(conf)] + argv
            # The out-of-range key is on the file's first line.
            expected.update(message=f"{conf}:1: {message}", path=str(conf), line=1)
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == expected
        assert not out.exists()

    def test_config_lines_are_physical_lines(self, tmp_path, capsys):
        # U+0085 breaks a line for str.splitlines, not for the line count.
        conf = tmp_path / "c.conf"
        conf.write_bytes("# caf\u0085 note\nfrom_date=notadate\n".encode("utf-8"))
        assert main(["--config", str(conf), "validate"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{conf}:2: from_date: cannot parse 'notadate'"

    @pytest.mark.parametrize("data, line, message", [
        (b"nonsense=1\n\xff=2\n", 1, "unknown config key 'nonsense'"),
        (b"# note\n\xff=2\nnonsense=1\n", 2, "not UTF-8: byte 0xff"),
    ], ids=["bad-key-first", "bad-byte-first"])
    def test_config_first_bad_line_wins(self, tmp_path, capsys, data, line, message):
        """Each config line is decoded when it is read, so a byte that is not
        UTF-8 is cited after any fault of an earlier line."""
        conf = tmp_path / "c.conf"
        conf.write_bytes(data)
        assert main(["--config", str(conf), "validate"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{conf}:{line}: {message}"

    @pytest.mark.parametrize("entries, flags, message", [
        (["dep_proc_min=45"], [], "--dep-proc-min and --arr-proc-min go together"),
        (["from_date=2018-01-09", "to_date=2018-01-02"], [],
         "empty date range 2018-01-09..2018-01-02"),
        (["from_date=2018-01-09"], ["--to-date", "2018-01-02"],
         "empty date range 2018-01-09..2018-01-02"),
        ([f"weekly_schedule={FIXTURES / 'weekly_schedule.csv'}", "to_date=2018-01-02"], [],
         "--from-date/--to-date required with a weekly schedule"),
    ], ids=["lone-proc-min", "date-range", "date-range-with-flag", "weekly-without-dates"])
    def test_config_values_that_do_not_go_together_cite_the_file(
            self, tmp_path, monkeypatch, capsys, entries, flags, message):
        monkeypatch.setattr(cli, "load_inputs", lambda *args, **kwargs: pytest.fail(
            "inputs loaded before the config was checked"))
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{entry}\n" for entry in entries))
        argv = ["--config", str(conf), "validate"] + without(
            BASE_FLAGS, "--weekly-schedule", "--from-date", "--to-date") + flags
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError", "message": f"{conf}: {message}", "path": str(conf)}

    def test_flags_that_do_not_go_together_are_not_the_config_files(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("format=csv\n")
        assert main(["--config", str(conf), "validate", "--dep-proc-min", "45"] + BASE_FLAGS) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError",
            "message": "--dep-proc-min and --arr-proc-min go together"}

    @pytest.mark.parametrize("argv", [
        ["validate", "--jobs", "two"],
        ["validate", "--from-date", "2018-13-01"],
        ["weather-diff", "--date-b", "2018-01-02"],
        ["integration", "--to-date", "2017-12-31"],
        ["validate", "--jobs", "0"],
        ["validate", "--jobs", "-3"],
    ])
    def test_malformed_flags_exit_2_with_json(self, capsys, argv):
        # The flags of argv come last, so they win over BASE_FLAGS.
        assert main(argv[:1] + BASE_FLAGS + argv[1:]) == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "usage: d2d validate" in out
        # The flags carry no text of their own: --format's range is
        # RunConfig's, and --jobs has no help string.
        assert "{geojson,csv,both}" not in out and "compatibility" not in out


class TestSettings:
    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_each_setting_is_one_flag_and_one_config_key(self, tmp_path, monkeypatch, name):
        """Every subcommand has the setting's flag; its text given as the flag
        or as the config key builds equal RunConfigs, but for a path, which a
        config file gives relative to its directory; and a value out of its
        range gives one message from a flag, from Python and (after
        ``path:line: ``) from a config line."""
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        text, value, needs = SETTING_CASES[name]
        partners = [arg for other in needs for arg in setting_flag(other, SETTING_CASES[other][0])]
        partner_values = {other: SETTING_CASES[other][1] for other in needs}
        conf = tmp_path / "run.conf"
        conf.write_text(f"{name}={text}\n")
        expected = RunConfig(**{name: value}, **partner_values)
        from_file = replace(expected, **{name: str(tmp_path / value)}) if (
            name in PATH_SETTINGS) else expected
        for command in COMMANDS:
            rest = partners + REQUIRED_ARGS.get(command, [])
            assert config_of([command, *setting_flag(name, text), *rest]) == expected
            assert config_of(["--config", str(conf), command, *rest]) == from_file

        for bad_name, bad_text, message in OUT_OF_RANGE:
            if bad_name != name:
                continue
            with pytest.raises(ValidationError) as python:
                RunConfig(**{name: type(value)(bad_text)}, **partner_values)
            assert str(python.value) == message
            conf.write_text(f"{name}={bad_text}\n")
            for command in COMMANDS:
                rest = partners + REQUIRED_ARGS.get(command, [])
                with pytest.raises(ValidationError) as flag:
                    config_of([command, *setting_flag(name, bad_text), *rest])
                assert str(flag.value) == message
                with pytest.raises(ValidationError) as line:
                    config_of(["--config", str(conf), command, *rest])
                assert (str(line.value), line.value.path, line.value.line) == (
                    f"{conf}:1: {message}", str(conf), 1)

    def test_benchmark_command_lines_build_a_config(self, tmp_path, monkeypatch):
        """Each command line the benchmark runs (``bench/run.py``: every
        workload at its own --jobs and at --jobs 1, and ``validate``) parses
        and builds a RunConfig, no input loaded, so a flag that changes here
        fails this test rather than the benchmark."""
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        monkeypatch.setattr(cli, "load_inputs", lambda *args, **kwargs: pytest.fail(
            "inputs loaded"))
        run = load_bench_run(monkeypatch)
        for workload in run.WORKLOADS:
            inputs = run.gen.input_flags(workload, tmp_path)
            for argv in (run._workload_args(workload, inputs, tmp_path / "out"),
                         run._workload_args(workload, inputs, tmp_path / "out", jobs=1),
                         ["validate", *inputs]):
                assert isinstance(config_of(argv), RunConfig), argv


def test_no_trip_is_alive_when_the_group_by_starts(tmp_path, monkeypatch):
    """An evaluation holds its trips per segment and builds each
    ``TripRecord`` as it is iterated, so none is alive when
    ``daily_zone_means`` or ``summarize`` starts; one that the group-by's
    input builds is seen by the same count."""
    earlier = [o for o in gc.get_objects() if type(o) is TripRecord]  # kept, so ids stay theirs
    earlier_ids = {id(o) for o in earlier}
    live = {}

    def alive():
        return sum(1 for o in gc.get_objects()
                   if type(o) is TripRecord and id(o) not in earlier_ids)

    def counting(name, inner):
        def counted(*args):
            live.setdefault(name, []).append(alive())
            if name == "daily_zone_means":
                trip = next(iter(args[0]))
                live["built"] = alive()
                del trip
            return inner(*args)
        monkeypatch.setattr(aggregation, name, counted)

    counting("daily_zone_means", aggregation.daily_zone_means)
    counting("summarize", aggregation.summarize)
    assert main(["fastest"] + BASE_FLAGS + ["--out-dir", str(tmp_path)]) == 0
    assert live == {"daily_zone_means": [0], "built": 1, "summarize": [0]}


def test_an_evaluation_holds_few_bytes_per_trip(tmp_path, monkeypatch):
    """The tracemalloc bytes that one evaluation's report holds, per trip, on
    the ``legs-delays`` benchmark's seed-1 inputs (40,500 trips): 133.6 B/trip
    when each trip kept its record and an (egress zone, ride) pair, about
    70 B/trip with the trips held per segment."""
    gen = load_bench_gen(monkeypatch)
    gen.generate("legs-delays", 1, tmp_path)
    config = cli.build_config(cli.build_parser().parse_args(
        ["legs", *gen.input_flags("legs-delays", tmp_path), "--out-dir", str(tmp_path)]))
    inputs = load_inputs(config)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        report = evaluate(config, inputs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(report.trips) == 40_500
    assert (held - before) / len(report.trips) < 80


def test_summarize_peak_memory_per_cell(tmp_path, monkeypatch):
    """The tracemalloc peak of ``summarize`` over its input, per day cell, on
    the ``legs-delays`` benchmark's seed-1 inputs (21,978 cells): 127.6 B/cell
    when it listed a (mode, sums) pair per cell under a list per day, about
    24 B/cell with one list of cell keys per (zone, period)."""
    gen = load_bench_gen(monkeypatch)
    gen.generate("legs-delays", 1, tmp_path)
    config = cli.build_config(cli.build_parser().parse_args(
        ["fastest", *gen.input_flags("legs-delays", tmp_path), "--out-dir", str(tmp_path)]))
    cells = aggregation.daily_zone_means(evaluate(config, load_inputs(config)).trips)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before, _ = tracemalloc.get_traced_memory()
        aggregation.summarize(cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(cells) == 21_978
    assert (peak - before) / len(cells) <= 100


def test_no_command_builds_a_trip_record(tmp_path, monkeypatch):
    """The group-by and ``leg_shares`` read an evaluation's trips per
    segment: with ``Trips`` refusing to be iterated, each command that
    evaluates trips still exits 0 and writes the golden bytes."""
    def refuse(trips):
        raise AssertionError("an evaluation's trips were iterated")

    monkeypatch.setattr(aggregation.Trips, "__iter__", refuse)
    golden = FIXTURES.parent / "golden_expected"
    config = ["--config", str(FIXTURES / "run.conf")]
    out = tmp_path / "fastest"
    assert main(config + ["fastest", "--out-dir", str(out)]) == 0
    expected = sorted((golden / "fastest_time").glob("fastest_time_*"))
    assert [p.name for p in sorted(out.iterdir())] == [
        p.name.replace("fastest_time_", "fastest_") for p in expected]
    for path in expected:
        assert (out / path.name.replace("fastest_time_", "fastest_")).read_bytes() == (
            path.read_bytes()), path.name
    for command, args in (
            ("whatif", ["--dep-proc-min", "60", "--arr-proc-min", "30", "--format", "csv"]),
            ("legs", []),
            ("weather-diff", ["--date-a", "2018-01-02", "--date-b", "2018-01-05"])):
        out = tmp_path / command
        assert main(config + [command, *args, "--out-dir", str(out)]) == 0
        assert_trees_identical(out, golden / command.replace("-", "_"))


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
        evaluated = ({trip_facts(t).segment_id for t in report.trips}
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

    def test_geometries_are_encoded_once(self, tmp_path, monkeypatch):
        """Both pipelines' GeoJSON files take their geometries from one
        encoding."""
        calls = []
        encode = cli._geometry_json

        def counted(*args):
            calls.append(args[1])
            return encode(*args)

        monkeypatch.setattr(cli, "_geometry_json", counted)
        assert main(["whatif"] + BASE_FLAGS +
                    ["--dep-proc-min", "60", "--arr-proc-min", "30",
                     "--out-dir", str(tmp_path), "--format", "both"]) == 0
        assert calls == ["both"]
        assert len(list(tmp_path.rglob("*.geojson"))) == 10

    def test_fastest_time_applies_the_processing_times(self, tmp_path):
        """``fastest-time`` under both flags writes ``whatif``'s override files."""
        flags = BASE_FLAGS + ["--dep-proc-min", "60", "--arr-proc-min", "30",
                              "--format", "csv"]
        assert main(["whatif"] + flags + ["--out-dir", str(tmp_path / "whatif")]) == 0
        assert main(["fastest-time"] + flags + ["--out-dir", str(tmp_path / "ft")]) == 0
        override = tmp_path / "whatif" / "override"
        renamed = tmp_path / "renamed"
        renamed.mkdir()
        for path in override.iterdir():
            (renamed / path.name.replace("fastest_", "fastest_time_")).write_bytes(
                path.read_bytes())
        assert_trees_identical(tmp_path / "ft", renamed)
        baseline = (tmp_path / "whatif" / "baseline" / "fastest_early_morning.csv").read_bytes()
        assert (override / "fastest_early_morning.csv").read_bytes() != baseline


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
    def test_exit_2_without_date_range(self, tmp_path, capsys, monkeypatch):
        # No weekly schedule, so loading needs no dates and the command's own
        # check is the one that fails, before any input is loaded.
        def load_ride_stats(path):
            pytest.fail("integration loaded its inputs before checking the date range")

        monkeypatch.setattr(ingestion, "load_ride_stats", load_ride_stats)
        flags = without(BASE_FLAGS, "--from-date", "--to-date", "--weekly-schedule")
        assert main(["integration"] + flags +
                    ["--out-dir", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError",
            "message": "--from-date/--to-date required for integration fit"}

    def test_exit_3_when_no_station_can_be_fit(self, tmp_path, capsys):
        # Valid inputs, but no daily ride data falls in the date range.
        flags = without(BASE_FLAGS, "--segments", "--weekly-schedule", "--from-date",
                        "--to-date")
        out = tmp_path / "o"
        assert main(["integration"] + flags + ["--from-date", "2019-06-01", "--to-date",
                    "2019-06-02", "--out-dir", str(out)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "FitUndefinedError",
            "message": "no station has enough daily ride data for a fit"}
        assert not out.exists()


class TestLegsCommand:
    def test_segments_alone_without_dates(self, tmp_path):
        # Every dated segment is in range when no dates are given.
        flags = without(BASE_FLAGS, "--weekly-schedule", "--from-date", "--to-date")
        out = tmp_path / "o"
        assert main(["legs"] + flags + ["--out-dir", str(out)]) == 0
        rows = (out / "leg_shares.csv").read_text().splitlines()
        assert [(r.split(",")[0], r.split(",")[-1]) for r in rows[1:]] == [("AMS-CDG", "4")]


class TestCommandLineErrors:
    @pytest.mark.parametrize("argv, message", [
        (["fastest"] + without(BASE_FLAGS, "--origin-zone"), "missing --origin-zone"),
        (["fastest"] + BASE_FLAGS + ["--origin-zone", "NOPE"],
         "origin zone 'NOPE' not in zones file"),
        (["whatif"] + BASE_FLAGS + ["--dep-proc-min", "60"],
         "--dep-proc-min and --arr-proc-min go together"),
        (["validate"] + without(BASE_FLAGS, "--ride-stats"),
         "missing required input: --ride-stats"),
        (["validate"] + without(BASE_FLAGS, "--from-date", "--to-date"),
         "--from-date/--to-date required with a weekly schedule"),
        (["fastest"] + without(BASE_FLAGS, "--segments", "--weekly-schedule"),
         "no segments: provide --segments and/or --weekly-schedule"),
        (["legs"] + without(BASE_FLAGS, "--weekly-schedule")
         + ["--from-date", "2018-01-07", "--to-date", "2018-01-01"],
         "empty date range 2018-01-07..2018-01-01"),
        (["weather-diff"] + BASE_FLAGS + ["--date-a", "2018-01-02", "--date-b", "2018-02-20"],
         "--date-b 2018-02-20 outside the weekly schedule's date range 2018-01-01..2018-01-07"),
        (["fastest"] + BASE_FLAGS + ["--dep-proc-min", "60"],
         "--dep-proc-min and --arr-proc-min go together"),
        (["legs"] + BASE_FLAGS + ["--arr-proc-min", "30"],
         "--dep-proc-min and --arr-proc-min go together"),
        (["validate"] + BASE_FLAGS + ["--dep-proc-min", "60"],
         "--dep-proc-min and --arr-proc-min go together"),
    ], ids=["origin-zone-missing", "origin-zone-unknown", "lone-dep-proc-min",
            "ride-stats-missing", "weekly-schedule-without-dates", "no-segments",
            "reversed-date-range", "date-outside-weekly-range",
            "lone-dep-proc-min-fastest", "lone-arr-proc-min-legs",
            "lone-dep-proc-min-validate"])
    def test_exits_2_with_one_json_object(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError", "message": message}
        assert not out.exists()


class TestOutputDirErrors:
    # (subcommand, the first file it writes)
    RUNS = [("legs", "leg_shares.csv"),
            ("fastest", f"fastest_{CLASSIFIABLE_PERIODS[0].label}.geojson")]

    @pytest.mark.parametrize("command, first", RUNS, ids=[c for c, _ in RUNS])
    @pytest.mark.parametrize("under, code", [("", errno.EEXIST), ("x", errno.ENOTDIR)],
                             ids=["out-dir-is-a-file", "out-dir-under-a-file"])
    def test_unwritable_out_dir_exits_2_with_one_json_object(
            self, tmp_path, capsys, command, first, under, code):
        # A file in the way: the out dir itself, or a directory above it.
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / under if under else afile
        assert main([command] + BASE_FLAGS + ["--out-dir", str(out)]) == 2
        path = str(out / first)
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError", "path": path,
            "message": f"{path}: cannot write: {os.strerror(code)}"}
        assert afile.read_text() == "kept\n"


def test_csv_text_formats_each_kind_of_cell():
    header = ["none", "str", "float", "period", "true", "false", "ids", "int"]
    row = [None, "P,Z1", 1.5, DayPeriod.LATE_EVENING, True, False, ("Z1", "Z,2"), 7]
    assert cli._csv_text(header, [row]) == (
        "none,str,float,period,true,false,ids,int\n"
        ',"P,Z1",1.500000,late_evening,1,0,"Z1;Z,2",7\n')


@pytest.mark.parametrize("path, kind", [
    ("legs/leg_shares.csv", analytics.LegShare),
    ("weather_diff/weather_diff.csv", analytics.ZoneDelta),
    ("delay/delay_sensitivity.csv", analytics.DelaySensitivity),
], ids=["legs", "weather-diff", "delay"])
def test_record_table_columns_are_the_record_fields(path, kind):
    # The golden tree is what each command writes (TestDeterminism).
    with open(FIXTURES.parent / "golden_expected" / path, newline="", encoding="utf-8") as f:
        header = next(csv.reader(f))
    assert header == [f.name for f in fields(kind)]


class TestCsvExport:
    """Ids from ``zones.geojson`` may hold commas and line breaks; every CSV
    still parses to rows as wide as its header, with the ids intact."""

    # (subcommand, its extra flags)
    RUNS = [
        ("fastest", []), ("fastest-time", []), ("reliability", []),
        ("whatif", ["--dep-proc-min", "60", "--arr-proc-min", "30"]), ("legs", []),
        ("integration", []),
        ("weather-diff", ["--date-a", "2018-01-02", "--date-b", "2018-01-05"]),
        ("delay", ["--segment-id", "F_DELAY16"]),
    ]

    @staticmethod
    def awkward_inputs(tmp_path):
        """The golden flags with zone PZ1 renamed ``P,Z1`` (quoted in
        ``ride_stats.csv``), and a zone whose id holds a comma and a line
        break added to the zones file only."""
        doc = json.loads((FIXTURES / "zones.geojson").read_text())
        for feature in doc["features"]:
            if feature["properties"]["zone_id"] == "PZ1":
                feature["properties"]["zone_id"] = "P,Z1"
        doc["features"].append({"geometry": None, "properties": {"zone_id": "PZ,7\nbad"},
                                "type": "Feature"})
        zones, rides = tmp_path / "zones.geojson", tmp_path / "ride_stats.csv"
        zones.write_text(json.dumps(doc))
        rides.write_text((FIXTURES / "ride_stats.csv").read_text().replace("PZ1,", '"P,Z1",'))
        flags = BASE_FLAGS.copy()
        flags[1], flags[9] = str(rides), str(zones)
        return flags, sorted(f["properties"]["zone_id"] for f in doc["features"])

    @pytest.mark.parametrize("command, extra", RUNS, ids=[c for c, _ in RUNS])
    def test_every_csv_parses_and_keeps_its_ids(self, tmp_path, command, extra):
        flags, zone_ids = self.awkward_inputs(tmp_path)
        out = tmp_path / "out"
        assert main([command] + flags + extra + ["--format", "csv", "--out-dir", str(out)]) == 0
        files = sorted(out.rglob("*.csv"))
        assert files
        for path in files:
            with open(path, newline="", encoding="utf-8") as f:
                header, *rows = csv.reader(f)
            assert all(len(row) == len(header) for row in rows), path
            columns = dict(zip(header, zip(*rows)))
            if "days_total" in header:  # one row per zone of the input
                assert sorted(columns["zone_id"]) == zone_ids
            elif "zone_id" in header:
                assert "P,Z1" in columns["zone_id"]
            if "zones_used" in header:
                (used,), (excluded,) = columns["zones_used"], columns["zones_excluded"]
                assert sorted(used.split(";") + excluded.split(";")) == zone_ids

    GEOJSON_RUNS = [(c, extra) for c, extra in RUNS
                    if c not in ("legs", "integration", "delay")]

    @pytest.mark.parametrize("command, extra", GEOJSON_RUNS, ids=[c for c, _ in GEOJSON_RUNS])
    def test_every_geojson_parses_and_keeps_its_ids(self, tmp_path, command, extra):
        flags, zone_ids = self.awkward_inputs(tmp_path)
        out = tmp_path / "out"
        assert main([command] + flags + extra + ["--format", "both", "--out-dir", str(out)]) == 0
        files = sorted(out.rglob("*.geojson"))
        assert files
        for path in files:
            doc = json.loads(path.read_text(encoding="utf-8"))
            # One feature per input zone, in zone-id order.
            assert [f["properties"]["zone_id"] for f in doc["features"]] == zone_ids, path


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
