"""Malformed-input contract, fuzzed: any bytes or text given to a loader or
to the config reader either load or raise ValidationError citing the file
(and the line, for line-based files), never another exception."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from doortodoor import (
    ValidationError,
    expand_weekly_schedule,
    load_ride_stats,
    load_segments_actuals,
    load_stations,
    load_zones,
)
from doortodoor.cli import SETTINGS, _read_config_file, main
from doortodoor.ingestion import (
    RIDE_STATS_HEADER,
    SEGMENTS_HEADER,
    STATIONS_HEADER,
    WEEKLY_HEADER,
)

FIXTURES = Path(__file__).parent / "fixtures" / "golden"
STATIONS = load_stations(FIXTURES / "stations.csv")

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Loader name -> (loader, header or None, plausible field values).
LOADERS = {
    "ride_stats.csv": (load_ride_stats, RIDE_STATS_HEADER, [
        "AZ1", "PZ1", "2018-01-02", "2018-02-30", "0", "2", "5", "6", "-1",
        "1800", "1500", "2400", "1_000", "9" * 5000, " 7 ", "1e3",
    ]),
    "segments.csv": (lambda p: load_segments_actuals(p, STATIONS), SEGMENTS_HEADER, [
        "F1", "via_CDG", "AMS", "CDG", "GDN", "NOPE", "2018-01-02T12:00",
        "2018-01-02T13:20", "2018-03-25T02:30", "2018-01-02T12:00:00.5",
        "0001-01-01T00:00+14:00", "9999-12-31T23:59-14:00", "2018-01-02",
        "0", "1", "2",
    ]),
    "weekly_schedule.csv": (
        lambda p: expand_weekly_schedule(p, STATIONS, date(2018, 1, 1), date(2018, 1, 7)),
        WEEKLY_HEADER, [
            "via_CDG", "AMS", "CDG", "1111111", "0000000", "11111", "1x11111",
            "06:45", "23:59", "24:00", "6:7:8", "-1:30", "08:05",
        ]),
    "stations.csv": (load_stations, STATIONS_HEADER, [
        "AMS", "air", "rail", "bus", "AZ1", "52.3", "4.7", "nan", "inf", "1e400",
        "-91", "Europe/Paris", "Nope/Zone", "../etc", "90", "45", "-5",
    ]),
    "run.conf": (_read_config_file, None, [
        f"{key}={value}" for key in SETTINGS
        for value in ("", "2018-01-02", "1", "yes", "x", "1e400")
    ] + ["# comment", "novalue", "=", "nonsense=1"]),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_loads_or_cites(loader, path: Path, data: bytes, line_based=True):
    path.write_bytes(data)
    try:
        loader(str(path))
    except ValidationError as exc:
        assert exc.path == str(path)
        if line_based:
            assert 1 <= exc.line <= data.count(b"\n") + 1


def row_text(header, tokens):
    """A file with the right header (mostly) and rows of plausible or random
    fields, joined by commas or, for the config file, one per line."""
    field = st.one_of(st.sampled_from(tokens), st.text(max_size=6))
    if header is None:
        return st.lists(field, max_size=8).map("\n".join)
    width = header.count(",") + 1
    row = st.lists(field, min_size=width - 1, max_size=width + 1).map(",".join)
    first = st.one_of(st.just(header), st.text(max_size=10))
    return st.tuples(first, st.lists(row, max_size=6)).map(
        lambda parts: "\n".join([parts[0], *parts[1]]) + "\n")


@pytest.mark.parametrize("name", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_any_bytes_load_or_cite_path_and_line(scratch, name, data):
    loader, header, _ = LOADERS[name]
    prefix = b"" if header is None else data.draw(st.sampled_from([b"", header.encode() + b"\n"]))
    assert_loads_or_cites(loader, scratch / name, prefix + data.draw(st.binary(max_size=120)))


@pytest.mark.parametrize("name", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_any_rows_load_or_cite_path_and_line(scratch, name, data):
    loader, header, tokens = LOADERS[name]
    text = data.draw(row_text(header, tokens))
    assert_loads_or_cites(loader, scratch / name, text.encode())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)
zone_properties = st.fixed_dictionaries({}, optional={
    "zone_id": st.one_of(st.sampled_from(["Z1", "Z2", ""]), json_values),
    "internal_point": st.one_of(
        st.lists(st.one_of(st.floats(), st.integers(), json_values), max_size=3),
        json_values),
    "population_density": st.one_of(st.floats(), st.integers(), json_values),
})
zone_documents = st.one_of(
    json_values,
    st.fixed_dictionaries({
        "type": st.sampled_from(["FeatureCollection", "Feature"]),
        "features": st.one_of(
            st.lists(st.one_of(
                st.fixed_dictionaries({"type": st.just("Feature"),
                                       "properties": zone_properties}),
                json_values), max_size=4),
            json_values),
    }),
)


@FUZZ
@given(st.one_of(st.binary(max_size=120),
                 zone_documents.map(lambda doc: json.dumps(doc).encode())))
def test_any_zones_document_loads_or_cites_path(scratch, data):
    assert_loads_or_cites(load_zones, scratch / "zones.geojson", data, line_based=False)


# The input files come from flags, which win over the config file, so a run
# fails only on the config file itself; the file may add the weekly schedule.
INPUT_FLAGS = {key: str(FIXTURES / name) for key, name in (
    ("ride_stats", "ride_stats.csv"), ("segments", "segments.csv"),
    ("stations", "stations.csv"), ("zones", "zones.geojson"))}
config_lines = st.one_of(
    st.sampled_from([f"weekly_schedule={FIXTURES / 'weekly_schedule.csv'}", "weekly_schedule="]),
    st.builds("{}={}".format,
              st.sampled_from([key for key in SETTINGS
                               if key not in INPUT_FLAGS and key != "weekly_schedule"]),
              st.sampled_from(["", "2018-01-02", "2018-01-09", "1", "0", "-5", "nan", "yes",
                               "x", "1e400", "csv", "2018-01-02T00:00"])),
    st.sampled_from(["# comment", "", "novalue", "=", " jobs = 2 "]),
    st.text(max_size=6),
)


@FUZZ
@given(lines=st.lists(config_lines, max_size=8), end=st.sampled_from(["\n", "\r\n"]))
def test_any_config_file_runs_validate_or_cites_it(scratch, lines, end):
    """``d2d validate`` under a fuzzed config file runs, or exits 2 with one
    JSON object that cites the file."""
    conf = scratch / "fuzz.conf"
    conf.write_bytes(end.join(lines).encode("utf-8", "surrogatepass"))
    argv = ["--config", str(conf), "validate"]
    for key, value in INPUT_FLAGS.items():
        argv += [f"--{key.replace('_', '-')}", value]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert json.loads(out.getvalue())["zones"] == 7 and not err.getvalue()
    else:
        assert code == 2
        error = json.loads(err.getvalue())
        assert error["path"] == str(conf)
        assert error["message"].startswith(f"{conf}:")
