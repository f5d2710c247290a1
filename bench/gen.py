"""Seeded, stdlib-only generator of the five d2d input files for each
benchmark workload.

The content of a workload (zones, stations, schedules, delays, ride times)
is fixed by the workload's own content seed.  The ``seed`` argument permutes
the order of the rows of every CSV file and of the zone features.  d2d
promises outputs that do not depend on input order, so a workload's output
tree and trip count are constants of the workload: one committed digest
checks the run of every seed, and every seed re-checks order independence.

Usage: python3 bench/gen.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

ORIGIN_ZONE = "AZ001"
ORIGIN_POINT = (52.3702, 4.8952)  # Amsterdam (lat, lon)
PARIS = (48.8566, 2.3522)

# station_id, kind, zone_id, lat, lon, tz
STATIONS = (
    ("AMS", "air", "AZ_AMS", 52.3105, 4.7683, "Europe/Amsterdam"),
    ("ASD", "rail", "AZ_ASD", 52.3791, 4.9003, "Europe/Amsterdam"),
    ("CDG", "air", "PZ_CDG", 49.0097, 2.5479, "Europe/Paris"),
    ("ORY", "air", "PZ_ORY", 48.7262, 2.3652, "Europe/Paris"),
    ("GDN", "rail", "PZ_GDN", 48.8809, 2.3553, "Europe/Paris"),
)
# Scheduled in-vehicle minutes per (departure, arrival) station.
ROUTES = {("AMS", "CDG"): ("via_CDG", 80), ("AMS", "ORY"): ("via_ORY", 85),
          ("ASD", "GDN"): ("via_GDN", 200)}
OVERNIGHT_RAIL_MIN = 535
# Ride-time multiplier per period code (0 = daily aggregate, 1..5 the periods).
PERIOD_FACTOR = {0: 1.05, 1: 0.85, 2: 1.3, 3: 1.0, 4: 1.35, 5: 0.9}
# Share of period buckets left out, so the daily aggregate is used instead.
MISSING_BUCKET_SHARE = 0.2

RIDE_HEADER = "origin_zone,dest_zone,date,period,mean_s,min_s,max_s"
WEEKLY_HEADER = "mode_id,dep_station,arr_station,days,dep_time,arr_time"
SEGMENTS_HEADER = ("segment_id,mode_id,dep_station,arr_station,"
                   "sched_dep,actual_dep,sched_arr,actual_arr,cancelled")
STATIONS_HEADER = "station_id,kind,zone_id,lat,lon,tz,t_sec_dep_min,t_arr_min"


@dataclass(frozen=True)
class Spec:
    """Content of one workload's inputs (everything but row order)."""

    zones: int  # destination zones besides the origin zone
    polygon_vertices: int  # 0 writes Point geometries
    start: date
    days: int
    weekly_rows: int  # 0: the weekly schedule is empty and not passed to d2d
    actuals_per_day: int
    actuals_days: tuple = ()  # dates with actuals; empty means every day
    storm_day: date = None  # date with heavy cancellations and missing ride data

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.days - 1)


SPECS = {
    "whatif-j2": Spec(zones=300, polygon_vertices=24, start=date(2018, 3, 5),
                      days=14, weekly_rows=22, actuals_per_day=10),
    "legs-delays": Spec(zones=100, polygon_vertices=0, start=date(2018, 1, 8),
                        days=28, weekly_rows=0, actuals_per_day=15),
    "weather-diff-long": Spec(
        zones=300, polygon_vertices=0, start=date(2018, 1, 1), days=112,
        weekly_rows=40, actuals_per_day=10,
        actuals_days=(date(2018, 2, 6), date(2018, 2, 13)),
        storm_day=date(2018, 2, 13)),
}


def _km(a, b) -> float:
    lat1, lon1, lat2, lon2 = map(math.radians, (*a, *b))
    h = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2 * 6371.0 * math.asin(min(1.0, math.sqrt(h)))


def _zones(spec: Spec, rng: random.Random):
    """(zone_id, (lat, lon), density, geometry) for the origin and each
    destination zone around Paris."""
    out = []
    points = [(ORIGIN_ZONE, ORIGIN_POINT)]
    for i in range(1, spec.zones + 1):
        r_km = 25 * math.sqrt(rng.random())
        angle = rng.uniform(0, 2 * math.pi)
        lat = PARIS[0] + r_km * math.cos(angle) / 111.0
        lon = PARIS[1] + r_km * math.sin(angle) / 73.0
        points.append((f"PZ{i:03d}", (round(lat, 6), round(lon, 6))))
    for zone_id, (lat, lon) in points:
        if spec.polygon_vertices:
            ring = []
            for k in range(spec.polygon_vertices):
                a = 2 * math.pi * k / spec.polygon_vertices
                r = rng.uniform(0.004, 0.009)
                ring.append([round(lon + r * 1.5 * math.cos(a), 6),
                             round(lat + r * math.sin(a), 6)])
            ring.append(ring[0])
            geometry = {"type": "Polygon", "coordinates": [ring]}
        else:
            geometry = {"type": "Point", "coordinates": [lon, lat]}
        out.append((zone_id, (lat, lon), rng.randint(200, 25000), geometry))
    return out


def _ride_row(origin, dest, day, code, base_s, day_factor, rng):
    mean = int(base_s * PERIOD_FACTOR[code] * day_factor) + rng.randint(0, 120)
    low = max(60, int(mean * 0.75))
    return (f"{origin},{dest},{day.isoformat()},{code},{mean},{low},"
            f"{int(mean * 1.5) + 60}")


def _ride_rows(spec: Spec, zones, rng: random.Random):
    """Access rides origin -> Amsterdam stations and egress rides Paris
    stations -> every zone, for each date the trips can touch."""
    stations = {s[0]: s for s in STATIONS}
    rows = []
    first, last = spec.start - timedelta(days=1), spec.end + timedelta(days=1)
    dates = [first + timedelta(days=i) for i in range((last - first).days + 1)]
    legs = [(ORIGIN_ZONE, stations[s][2], _km(ORIGIN_POINT, stations[s][3:5]))
            for s in ("AMS", "ASD")]
    legs += [(stations[s][2], zone_id, _km(stations[s][3:5], point))
             for s in ("CDG", "ORY", "GDN") for zone_id, point, _, _ in zones
             if zone_id != ORIGIN_ZONE]
    for origin, dest, km in legs:
        base_s = 420 + km * 95
        for day in dates:
            storm = day == spec.storm_day
            if storm and dest != ORIGIN_ZONE and rng.random() < 0.15:
                continue  # ride data dried up: the zone disappears that day
            day_factor = rng.uniform(0.95, 1.1) * (1.25 if storm else 1.0)
            rows.append(_ride_row(origin, dest, day, 0, base_s, day_factor, rng))
            for code in range(1, 6):
                if rng.random() >= MISSING_BUCKET_SHARE:
                    rows.append(_ride_row(origin, dest, day, code, base_s,
                                          day_factor, rng))
    return rows


def _hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _weekly_rows(spec: Spec, rng: random.Random):
    rows, used = [], set()
    routes = list(ROUTES.items())
    while len(rows) < spec.weekly_rows:
        if len(rows) < 2:  # overnight trains: arrival clock time before departure
            mode, dep, arr, dur = "via_GDN", "ASD", "GDN", OVERNIGHT_RAIL_MIN
            dep_min = 1330 + 10 * len(rows)
        else:
            (dep, arr), (mode, dur) = rng.choice(routes)
            # Daytime rows start after 05:00 and end before midnight, so no
            # local time falls in an hour a DST change skips or repeats.
            dep_min = rng.randrange(300, 1440 - dur - 30, 5)
        if (mode, dep_min) in used:
            continue
        used.add((mode, dep_min))
        days = "1111111" if rng.random() < 0.6 else "".join(
            rng.choice("01") if i else "1" for i in range(7))
        rows.append(f"{mode},{dep},{arr},{days},{_hhmm(dep_min)},"
                    f"{_hhmm((dep_min + dur) % 1440)}")
    return rows


def _segment_rows(spec: Spec, rng: random.Random):
    rows = []
    days = spec.actuals_days or [spec.start + timedelta(days=i) for i in range(spec.days)]
    routes = list(ROUTES.items())
    for day in days:
        cancel_share = 0.35 if day == spec.storm_day else 0.03
        for n in range(spec.actuals_per_day):
            (dep, arr), (mode, dur) = routes[n % len(routes)]
            dep_min = rng.randrange(330, 1440 - dur - 200, 5)
            sched_dep = datetime.combine(day, datetime.min.time()) + timedelta(minutes=dep_min)
            sched_arr = sched_dep + timedelta(minutes=dur)
            seg_id = f"{dep}{arr}{n:02d}_{day.isoformat()}"
            if rng.random() < cancel_share:
                rows.append(f"{seg_id},{mode},{dep},{arr},{sched_dep.isoformat()},,"
                            f"{sched_arr.isoformat()},,1")
                continue
            delay = 0 if rng.random() < 0.5 else rng.choice((-5, 10, 25, 40, 75, 150))
            actual_dep = sched_dep + timedelta(minutes=delay)
            actual_arr = actual_dep + timedelta(minutes=dur + rng.randint(-10, 15))
            rows.append(f"{seg_id},{mode},{dep},{arr},{sched_dep.isoformat()},"
                        f"{actual_dep.isoformat()},{sched_arr.isoformat()},"
                        f"{actual_arr.isoformat()},0")
    return rows


def _write_csv(path: Path, header: str, rows, order: random.Random) -> None:
    rows = list(rows)
    order.shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out_dir) -> None:
    """Write the five input files of ``workload`` into ``out_dir``."""
    spec = SPECS[workload]
    content = random.Random(f"content:{workload}")
    order = random.Random(f"order:{workload}:{seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    zones = _zones(spec, content)
    features = [{"type": "Feature", "geometry": geometry,
                 "properties": {"zone_id": zone_id, "internal_point": [lon, lat],
                                "population_density": density}}
                for zone_id, (lat, lon), density, geometry in zones]
    order.shuffle(features)
    (out / "zones.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features},
                   separators=(",", ":")) + "\n", encoding="utf-8")
    _write_csv(out / "stations.csv", STATIONS_HEADER,
               (",".join(map(str, s)) + ",," for s in STATIONS), order)
    _write_csv(out / "ride_stats.csv", RIDE_HEADER, _ride_rows(spec, zones, content), order)
    _write_csv(out / "segments.csv", SEGMENTS_HEADER, _segment_rows(spec, content), order)
    _write_csv(out / "weekly_schedule.csv", WEEKLY_HEADER, _weekly_rows(spec, content), order)


def input_flags(workload: str, in_dir) -> list:
    """The d2d flags that name the inputs generated into ``in_dir``."""
    spec, in_dir = SPECS[workload], Path(in_dir).resolve()
    flags = ["--ride-stats", str(in_dir / "ride_stats.csv"),
             "--stations", str(in_dir / "stations.csv"),
             "--zones", str(in_dir / "zones.geojson"),
             "--segments", str(in_dir / "segments.csv"),
             "--from-date", spec.start.isoformat(), "--to-date", spec.end.isoformat(),
             "--origin-zone", ORIGIN_ZONE]
    if spec.weekly_rows:
        flags += ["--weekly-schedule", str(in_dir / "weekly_schedule.csv")]
    return flags


if __name__ == "__main__":
    name, seed_arg, out_arg = sys.argv[1:]
    generate(name, int(seed_arg), out_arg)
    print(" ".join(input_flags(name, out_arg)))
