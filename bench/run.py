"""d2d benchmark: runs one named workload the way a user would and prints
its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --record

Each run of the workload is a fresh ``python -m doortodoor.cli`` process,
started from this one process after the previous one has ended
(closed loop, one client).  Inputs come from ``bench/gen.py`` for the seed
and are made before any timing.

On ``whatif-j2`` an untimed ``--jobs 1`` run comes first: its output tree
must equal the reference tree, which the ``--jobs 2`` runs are held to as
well.  With ``--trace 0`` the workload then runs repeatedly for
``--seconds`` and gives ``wall_s``, ``trips_per_s`` and ``peak_rss_mb``;
``d2d validate`` runs before each of the first ``SETUP_RUNS`` of those runs
and gives ``setup_s``.
With ``--trace 1`` traced runs (``bench/trace.py``) alternate with untraced
ones and give the per-layer metrics.

Every run is checked: exit code 0 and an output tree whose sha256 equals
the one recorded for the workload in ``bench/reference.json``.  A run that
fails either check counts in ``failed``.  ``--record`` re-records the
digests and the trip count; a change that alters outputs on purpose does
so as its own benchmark change.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; names and units of the metrics
are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
WORK = ROOT / ".bench_build" / "d2d"
REFERENCE = BENCH_DIR / "reference.json"
PROGRAM = ROOT / "src" / "doortodoor" / "cli.py"

sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402

SETUP_RUNS = 3
MIN_SAMPLES = 3
RUN_TIMEOUT_S = 120  # a d2d process still running after this is killed and fails

# d2d arguments of each workload besides the input files, and its --jobs.
WORKLOADS = {
    "whatif-j2": (["whatif", "--format", "both", "--dep-proc-min", "45",
                   "--arr-proc-min", "20"], 2),
    "legs-delays": (["legs"], 1),
    "weather-diff-long": (["weather-diff", "--format", "both",
                           "--date-a", "2018-02-06", "--date-b", "2018-02-13"], 1),
}


def _inputs(workload: str, seed: int) -> list:
    """Generate the workload's inputs once per (workload, seed, generator
    source) and return the d2d flags naming them."""
    version = hashlib.sha256(Path(gen.__file__).read_bytes()).hexdigest()[:12]
    target = WORK / "inputs" / f"{workload}-{seed}-{version}"
    if not target.is_dir():
        tmp = target.with_name(target.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        gen.generate(workload, seed, tmp)
        tmp.rename(target)
    return gen.input_flags(workload, target)


def _tree(out_dir: Path):
    """(sha256, files, bytes) of a directory tree, paths included."""
    digest, files, size = hashlib.sha256(), 0, 0
    paths = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else []
    for path in paths:
        data = path.read_bytes()
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
        files, size = files + 1, size + len(data)
    return digest.hexdigest(), files, size


class Runner:
    """Runs d2d processes one at a time and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def run(self, argv, out_dir: Path, expected: str):
        """Run one process; return (wall seconds, peak RSS MB, stdout bytes,
        output tree) and count it failed unless it exits 0 with the
        expected digest.  ``expected`` is compared against the output tree,
        or against stdout when the command writes no tree; None skips it."""
        shutil.rmtree(out_dir, ignore_errors=True)
        log = WORK / "last_stdout"
        with open(log, "wb") as stdout, open(WORK / "last_stderr", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=stdout, stderr=stderr,
                                    cwd=ROOT)
            timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = log.read_bytes()
        tree = _tree(out_dir)
        got = tree[0] if tree[1] else hashlib.sha256(out).hexdigest()
        self.attempted += 1
        if proc.returncode != 0 or expected not in (None, got):
            self.failed += 1
            err = (WORK / "last_stderr").read_text(errors="replace")[-2000:]
            print(f"FAILED: {' '.join(argv[1:4])}... exit {proc.returncode}, "
                  f"digest {got[:12]} expected {(expected or '')[:12]}\n{err}", file=sys.stderr)
        return wall, usage.ru_maxrss / 1024.0, out, tree


def _d2d(*args):
    return [sys.executable, "-m", "doortodoor.cli", *args]


def _workload_args(workload, inputs, out_dir: Path, jobs=None) -> list:
    args, default_jobs = WORKLOADS[workload]
    return [*args, "--jobs", str(jobs or default_jobs), *inputs, "--out-dir", str(out_dir)]


def _traced(spans_path: Path, d2d_args) -> list:
    return [sys.executable, str(BENCH_DIR / "trace.py"), str(spans_path), *d2d_args]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _report(name, values, unit):
    q1, q3 = _quartiles(values)
    print(f"{name}: median {statistics.median(values):.4f} {unit} "
          f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")


def _layer_metrics(spans_doc, wall: float, tree) -> dict:
    """Per-layer metrics of one traced run."""
    seconds, counts = {}, {}
    root_s = 0.0
    for span in spans_doc["spans"]:
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + span["s"]
        for key, value in span.get("counts", {}).items():
            full = f"{span['name']}.{key}"
            counts[full] = counts.get(full, 0) + value
        if span["parent"] is None:
            root_s += span["s"]

    def ratio(a, b):
        return a / b if b else 0.0

    ev = "aggregation.evaluate_trips"
    trips = counts.get(f"{ev}.trips", 0)
    m = {f"{name}.s": seconds.get(name, 0.0) for name in (
        "ingestion.load_ride_stats", "ingestion.load_zones",
        "ingestion.load_segments_actuals", "ingestion.expand_weekly_schedule",
        ev, "aggregation.daily_zone_means", "aggregation.summarize",
        "analytics.leg_shares", "analytics.weather_diff",
        "cli.export_summaries", "cli.export_bins")}
    for key in ("ingestion.load_ride_stats.rows", "ingestion.load_zones.features",
                "ingestion.load_segments_actuals.rows",
                "ingestion.expand_weekly_schedule.segments",
                f"{ev}.trips", f"{ev}.skipped_cancelled", f"{ev}.skipped_no_ride",
                "aggregation.daily_zone_means.cells", "aggregation.summarize.summaries",
                "analytics.leg_shares.trips", "analytics.leg_shares.city_pairs",
                "analytics.weather_diff.deltas", "analytics.weather_diff.disappeared"):
        m[key] = counts.get(key, 0)
    m["ingestion.load_ride_stats.rows_per_s"] = ratio(
        m["ingestion.load_ride_stats.rows"], m["ingestion.load_ride_stats.s"])
    m[f"{ev}.us_per_trip"] = ratio(m[f"{ev}.s"] * 1e6, trips)
    m[f"{ev}.yield"] = ratio(trips, counts.get(f"{ev}.attempts", 0))
    m["model.compute_trip.fallback_to_share"] = ratio(counts.get(f"{ev}.fallback_to", 0), trips)
    m["model.compute_trip.fallback_from_share"] = ratio(
        counts.get(f"{ev}.fallback_from", 0), trips)
    m["cli.output_files"], m["cli.output_bytes"] = tree[1], tree[2]
    m["cli.residual_s"] = wall - root_s - spans_doc["own_s"]
    return m


def _measure(workload, seed, seconds, trace, runner, reference):
    inputs = _inputs(workload, seed)
    out_dir = WORK / "out" / workload
    d2d_args = _workload_args(workload, inputs, out_dir)
    argv = _d2d(*d2d_args)
    expected = reference["tree_sha256"]

    if WORKLOADS[workload][1] > 1:
        runner.run(_d2d(*_workload_args(workload, inputs, out_dir, jobs=1)), out_dir, expected)
        print(f"--jobs 1 parity: {'ok' if runner.failed == 0 else 'FAILED'}")

    if not trace:
        # A validate run precedes each of the first SETUP_RUNS workload runs,
        # so setup_s is sampled across the run as wall_s is; --seconds bounds
        # the time in the workload's own runs.
        setup, walls, rss = [], [], []
        while len(walls) < MIN_SAMPLES or sum(walls) + statistics.median(walls) <= seconds:
            if len(setup) < SETUP_RUNS:
                setup.append(runner.run(_d2d("validate", *inputs), WORK / "out" / "validate",
                                        reference["validate_sha256"])[0])
            wall, peak, _, _ = runner.run(argv, out_dir, expected)
            walls.append(wall)
            rss.append(peak)
        _report("setup_s", setup, "s")
        _report("wall_s", walls, "s")
        _report("peak_rss_mb", rss, "MB")
        wall_s = statistics.median(walls)
        metrics = {"wall_s": wall_s, "trips_per_s": reference["trips"] / wall_s,
                   "peak_rss_mb": statistics.median(rss),
                   "setup_s": statistics.median(setup)}
    else:
        spans_path = WORK / "spans.json"
        layers, traced_walls, walls = [], [], []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start
                            + statistics.median(traced_walls) + statistics.median(walls)
                            <= seconds):
            spans_path.unlink(missing_ok=True)
            wall, _, _, tree = runner.run(_traced(spans_path, d2d_args), out_dir, expected)
            traced_walls.append(wall)
            walls.append(runner.run(argv, out_dir, expected)[0])
            if not spans_path.is_file():
                continue
            layer = _layer_metrics(json.loads(spans_path.read_text()), wall, tree)
            if layer["aggregation.evaluate_trips.trips"] != reference["trips"]:
                runner.failed += 1
                print("FAILED: traced trip count differs from the reference",
                      file=sys.stderr)
            layers.append(layer)
        _report("traced wall", traced_walls, "s")
        _report("untraced wall", walls, "s")
        metrics = {key: statistics.median_low(layer[key] for layer in layers)
                   for key in (layers[0] if layers else ())}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
    return metrics


def _record(workload: str) -> None:
    """Re-record the workload's reference digests and trip count."""
    inputs = _inputs(workload, 0)
    runner = Runner()
    out_dir = WORK / "out" / workload
    _, _, stdout, _ = runner.run(_d2d("validate", *inputs), WORK / "out" / "validate", None)
    spans_path = WORK / "spans.json"
    _, _, _, tree = runner.run(
        _traced(spans_path, _workload_args(workload, inputs, out_dir)), out_dir, None)
    if runner.failed:
        raise SystemExit("error: a run failed; nothing recorded")
    spans = json.loads(spans_path.read_text())
    trips = _layer_metrics(spans, 0.0, tree)["aggregation.evaluate_trips.trips"]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference[workload] = {"tree_sha256": tree[0],
                           "validate_sha256": hashlib.sha256(stdout).hexdigest(),
                           "trips": trips}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(json.dumps(reference[workload]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running d2d
    # process is killed and reaped before this one exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not PROGRAM.is_file():
        print(f"error: d2d sources not found at {PROGRAM.relative_to(ROOT)}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.record:
        _record(args.workload)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    runner = Runner()
    reference = json.loads(REFERENCE.read_text())[args.workload]
    measured = _measure(args.workload, args.seed, args.seconds, args.trace, runner, reference)
    mismatch = {m["name"] for m in wanted} ^ set(measured)
    if mismatch:
        print(f"error: metrics not matching BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 2
    print(f"error_rate: {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
