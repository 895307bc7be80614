"""The repository's end-to-end benchmark: five workloads through ``repro.connect()``.

    python3 benchmarks/e2e/run.py                       # all five, untraced then traced
    python3 benchmarks/e2e/run.py --workload point_lookup --seed 7 --seconds 10 --trace 0

With ``--workload`` one workload runs in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Without it every workload runs in
its own fresh subprocess, so memory and caches are per workload, first
untraced and then traced; ``--out`` saves everything, ``--repeat N`` repeats
the whole set and records the run-to-run band of each end-to-end metric.

End-to-end numbers always come from an untraced phase.  A traced run spends
half its time untraced (the reference for the tracing overhead and the tail
latencies) and half recording spans and replaying each request stage by
stage (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The program under test is the source tree of this checkout.
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
from tracing import Tracer, self_times, write_jsonl  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median (the driver's contract asks
#: for several set-ups in a run, so one slow set-up does not decide a run).
SETUP_REPEATS = 5
#: A percentile above the median is reported only where at least ten samples lie beyond it.
MIN_SAMPLES = {50: 1, 95: 200, 99: 1000}

#: metric -> (span name, aggregate): "op" sums a layer's self time per
#: request and takes the median over requests; "call" is the median call.
SPAN_METRICS = {
    "lang.parse_ms": ("lang.parse", "op"),
    "calculus.typecheck_ms": ("calculus.typecheck", "op"),
    "transform.prepare_ms": ("transform.prepare", "op"),
    "service.prepare_hit_ms": ("service.prepare_hit", "op"),
    "service.prepare_miss_ms": ("service.prepare_miss", "call"),
    "service.bind_ms": ("service.bind", "op"),
    "collection.run_ms": ("collection.run", "op"),
    "combination.run_ms": ("combination.run", "op"),
    "construction.run_ms": ("construction.run", "op"),
    "api.execute_ms": ("api.execute", "op"),
    "api.fetch_ms": ("api.fetch", "op"),
    "api.begin_ms": ("api.begin", "op"),
    "api.commit_ms": ("api.commit", "op"),
    "api.rollback_ms": ("api.rollback", "op"),
    "relational.pin_ms": ("relational.pin", "op"),
    "relational.insert_us": ("relational.insert", "call"),
    "relational.delete_us": ("relational.delete", "call"),
    "relational.index_probe_us": ("relational.index_probe", "call"),
    "storage.wal_append_us": ("storage.wal_append", "call"),
    "storage.wal_flush_ms": ("storage.wal_flush", "call"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, (len(ordered) * q) // 100)]


def scale_of(name: str) -> float:
    return 1e3 if name.endswith("_ms") else 1e6 if name.endswith("_us") else 1.0


# ------------------------------------------------------------------ one workload


def run_phase(workload, seconds: float, first_block: int, tracers: list) -> list:
    """Run whole blocks (at least one per tracer) for ``seconds``; one recorder per tracer.

    Blocks go to the tracers in turn — ``[None, tracer]`` alternates untraced
    and traced blocks, so both see the same spells of a noisy machine.  A
    concurrent part of the workload (the open-loop writer) records into the
    first recorder and is traced by the last tracer.  The host's pace is
    sampled between blocks (``pace.py``).
    """
    recorders = [Recorder() for _ in tracers]
    for recorder, tracer in zip(recorders, tracers):
        if tracer is not None:
            recorder.tracers.append(tracer)
    workload.begin_phase(recorders[0], tracers[-1])
    started = perf_counter()
    block = first_block
    try:
        before = pace.sample()
        while block - first_block < len(tracers) or perf_counter() - started < seconds:
            lane = (block - first_block) % len(tracers)
            workload.run_block(workload.block(block), recorders[lane], tracers[lane])
            after = pace.sample()
            recorders[lane].end_block(pace.pace(before, after))
            before = after
            block += 1
    finally:
        workload.end_phase(recorders[0])
    return recorders


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, measure and check one workload in this process."""
    out = HERE / "out"
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, str(workdir), smoke)
    recorders = []
    try:
        setups = []  # seconds at the calm host's pace
        for _ in range(1 if smoke else SETUP_REPEATS):
            workload.close()
            before = pace.sample()
            started = perf_counter()
            workload.setup()
            built = perf_counter()
            between = pace.sample()
            warmed = perf_counter()
            recorders += run_phase(workload, 0.0, -1, [None])  # exactly one block
            workload.after_warmup()
            took = perf_counter() - warmed + built - started
            setups.append(took / pace.pace(before, between, pace.sample()))

        tracer = Tracer("client") if trace else None
        measured = run_phase(workload, seconds, 0, [None, tracer] if trace else [None])
        recorders += measured
        untraced = measured[0]
        metrics = end_to_end(untraced, setups)
        metrics.update(diagnostics(untraced, workload))
        spans = 0
        if trace:
            workload.layer_probes(tracer)
            metrics.update(per_layer(measured[1], untraced))
            spans = write_jsonl(out / f"trace_{name}.jsonl",
                                untraced.tracers + measured[1].tracers)
        metrics.update(workload.finish(untraced))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(recorder.attempted for recorder in recorders)
    failed = sum(recorder.failed for recorder in recorders)
    metrics["failed_op_share"] = (failed / max(attempted, 1), attempted)
    info = {"seed": seed, "seconds": seconds, "timed_ops": len(untraced.series["op"]),
            "timed_seconds": untraced.wall, "blocks": untraced.blocks, "spans": spans}
    report = getattr(workload, "ingest_report", None)
    if report is not None:
        info["ingest_report"] = {field: getattr(report, field) for field in report.__dataclass_fields__}
        info["feed_redelivered"] = workload.redelivered
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "samples": samples}
                    for key, (value, samples) in sorted(metrics.items())},
        "errors": [error for recorder in recorders for error in recorder.errors][:10],
        "info": info,
    }


def end_to_end(untraced, setups: list[float]) -> dict:
    """Set-up, the op's rate and median over the whole phase, and both at the calm host's pace.

    The figures over all ops are what the clock said.  They move with the
    neighbours of this shared host, which runs the same op at 1x to 2x its
    undisturbed time for seconds or for an hour (``pace.py``): ten runs of one
    commit spread past any bound worth having.  The ``calm_`` figures divide
    each block's rate (ops over the sum of their latencies) and median latency
    by the pace measured at the block's two ends and take the median over the
    blocks; ``setup_s`` is scaled the same way.  ``durable_writes`` takes its
    blocks from the ones it ran without the device's sync
    (``workloads.SyncWait``).
    """
    ops = untraced.series["op"]
    blocks = untraced.paced_blocks
    blocks = [block for block in blocks if block[0] == "op_unsynced"] or blocks
    rates = [len(part) / sum(part) * pace_ for _, part, pace_ in blocks]
    medians = [statistics.median(part) / pace_ for _, part, pace_ in blocks]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (len(ops) / untraced.wall, len(ops)),
        "op_p50_ms": (statistics.median(ops) * 1e3, len(ops)),
        "calm_ops_per_s": (statistics.median(rates), len(blocks)),
        "calm_op_p50_ms": (statistics.median(medians) * 1e3, len(blocks)),
        "host_pace": (statistics.median(pace_ for _, _, pace_ in untraced.paced_blocks),
                      len(untraced.paced_blocks)),
    }


def diagnostics(untraced, workload) -> dict:
    """What the untraced phase shows beyond the metrics every workload has."""
    series = untraced.series
    metrics = {}
    for metric, name, q in (("op_p95_ms", "op", 95), ("op_p99_ms", "op", 99),
                            ("first_row_p50_ms", "first_row", 50),
                            ("write_lag_p95_ms", "write_lag", 95)):
        if len(series[name]) >= MIN_SAMPLES[q]:
            metrics[metric] = (percentile(series[name], q) * 1e3, len(series[name]))
    if series["fsync_wait"]:
        metrics["storage.fsync_wait_ms"] = (
            statistics.median(series["fsync_wait"]) * 1e3, len(series["fsync_wait"]))
    for name, values in series.items():
        if name.startswith("query."):
            metrics[name + "_p50_ms"] = (statistics.median(values) * 1e3, len(values))
    cache = workload.connection.cache_info()  # this set-up's connection: warm-up + run
    if cache["hits"] + cache["misses"]:
        metrics["service.plan_cache_hit_ratio"] = (
            cache["hits"] / (cache["hits"] + cache["misses"]), cache["hits"] + cache["misses"])
    info = workload.setup_info
    metrics["workloads.generate_s"] = (info["generate_s"], 1)
    if "ingest_s" in info:
        records = workload.ingest_report.records
        metrics["workloads.ingest_s"] = (info["ingest_s"], 1)
        metrics["workloads.ingest_records_per_s"] = (records / info["ingest_s"], records)
    return metrics


def per_layer(traced, untraced) -> dict:
    """Layer medians from the spans, counts from the first traced block."""
    per_op: dict[str, list[float]] = {}
    per_call: dict[str, list[float]] = {}
    for tracer in untraced.tracers + traced.tracers:  # the writer's, then the client's
        by_op, by_call = self_times(tracer)
        for name, sums in by_op.items():
            per_op.setdefault(name, []).extend(sums.values())
        for name, calls in by_call.items():
            per_call.setdefault(name, []).extend(calls)
    metrics = {}
    for metric, (span, aggregate) in SPAN_METRICS.items():
        values = (per_op if aggregate == "op" else per_call).get(span)
        if values:
            metrics[metric] = (statistics.median(values) * scale_of(metric), len(values))
    overhead = traced.series["api.overhead"]
    if overhead:
        metrics["api.overhead_ms"] = (statistics.median(overhead) * 1e3, len(overhead))
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced.series["op"]) / statistics.median(untraced.series["op"]),
        len(traced.series["op"]),
    )

    # The open-loop writer's counts are in the first recorder.
    counts = defaultdict(float, {**untraced.counts, **traced.counts})
    queries = int(counts.get("queries", 0))
    if queries:
        per_query = {
            "transform.steps_per_query": "transform_steps",
            "collection.scans_per_query": "scans",
            "collection.index_probes_per_query": "index_probes",
            "collection.pages_skipped_per_query": "pages_skipped",
            "combination.intermediate_tuples_per_query": "intermediate_tuples",
            "combination.comparisons_per_query": "comparisons",
            "combination.reduced_tuples_per_query": "reduced_tuples",
            "combination.shards_scanned_per_query": "shards_scanned",
            "combination.bytes_shipped_per_query": "bytes_shipped",
            "construction.rows_per_query": "rows",
            "storage.pages_read_per_query": "pages_read",
        }
        for metric, counter in per_query.items():
            metrics[metric] = (counts[counter] / queries, queries)
        metrics["collection.elements_read_per_row"] = (
            statistics.median(traced.series["elements_read_per_row"]), queries)
        metrics["combination.peak_tuples"] = (counts["peak_tuples"], queries)
        metrics["combination.qerror_max"] = (counts["qerror_max"], queries)
        metrics["service.reoptimizations"] = (counts["reoptimizations"], queries)
        page_reads = counts["page_hits"] + counts["page_misses"]
        if page_reads:
            metrics["storage.buffer_hit_ratio"] = (counts["page_hits"] / page_reads, int(page_reads))
    commits = int(counts.get("commits", 0))
    if commits:
        for metric, counter in {
            "storage.wal_records_per_commit": "wal_records",
            "storage.wal_bytes_per_commit": "wal_bytes",
            "storage.wal_flushes_per_commit": "wal_flushes",
            "relational.index_maintenance_ops_per_commit": "index_maintenance_ops",
        }.items():
            metrics[metric] = (counts[counter] / commits, commits)
    if queries or commits:
        metrics["relational.histogram_rebuilds"] = (counts["histogram_rebuilds"], queries + commits)
    return metrics


def emit(name: str, result: dict, spec: dict, trace: bool, full: bool) -> None:
    """Print every metric by name with its unit and sample count; JSON last."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = result["info"]
    print(f"== {name}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"{info['timed_ops']} timed in {info['timed_seconds']:.2f} s ({info['blocks']} blocks)")
    for key, metric in result["metrics"].items():
        print(f"{key:<46} {metric['value']:>16.6g} {units[key]:<6} n={metric['samples']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if absent:
        print("not produced by this workload:", " ".join(absent))
    for key, value in result["info"].get("ingest_report", {}).items():
        print(f"{'ingest.' + key:<46} {value:>16}")
    for error in result["errors"]:
        print("failed:", error)
    if full:
        print(json.dumps(result))
        return
    # The driver wants a number for every metric of the group: a metric this
    # workload does not produce (listed above, absent from ``--out`` files) is 0 here.
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"].get(m["name"], {"value": 0.0})["value"],
                        "unit": m["unit"]}
            for m in wanted
        },
    }))


# ---------------------------------------------------------------- all workloads


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh subprocess, untraced and traced; save and summarise."""
    names = [w["name"] for w in spec["workloads"]]
    traces = [0, 1] if args.trace is None else [args.trace]
    runs = []
    for repeat in range(args.repeat):
        run: dict = {}
        for name in names:
            started = time.time()
            merged: dict = {"metrics": {}, "correct": True, "attempted": 0, "failed": 0,
                            "errors": [], "info": {}}
            for trace in traces:
                command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(trace), "--full"] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True, timeout=900)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    return done.returncode
                lines = done.stdout.strip().splitlines()
                sys.stdout.write("\n".join(lines[:-1]) + "\n")
                result = json.loads(lines[-1])
                for key, metric in result["metrics"].items():
                    # The untraced run came first: its numbers are not overwritten.
                    merged["metrics"].setdefault(key, metric)
                merged["correct"] = merged["correct"] and result["correct"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                merged["errors"] += result["errors"]
                merged["info"]["traced" if trace else "untraced"] = result["info"]
            # Failed replays and traced ops count too, not only the untraced run's.
            merged["metrics"]["failed_op_share"] = {
                "value": merged["failed"] / merged["attempted"], "samples": merged["attempted"]}
            merged["wall_s"] = time.time() - started
            run[name] = merged
        runs.append(run)
        print(f"-- run {repeat + 1}/{args.repeat} done")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    document = {
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "base_commit": git_commit(),  # the benchmark itself is the uncommitted change on top
            "seed": args.seed,
            "seconds": args.seconds,
            "setup_repeats": SETUP_REPEATS,
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "units": units,
        "runs": runs,
    }
    if args.repeat > 1:
        document["noise"] = noise_band(runs)
        for name, band in document["noise"].items():
            for metric in (m["name"] for m in spec["end_to_end"]):
                values = band[metric]
                print(f"noise {name:<22} {metric:<12} min {values['min']:.6g} median "
                      f"{values['median']:.6g} max {values['max']:.6g} spread {values['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    ok = all(result["correct"] for run in runs for result in run.values())
    return 0 if ok else 1


def noise_band(runs: list[dict]) -> dict:
    """min/median/max over the runs of each metric every run has, and its spread:
    the distance between the quartiles as a share of the median."""
    band: dict = {}
    for name in runs[0]:
        band[name] = {}
        shared = set.intersection(*(set(run[name]["metrics"]) for run in runs))
        for metric in sorted(shared):
            values = [run[name]["metrics"][metric]["value"] for run in runs]
            middle = statistics.median(values)
            low, _, high = statistics.quantiles(values, n=4)
            band[name][metric] = {"min": min(values), "median": middle, "max": max(values),
                                  "spread": (high - low) / middle if middle else 0.0}
    return band


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1982)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None)
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    parser.add_argument("--repeat", type=int, default=1, help="repeat the whole set N times")
    parser.add_argument("--smoke", action="store_true", help="tiny data and one set-up (for tests)")
    parser.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Defaults only: nothing in the environment may pick another code path.
    for variable in ("REPRO_SHARD_BACKEND", "BENCH_SMOKE"):
        os.environ.pop(variable, None)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    emit(args.workload, result, spec, bool(args.trace), args.full)
    return 0


if __name__ == "__main__":
    sys.exit(main())
