"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload campus-zoom --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and the
program's shipped defaults.  ``--trace 1`` measures the per-layer metrics:
an untraced and a traced phase of the same workload, spans recorded around
calls into each layer (see ``spans.py``).  Either way every pass is checked
(frame conservation and output digest), the full record with host facts
and raw samples is written under ``.perfbench/results/``, and the last line
of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

The workload is generated from ``--seed`` by ``workloads.py`` in a separate
process and cached, so generation never falls inside a measured region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (benchmark-local)
from workloads import BENCH_DIR, ROOT, SRC, STATE_DIR, WORKLOADS  # noqa: E402

RESULTS_DIR = STATE_DIR / "results"
TRACES_DIR = STATE_DIR / "traces"

END_TO_END_UNITS = {
    "analyze_pps": "frames/s",
    "cpu_us_per_frame": "us",
    "window_lag_p50_ms": "ms",
    "window_lag_p90_ms": "ms",
    "delivered_frac": "ratio",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

STAGES = ("decode", "classify", "demux", "assemble", "metrics")
#: Telemetry names of the stage stop counters (the demux stage is named
#: ``zoom-demux`` inside the program).
STOP_COUNTERS = {stage: f"pipeline.stop.{stage}" for stage in STAGES}
STOP_COUNTERS["demux"] = "pipeline.stop.zoom-demux"
#: Span-name prefixes whose self time is reported; ``pipeline`` is the
#: analyzer's own per-batch and per-packet glue between the stages.
LAYERS = ("net", "dataplane", "pipeline", "stages", "protocols", "rolling",
          "windows", "qoe", "store", "query")


def per_layer_units() -> dict[str, str]:
    units = {
        "net.read_us_per_frame": "us",
        "net.prefilter_us_per_frame": "us",
        "net.prefilter_pass_ratio": "ratio",
        "dataplane.raw_us_per_frame": "us",
        "dataplane.cbpf_us_per_frame": "us",
        "dataplane.recompiles": "count",
    }
    for stage in STAGES:
        units[f"stages.{stage}.us_per_packet"] = "us"
        units[f"stages.{stage}.stops"] = "count"
    units.update({
        "protocols.claimed.zoom": "count",
        "protocols.claimed.rtp": "count",
        "protocols.conflict_probes": "count",
        "rolling.sweep_us": "us",
        "rolling.evicted": "count",
        "rolling.live_streams_max": "count",
        "service.queue_wait_ms_p50": "ms",
        "service.queue_wait_ms_p90": "ms",
        "service.analysis_busy_frac": "ratio",
        "service.windows_emitted": "count",
        "service.late_events": "count",
        "qoe.us_per_event": "us",
        "qoe.transitions": "count",
        "store.append_us": "us",
        "store.seal_ms": "ms",
        "store.records": "count",
        "store.bytes": "bytes",
        "store.segments_skipped_ratio": "ratio",
        "store.query_p50_ms": "ms",
        "store.query_p90_ms": "ms",
    })
    for layer in LAYERS:
        units[f"selftime.{layer}.us_per_frame"] = "us"
    units.update({
        "sharded.speedup": "x",
        "telemetry.overhead_frac": "ratio",
        "trace.overhead_frac": "ratio",
        "simulation.gen_pps": "frames/s",
    })
    return units


# ----------------------------------------------------------------- helpers


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Hash of the program sources, the commit identity when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(workload: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "offered_rate": workloads.LIVE_RATE if workload == "live-replay" else None,
        "loop": "open" if workload == "live-replay" else "closed",
        "link": "none: frames never cross a real link" if workload == "live-replay"
        else "none: offline capture file",
        "kernel_filter": "cBPF reference interpreter in Python stands in for the kernel"
        if workload == "live-replay" else None,
    }


def build_cache(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate the workload in its own process, so this one stays clean."""
    command = [
        sys.executable, str(BENCH_DIR / "workloads.py"), "build",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.DEVNULL, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: building workload {workload} failed")
    meta = workloads.load_meta(workload, seed)
    if meta is None:
        raise SystemExit("perfbench: workload cache missing after build")
    return meta


# ---------------------------------------------------------------- offline


def offline_passes(workload: str, seed: int, seconds: float, meta: dict,
                   setup: list | None = None):
    """Repeat the offline pass until ``seconds`` have been measured.

    The first pass's result is backfilled into a store; one round of the
    store query mix, and the analyzer builds timed into ``setup`` when given,
    follow every pass.  Returns the passes, the query bench (already checked
    against full scans) and the store's size in bytes.
    """
    from measure import QueryBench, backfill_store, offline_pass, offline_setup_samples
    from measure import work_dir

    capture = workloads.cache_dir(workload, seed) / "capture.pcap"
    expected = meta["references"]["0"]
    store_dir = work_dir("store-")
    passes = []
    queries = None
    try:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            run = offline_pass(capture, meta["frames"], expected)
            if queries is None:
                backfill_store(run.result, store_dir)
                queries = QueryBench(store_dir, seed)
            run.result = None
            queries.round()
            if setup is not None:
                setup.extend(offline_setup_samples())
            passes.append(run)
        queries.check()
        queries.close()
        store_bytes = _store_bytes(store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return passes, queries, store_bytes


def _store_bytes(directory: Path) -> int:
    from repro.store.store import MetricsStore

    with MetricsStore(directory) as store:
        return store.total_bytes()


def offline_end_to_end(workload: str, seed: int, seconds: float, meta: dict) -> dict:
    from measure import offline_window_lags, percentile, weighted_percentile
    from measure import window_closers

    closers = window_closers(workloads.cache_dir(workload, seed) / "capture.pcap")
    setup: list[float] = []
    passes, queries, _ = offline_passes(workload, seed, seconds, meta, setup)
    frames = sum(run.frames for run in passes)
    # Windows weigh by the frames they hold, so a capture's sparse stretches
    # (many windows, few frames) do not set the typical lag.
    lags = [lag for run in passes for lag in offline_window_lags(closers, run)]
    errors = [error for run in passes for error in run.errors] + queries.errors
    metrics = {
        "analyze_pps": frames / sum(run.wall for run in passes),
        "cpu_us_per_frame": sum(run.cpu for run in passes) / frames * 1e6,
        "window_lag_p50_ms": weighted_percentile(lags, 50) * 1e3,
        "window_lag_p90_ms": weighted_percentile(lags, 90) * 1e3,
        "delivered_frac": 1.0,
        "query_p50_ms": percentile(queries.latencies, 50) * 1e3,
        "query_p90_ms": percentile(queries.latencies, 90) * 1e3,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "pass_wall_s": [run.wall for run in passes],
        "pass_cpu_s": [run.cpu for run in passes],
        "pass_frames": [run.frames for run in passes],
        "window_lag_s_frames": lags,
        "query_s": queries.latencies,
        "setup_s": setup,
        "digests": sorted({run.digest for run in passes}),
    }
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": len(passes) + len(queries.latencies),
        "failed": sum(1 for run in passes if run.errors) + len(queries.errors),
        "errors": errors,
    }


# ------------------------------------------------------------------- live


def live_queries(store_dir: Path, seed: int):
    """Rounds of the store query mix over the store a replay wrote."""
    from measure import QUERY_ROUNDS, QueryBench

    queries = QueryBench(store_dir, seed)
    for _ in range(QUERY_ROUNDS):
        queries.round()
    queries.check()
    queries.close()
    return queries


def live_end_to_end(seed: int, seconds: float, meta: dict) -> dict:
    from measure import live_replay, live_setup_samples, percentile, work_dir

    capture = workloads.cache_dir("live-replay", seed) / "capture.pcap"
    frames = workloads.live_frames_for(seconds)
    setup = live_setup_samples()
    store_dir = work_dir("live-")
    try:
        run = live_replay(capture, frames, paced=True, store_dir=store_dir)
        queries = live_queries(store_dir, seed)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    setup += live_setup_samples()
    errors = list(run.errors)
    if run.digest != meta["references"].get(str(frames)):
        errors.append("digest: output differs from the cached reference")
    if not run.window_lags:
        errors.append("no window closed before the final flush")
    lags = run.window_lags or [float("nan")]
    dropped = sum(run.drops.values())
    metrics = {
        "analyze_pps": frames / run.wall,
        "cpu_us_per_frame": run.cpu / frames * 1e6,
        "window_lag_p50_ms": percentile(lags, 50) * 1e3,
        "window_lag_p90_ms": percentile(lags, 90) * 1e3,
        "delivered_frac": 1.0 - dropped / frames,
        "query_p50_ms": percentile(queries.latencies, 50) * 1e3,
        "query_p90_ms": percentile(queries.latencies, 90) * 1e3,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "replay_wall_s": run.wall,
        "replay_cpu_s": run.cpu,
        "frames_offered": frames,
        "window_lag_s": run.window_lags,
        "windows_emitted": run.windows_emitted,
        "windows_closed_by_final_flush": run.windows_final,
        "drops": run.drops,
        "drop_frac": dropped / frames,
        "generator_max_behind_s": run.max_behind,
        "query_s": queries.latencies,
        "setup_s": setup,
        "digests": [run.digest],
    }
    failed = (1 if errors else 0) + len(queries.errors)
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": 1 + len(queries.latencies),
        "failed": failed,
        "errors": errors + queries.errors,
    }


# ------------------------------------------------------------------ traced


def _layer_metrics(tracer, counters: dict, passes: int, frames: int, extra: dict) -> dict:
    """Per-layer metrics from the traced phase's spans and counters.

    ``counters`` are one pass's program telemetry, so every count repeats
    exactly from run to run; span times cover all ``passes`` traced passes
    of ``frames`` frames in total.
    """
    from measure import percentile

    stats = tracer.stats()

    def total(name: str) -> float:
        return stats[name].total if name in stats else 0.0

    def self_time(name: str) -> float:
        return stats[name].self_total if name in stats else 0.0

    def count(name: str) -> int:
        return stats[name].count if name in stats else 0

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    prefiltered = counters.get("prefilter.passed", 0) + counters.get("prefilter.dropped", 0)
    raw_frames = counters.get("dataplane.frames", 0) * passes
    out = {
        "net.read_us_per_frame": per(self_time("net.read"), frames) * 1e6,
        "net.prefilter_us_per_frame": per(
            total("net.decode_columns") + total("net.prefilter_apply"), prefiltered * passes
        ) * 1e6,
        "net.prefilter_pass_ratio": per(counters.get("prefilter.passed", 0), prefiltered),
        "dataplane.raw_us_per_frame": per(total("dataplane.raw"), raw_frames) * 1e6
        if count("dataplane.raw") else 0.0,
        "dataplane.cbpf_us_per_frame": per(total("dataplane.cbpf"), count("dataplane.cbpf")) * 1e6,
        "dataplane.recompiles": counters.get("dataplane.recompiles", 0),
    }
    for stage in STAGES:
        name = f"stages.{stage}"
        out[f"{name}.us_per_packet"] = per(self_time(name), count(name)) * 1e6
        out[f"{name}.stops"] = counters.get(STOP_COUNTERS[stage], 0)
    out.update({
        "protocols.claimed.zoom": counters.get("protocols.claimed.zoom", 0),
        "protocols.claimed.rtp": counters.get("protocols.claimed.rtp", 0),
        "protocols.conflict_probes": count("protocols.probe") // passes,
        "rolling.sweep_us": per(total("rolling.sweep"), count("rolling.sweep")) * 1e6,
        "rolling.evicted": counters.get("pipeline.evicted.idle", 0),
        "qoe.us_per_event": per(self_time("qoe.hook"), count("qoe.hook")) * 1e6,
        "store.append_us": per(self_time("store.append"), count("store.append")) * 1e6,
        "store.seal_ms": per(total("store.seal"), count("store.seal")) * 1e3,
        "store.records": count("store.append"),
    })
    waits = tracer.queue_waits
    out["service.queue_wait_ms_p50"] = percentile(waits, 50) * 1e3 if waits else 0.0
    out["service.queue_wait_ms_p90"] = percentile(waits, 90) * 1e3 if waits else 0.0
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, span in stats.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + span.self_total
    for layer in LAYERS:
        out[f"selftime.{layer}.us_per_frame"] = per(layer_self[layer], frames) * 1e6
    out.update(extra)
    return out


def offline_traced(workload: str, seed: int, seconds: float, meta: dict) -> dict:
    """Untraced and traced halves of the offline workload.

    On campus-zoom a telemetry-off pass and a sharded pass run first, and
    their time comes out of the two halves, so a traced run takes as long
    as an untraced one.
    """
    from measure import offline_pass
    from spans import Tracer

    began = time.perf_counter()
    extra = {"telemetry.overhead_frac": 0.0, "sharded.speedup": 0.0}
    samples = {}
    extra_runs = []
    if workload == "campus-zoom":
        from repro.core import AnalyzerConfig

        capture = workloads.cache_dir(workload, seed) / "capture.pcap"
        quiet = offline_pass(capture, meta["frames"], meta["references"]["0"],
                             AnalyzerConfig(telemetry=False))
        shards = max(len(os.sched_getaffinity(0)), 1)
        sharded = offline_pass(
            capture, meta["frames"], None,
            AnalyzerConfig(shards=shards, shard_backend="process"),
        )
        extra["sharded.shards"] = shards
        samples.update(telemetry_off_wall_s=quiet.wall, sharded_wall_s=sharded.wall)
        extra_runs.append(quiet)
    half = max(seconds - (time.perf_counter() - began), 0.0) / 2
    plain, _, _ = offline_passes(workload, seed, half, meta)
    tracer = Tracer()
    with tracer:
        traced, queries, store_bytes = offline_passes(workload, seed, half, meta)
    runs = plain + traced + extra_runs
    base = sum(run.wall for run in plain) / sum(run.frames for run in plain)
    frames = sum(run.frames for run in traced)
    if extra_runs:
        extra["telemetry.overhead_frac"] = base / (quiet.wall / quiet.frames) - 1.0
        extra["sharded.speedup"] = base / (sharded.wall / sharded.frames)
    extra.update({
        "rolling.live_streams_max": 0,
        "service.analysis_busy_frac": 0.0,
        "service.windows_emitted": 0,
        "service.late_events": 0,
        "qoe.transitions": 0,
        "store.bytes": store_bytes,
        "store.segments_skipped_ratio": _skip_ratio(queries),
        **_query_metrics(queries),
        "trace.overhead_frac": sum(run.wall for run in traced) / frames / base - 1.0,
        "simulation.gen_pps": meta["gen_pps"],
    })
    samples.update(plain_wall_s=[r.wall for r in plain], traced_wall_s=[r.wall for r in traced])
    metrics = _layer_metrics(tracer, traced[-1].counters, len(traced), frames, extra)
    tracer.write(TRACES_DIR / f"{workload}-s{seed}-{int(time.time())}.spans.json.gz")
    errors = [error for run in runs for error in run.errors] + queries.errors
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": len(runs) + len(queries.latencies),
        "failed": sum(1 for run in runs if run.errors) + len(queries.errors),
        "errors": errors,
    }


def _query_metrics(queries) -> dict:
    from measure import percentile

    return {
        "store.query_p50_ms": percentile(queries.latencies, 50) * 1e3,
        "store.query_p90_ms": percentile(queries.latencies, 90) * 1e3,
    }


def _skip_ratio(queries) -> float:
    seen = queries.scanned + queries.skipped
    return queries.skipped / seen if seen else 0.0


def live_traced(seed: int, seconds: float, meta: dict) -> dict:
    from measure import live_replay, work_dir
    from spans import Tracer

    capture = workloads.cache_dir("live-replay", seed) / "capture.pcap"
    frames = workloads.live_frames_for(seconds / 2)
    expected = meta["references"].get(str(frames))
    plain_dir = work_dir("live-")
    traced_dir = work_dir("live-")
    tracer = Tracer()
    try:
        plain = live_replay(capture, frames, paced=True, store_dir=plain_dir)
        with tracer:
            traced = live_replay(capture, frames, paced=True, store_dir=traced_dir)
            queries = live_queries(traced_dir, seed)
        store_bytes = _store_bytes(traced_dir)
    finally:
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
    errors = []
    for run in (plain, traced):
        errors.extend(run.errors)
        if run.digest != expected:
            errors.append("digest: output differs from the cached reference")
    counters = traced.counters
    busy = tracer.top_level_time(
        "MainThread", traced.started, traced.started + traced.wall
    ) / traced.wall
    extra = {
        "rolling.live_streams_max": traced.maxima.get("rolling.live_streams_peak", 0),
        "service.analysis_busy_frac": busy,
        "service.windows_emitted": traced.windows_emitted,
        "service.late_events": traced.drops["late"],
        "qoe.transitions": counters.get("qoe.transitions", 0),
        "store.bytes": store_bytes,
        "store.segments_skipped_ratio": _skip_ratio(queries),
        **_query_metrics(queries),
        "trace.overhead_frac": traced.cpu / plain.cpu - 1.0,
        "telemetry.overhead_frac": 0.0,
        "sharded.speedup": 0.0,
        "simulation.gen_pps": meta["gen_pps"],
    }
    metrics = _layer_metrics(tracer, counters, 1, frames, extra)
    tracer.write(TRACES_DIR / f"live-replay-s{seed}-{int(time.time())}.spans.json.gz")
    return {
        "metrics": metrics,
        "samples": {"plain_cpu_s": plain.cpu, "traced_cpu_s": traced.cpu,
                    "frames_offered": frames},
        "attempted": 2 + len(queries.latencies),
        "failed": (1 if errors else 0) + len(queries.errors),
        "errors": errors + queries.errors,
    }


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    workloads.ensure_src_on_path()

    meta = build_cache(args.workload, args.seed, args.seconds, args.trace)
    started = time.time()
    if args.trace:
        if args.workload == "live-replay":
            outcome = live_traced(args.seed, args.seconds, meta)
        else:
            outcome = offline_traced(args.workload, args.seed, args.seconds, meta)
        units = per_layer_units()
    else:
        if args.workload == "live-replay":
            outcome = live_end_to_end(args.seed, args.seconds, meta)
        else:
            outcome = offline_end_to_end(args.workload, args.seed, args.seconds, meta)
        units = END_TO_END_UNITS

    metrics = outcome["metrics"]
    missing = [name for name in units if name not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "host": host_facts(args.workload),
        "workload_meta": {k: v for k, v in meta.items() if k != "references"},
        "correct": outcome["failed"] == 0 and not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "errors": outcome["errors"][:20],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "extra_metrics": {k: v for k, v in metrics.items() if k not in units},
        "samples": outcome["samples"],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{int(started * 1000)}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1))
    for error in record["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
