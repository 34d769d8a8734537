"""What one benchmark run measures, and the per-run correctness gate.

Everything here drives the program through its public entry points:
``AnalysisSession(AnalyzerConfig()).run(<pcap>)`` for the offline
workloads, and a paced :class:`~repro.dataplane.SimulatedPacketSocket`
feeding :class:`~repro.service.runner.ZoomMonitorService` for live-replay.
Results are checked on every pass: frame conservation, and an output digest
equal to the one recorded with the cached workload.
"""

from __future__ import annotations

import bisect
import collections
import hashlib
import ipaddress
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.dataplane import SimulatedPacketSocket
from workloads import LIVE_RATE, STATE_DIR

#: Width of the live service's tumbling windows, and of the offline
#: windows whose completion lag the offline workloads report.
WINDOW_SECONDS = 1.0
#: Ring size of the simulated socket; a larger backlog of due frames drops.
LIVE_RING = 8192
#: Frames the simulated socket hands over per ingest poll.
LIVE_CHUNK = 32
#: Service ingest poll cadence (s).  The daemon's 1-s default suits
#: directory tailing; a live socket is polled every 2 ms.
LIVE_POLL_INTERVAL = 0.002
#: Width of the live store's time partitions (s).  A replay covers a few
#: minutes of capture rather than the hours a deployed daemon runs, so the
#: default hour-wide partition would hold everything in one segment; at 60 s
#: the store has the many-partition layout a long run has, and a query scans
#: the partitions its range overlaps rather than the whole store.
LIVE_PARTITION_SECONDS = 60.0
#: Records an offline workload's store is backfilled to (see
#: :func:`backfill_store`).
STORE_MIN_RECORDS = 400
#: How many store queries one run makes, and how many rounds of them the
#: live workload times after its replay.
QUERY_COUNT = 120
QUERY_ROUNDS = 5
#: Analyzer or service builds timed per offline pass, and per live run on
#: each side of the replay; setup_s is their median.  Builds are spread over the run so
#: a few busy seconds on a shared host cannot set the median.
SETUP_REPEATS = 31
LIVE_SETUP_REPEATS = 13


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(int(round(q / 100.0 * len(ordered) + 0.5)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


# ------------------------------------------------------------------- digests


def _ip(value) -> str:
    return str(ipaddress.ip_address(value))


def _key(key) -> str:
    five_tuple, ssrc = key
    src, sport, dst, dport, proto = five_tuple
    return f"{_ip(src)}:{sport}>{_ip(dst)}:{dport}/{proto}#{ssrc}"


def _tables(result) -> dict:
    return {
        "table2": sorted(
            [str(value), round(pkts, 9), round(byts, 9)]
            for value, pkts, byts in result.encap_share_table()
        ),
        "table3": [
            [media, pt, round(pkts, 9), round(byts, 9)]
            for media, pt, pkts, byts in sorted(result.payload_type_table())
        ],
    }


def _meetings(meetings) -> list:
    return sorted(
        [
            sorted(_key(key) for key in meeting.stream_keys),
            sorted(_ip(ip) for ip in meeting.client_ips),
            round(meeting.first_time, 6),
            round(meeting.last_time, 6),
        ]
        for meeting in meetings
    )


def offline_summary(result) -> dict:
    """Streams, meetings, Table 2/3 rows and per-stream frame counts."""
    streams = []
    for stream in result.media_streams():
        metrics = result.metrics_for(stream.key)
        frames = metrics.assembler.completed_count if metrics else 0
        streams.append(
            [_key(stream.key), stream.protocol, stream.media_type,
             stream.packets, stream.bytes, frames]
        )
    return {
        "streams": sorted(streams),
        "meetings": _meetings(result.meetings),
        **_tables(result),
    }


def live_summary(service, windows: list) -> dict:
    """Offline summary fields from a drained service, plus window totals."""
    rolling = service.rolling
    streams = sorted(
        [_key(s.key), s.protocol, s.media_type, s.packets, s.bytes, s.frames_completed]
        for s in rolling.finalized
    )
    return {
        "streams": streams,
        "meetings": _meetings(rolling.result.meetings),
        **_tables(rolling.result),
        "windows": sorted(windows),
    }


def digest(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -------------------------------------------------------------- conservation


def _counters(telemetry) -> dict:
    return dict(telemetry.snapshot().counters)


def pipeline_accounted(counters: dict) -> int:
    """Frames the analyzer booked: every stage stop plus completions.

    The batch prefilter books each frame it drops as a classify stop as
    well (scalar equivalence), so prefilter drops are inside the stops.
    """
    stops = sum(v for k, v in counters.items() if k.startswith("pipeline.stop."))
    return stops + counters.get("pipeline.completed", 0)


def offline_conservation(counters: dict, offered: int, result) -> list[str]:
    """offered = prefilter drops + other stage stops + completed."""
    errors = []
    accounted = pipeline_accounted(counters)
    if accounted != offered:
        errors.append(f"conservation: offered {offered} != accounted {accounted}")
    if result.packets_total != offered:
        errors.append(f"conservation: packets_total {result.packets_total} != {offered}")
    if counters.get("prefilter.dropped", 0) > counters.get("pipeline.stop.classify", 0):
        errors.append("conservation: prefilter drops exceed classify stops")
    return errors


# ----------------------------------------------------------------- offline


@dataclass
class OfflinePass:
    wall: float
    finished: float
    cpu: float
    frames: int
    batch_marks: list  # (first frame index, read time) per batch
    counters: dict
    digest: str
    errors: list[str]
    result: object = None


def _timed_source(path: Path, marks: list):
    """A pcap source that notes when each batch is read.

    One clock read per batch (4096 frames) keeps the cost out of the numbers.
    """
    from repro.net.source import PcapFileSource
    from time import perf_counter

    class TimedPcapSource(PcapFileSource):
        def frame_batches(self):
            first = 0
            for batch in super().frame_batches():
                marks.append((first, perf_counter()))
                first += len(batch)
                yield batch

    return TimedPcapSource(path)


def offline_pass(path: Path, frames: int, expected_digest: str | None, config=None):
    from repro.core import AnalysisSession, AnalyzerConfig

    marks: list = []
    source = _timed_source(path, marks)
    session = AnalysisSession(config if config is not None else AnalyzerConfig())
    cpu0 = time.process_time()
    start = time.perf_counter()
    result = session.run(source)
    finished = time.perf_counter()
    wall = finished - start
    cpu = time.process_time() - cpu0
    source.close()
    counters = _counters(result.telemetry)
    errors = []
    if result.telemetry.enabled:
        errors = offline_conservation(counters, frames, result)
    elif result.packets_total != frames:
        errors.append(f"conservation: packets_total {result.packets_total} != {frames}")
    summary_digest = digest(offline_summary(result))
    if expected_digest is not None and summary_digest != expected_digest:
        errors.append("digest: output differs from the cached reference")
    return OfflinePass(
        wall, finished, cpu, frames, marks, counters, summary_digest, errors, result
    )


def window_closers(path: Path, offset: float = 0.0, limit: int | None = None) -> dict:
    """For every 1-s capture window holding a frame: ``(closer, frames)``,
    the index of the frame that closes it (the first frame at or past the
    window's end plus ``offset``) and how many frames the window holds.
    Windows no frame closes are left out.  Streams the capture, so memory
    stays bounded by the number of windows.
    """
    from repro.net.pcap import PcapReader

    closers: dict[int, tuple[int, int]] = {}
    sizes: collections.Counter = collections.Counter()
    waiting: collections.deque = collections.deque()  # (window, threshold)
    index = 0
    with PcapReader(path) as reader:
        for batch in reader.read_batches():
            for timestamp in batch.timestamps:
                if limit is not None and index >= limit:
                    return closers
                while waiting and waiting[0][1] <= timestamp:
                    window = waiting.popleft()[0]
                    closers[window] = (index, sizes.pop(window))
                window = int(timestamp // WINDOW_SECONDS)
                if window not in sizes:
                    waiting.append((window, (window + 1) * WINDOW_SECONDS + offset))
                sizes[window] += 1
                index += 1
    return closers


def offline_window_lags(closers: dict, run: "OfflinePass") -> list[tuple[float, int]]:
    """Per 1-s capture window: ``(lag, frames)``, the time from reading the
    batch that holds the window's closing frame until the window's numbers
    reach the caller, and the frames the window holds.

    Offline input is read in a closed loop, so a frame is due when it is
    read; ``AnalysisSession.run`` hands its result over only when it
    returns, which is when every window becomes visible.
    """
    starts = [mark[0] for mark in run.batch_marks]
    return [
        (run.finished - run.batch_marks[bisect.bisect_right(starts, closer) - 1][1], frames)
        for closer, frames in closers.values()
    ]


def weighted_percentile(samples: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of ``(value, weight)`` samples."""
    ordered = sorted(samples)
    total = sum(weight for _, weight in ordered)
    rank = q / 100.0 * total
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]


def offline_setup_samples() -> list[float]:
    """Times to build the offline analysis before any frame is read:
    the session, the analyzer with its plugin registry, and the compiled
    batch prefilter."""
    from repro.core import AnalysisSession, AnalyzerConfig, ZoomAnalyzer
    from repro.net.batch import BatchPrefilter

    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        session = AnalysisSession(AnalyzerConfig())
        analyzer = ZoomAnalyzer(session.config)
        BatchPrefilter.from_plugins(analyzer.plugins)
        samples.append(time.perf_counter() - start)
    return samples


# ------------------------------------------------------------------- store


def backfill_store(result, directory: Path) -> None:
    """Backfill a result's stream and meeting records into a fresh store.

    The records are written again and again, as several taps seeing the
    same traffic would write them, until the store holds
    :data:`STORE_MIN_RECORDS` in one segment.  A query scans whole segments,
    so its cost grows with the records in them; a fixed store size keeps
    the query metrics from hinging on how many streams one seed's meetings
    had.
    """
    from repro.store.records import records_from_result
    from repro.store.store import MetricsStore

    records = list(records_from_result(result))
    copies = -(-STORE_MIN_RECORDS // len(records))
    with MetricsStore(directory) as store:
        for _ in range(copies):
            for record in records:
                store.append(dict(record))


def query_mix(store, seed: int) -> list:
    """A fixed, seeded mix of store queries over what the store holds.

    A quarter each: time ranges, single meetings, media-filtered queries
    (for media the store holds) and window re-aggregations.  A store without
    windows (an offline backfill) gets time ranges in place of the
    re-aggregations, which would have nothing to merge.
    """
    from repro.store.query import StoreQuery, run_query

    everything = run_query(
        store, StoreQuery(kinds=("window", "stream", "meeting"), use_index=False)
    ).records
    kinds = tuple(sorted({record["kind"] for record in everything})) or ("window",)
    starts = sorted(float(r["start"]) for r in everything) or [0.0]
    meetings = sorted(r["meeting_id"] for r in everything if r["kind"] == "meeting")
    media = sorted(
        {r["media"] for r in everything if r["kind"] == "stream"}
        | {m["media"] for r in everything if r["kind"] == "window" for m in r["media"]}
    ) or ["video"]
    rng = random.Random(seed * 31 + 7)

    def span() -> tuple[float, float]:
        # Centred on a stored record, so ranges hit data even when the
        # store's records cluster in a few bursts hours apart.
        width = rng.choice((5.0, 10.0, 30.0))
        start = starts[rng.randrange(len(starts))] - rng.uniform(0.0, width)
        return start, start + width

    queries = []
    for number in range(QUERY_COUNT):
        shape = number % 4
        start, end = span()
        if shape == 1 and meetings:
            meeting = meetings[rng.randrange(len(meetings))]
            queries.append(StoreQuery(kinds=kinds, meeting_id=meeting))
        elif shape == 2:
            # The media filter applies to stream and window records only.
            queries.append(
                StoreQuery(start=start, end=end, kinds=("stream", "window"),
                           media=rng.choice(media))
            )
        elif shape == 3 and "window" in kinds:
            queries.append(
                StoreQuery(start=start, end=end, kinds=("window",),
                           reaggregate_seconds=rng.choice((5.0, 10.0)))
            )
        else:
            queries.append(StoreQuery(start=start, end=end, kinds=kinds))
    return queries


class QueryBench:
    """The query mix over one store, timed over several rounds.

    A query's latency is the fastest of its rounds: a slower round is
    interference from elsewhere on the host, not the query.  Spreading the
    rounds over a run (the offline workloads run one after every pass)
    keeps a few seconds of a busy host from setting every number.
    """

    def __init__(self, directory: Path, seed: int) -> None:
        from repro.store.store import MetricsStore

        self.store = MetricsStore(directory)
        self.queries = query_mix(self.store, seed)
        self.latencies = [float("inf")] * len(self.queries)
        self.scanned = 0
        self.skipped = 0
        self.errors: list[str] = []

    def round(self) -> None:
        from repro.store.query import run_query

        for number, query in enumerate(self.queries):
            start = time.perf_counter()
            run_query(self.store, query)
            self.latencies[number] = min(self.latencies[number], time.perf_counter() - start)

    def check(self) -> None:
        """Every indexed result must equal the unindexed full scan."""
        from repro.store.query import run_query

        for query in self.queries:
            result = run_query(self.store, query)
            self.scanned += result.segments_scanned
            self.skipped += result.segments_skipped
            full = run_query(self.store, replace(query, use_index=False))
            if full.records != result.records:
                self.errors.append(f"query: indexed result differs from full scan: {query}")

    def close(self) -> None:
        self.store.close()


def work_dir(prefix: str) -> Path:
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=STATE_DIR))


# -------------------------------------------------------------------- live


def _replay_frames(path: Path, count: int):
    """The first ``count`` frames of a capture as ``(timestamp, bytes)``."""
    from repro.net.pcap import PcapReader

    emitted = 0
    with PcapReader(path) as reader:
        for batch in reader.read_batches():
            for raw, timestamp in batch.iter_frames():
                if emitted >= count:
                    return
                emitted += 1
                yield timestamp, bytes(raw)


class PacedSocket(SimulatedPacketSocket):
    """A simulated packet socket fed on an open-loop schedule: frame ``i`` of
    the capture is due at ``t0 + i / rate``, whatever the service is doing.

    Frames are paced by index, not by capture timestamp, and handed over in
    fixed chunks of :data:`LIVE_CHUNK` consecutive frames, one chunk per
    ingest poll, once the chunk's last frame is due.  Each chunk goes through
    ``inject`` -- the attached cBPF program filters it -- when it is handed
    over.  The service recompiles the program at poll boundaries, so one
    chunk per poll makes the program that filters every frame independent of
    thread timing, and the output digest repeatable.  A backlog of due frames
    beyond the ring's capacity is dropped and counted as ring drops.  An
    infinite rate makes every frame due at once (the reference replay).
    """

    def __init__(self, path: Path, count: int, rate: float) -> None:
        super().__init__((), ring_capacity=LIVE_RING)
        self.mark_eof()  # frames arrive by schedule, never by pull
        self._frames = _replay_frames(path, count)
        self.count = count
        self.rate = rate
        self.offered = 0
        self.ring_drops = 0
        self.t0 = 0.0
        self.max_behind = 0.0
        self._handed_over = False

    def start(self) -> None:
        self.t0 = time.perf_counter()

    def due(self, index: int) -> float:
        return self.t0 + index / self.rate

    def recv_batch(self, max_frames: int) -> list[tuple[float, bytes]]:
        if self._handed_over or self.offered >= self.count:
            return []
        now = time.perf_counter()
        while (
            self.rate != float("inf")
            and self.offered < self.count
            and self.due(self.offered + LIVE_RING) <= now
        ):
            next(self._frames)  # the ring overflowed while this frame waited
            self.offered += 1
            self.ring_drops += 1
        end = min(self.offered + LIVE_CHUNK, self.count)
        if self.due(end - 1) > now:
            return []
        self.max_behind = max(self.max_behind, now - self.due(end - 1))
        while self.offered < end:
            self.offered += 1
            self.inject(*next(self._frames))
        self._handed_over = True
        return super().recv_batch(max_frames)

    def stats(self) -> tuple[int, int]:
        self._handed_over = False  # read once at the end of every poll
        return self.tp_packets + self.ring_drops, self.tp_drops + self.ring_drops

    @property
    def exhausted(self) -> bool:
        return self.offered >= self.count and not self._handed_over


def live_config(store_dir: Path, queue_max_batches: int | None = None):
    from repro.core.config import AnalyzerConfig, ProtocolConfig, ServiceConfig, StoreConfig

    config = ServiceConfig(
        analyzer=AnalyzerConfig(protocols=ProtocolConfig(protocols=("zoom", "rtp"))),
        window_seconds=WINDOW_SECONDS,
        poll_interval=LIVE_POLL_INTERVAL,
        store_dir=str(store_dir),
        store=StoreConfig(partition_seconds=LIVE_PARTITION_SECONDS),
    )
    if queue_max_batches is not None:
        config = config.replace(queue_max_batches=queue_max_batches)
    return config


@dataclass
class LiveRun:
    frames: int
    started: float
    wall: float
    cpu: float
    window_lags: list[float]
    drops: dict
    counters: dict
    maxima: dict
    digest: str
    windows_emitted: int
    windows_final: int
    max_behind: float
    errors: list[str]


def live_replay(path: Path, frames: int, *, paced: bool, store_dir: Path) -> LiveRun:
    """Replay the first ``frames`` frames of ``path`` through the service.

    ``paced=False`` replays as fast as the service polls (the reference run
    that records the expected digest); its queue is made deep enough that
    nothing is shed.
    """
    from repro.service.runner import ZoomMonitorService

    socket = PacedSocket(path, frames, LIVE_RATE if paced else float("inf"))
    config = live_config(store_dir, None if paced else 1 << 20)
    service = ZoomMonitorService(None, config, packet_socket=socket)
    closed: list = []
    totals: list = []

    def on_window(window) -> None:
        closed.append((window.index, time.perf_counter()))
        totals.append(
            [window.index, window.packets_total, window.bytes_total, window.zoom_packets]
        )

    service.aggregator.add_callback(on_window)
    cpu0 = time.process_time()
    socket.start()
    report = service.run()
    wall = time.perf_counter() - socket.t0
    cpu = time.process_time() - cpu0
    snapshot = service.telemetry.snapshot()
    counters = dict(snapshot.counters)
    lateness = config.watermark_lateness
    lags = []
    windows_final = 0
    closers = window_closers(path, lateness, frames)
    for index, seen in closed:
        if index not in closers:
            windows_final += 1  # closed by the final flush
            continue
        lags.append(seen - socket.due(closers[index][0]))
    tailer = service.tailer
    drops = {
        "ring": report.kernel_drops,
        "service": report.packets_dropped,
        "late": service.aggregator.late_events,
    }
    errors = []
    if socket.offered != frames:
        errors.append(f"replay offered {socket.offered} of {frames} frames")
    accounted = (
        socket.ring_drops
        + socket.filtered
        + socket.tp_drops
        + tailer.frames_filtered
        + report.packets_dropped
        + pipeline_accounted(counters)
    )
    if accounted != frames:
        errors.append(f"conservation: offered {frames} != accounted {accounted}")
    if report.packets_processed != pipeline_accounted(counters):
        errors.append("conservation: service processed != pipeline accounted")
    return LiveRun(
        frames=frames,
        started=socket.t0,
        wall=wall,
        cpu=cpu,
        window_lags=lags,
        drops=drops,
        counters=counters,
        maxima=dict(snapshot.maxima),
        digest=digest(live_summary(service, totals)),
        windows_emitted=report.windows_emitted,
        windows_final=windows_final,
        max_behind=socket.max_behind,
        errors=errors,
    )


def live_setup_samples() -> list[float]:
    """Times to build the service before the first frame is read:
    rolling analyzer, plugin registry, cBPF compile and attach, store open
    and QoE tracker."""
    from repro.service.runner import ZoomMonitorService

    samples = []
    for _ in range(LIVE_SETUP_REPEATS):
        store_dir = work_dir("setup-")
        socket = SimulatedPacketSocket(iter(()), ring_capacity=LIVE_RING)
        start = time.perf_counter()
        service = ZoomMonitorService(None, live_config(store_dir), packet_socket=socket)
        samples.append(time.perf_counter() - start)
        service.store_sink.store.close()
        shutil.rmtree(store_dir, ignore_errors=True)
    return samples


# --------------------------------------------------------------- references


def reference_digests(workload: str, directory: Path, meta: dict, sizes: list[int]) -> dict:
    """Digests the per-run gate compares against, recorded at cache build.

    Offline workloads record one analysis of the capture; border-mix must
    also match the analysis of its Zoom frames alone.  Live-replay records an
    unpaced service replay for each replay size (the paced socket hands over
    the same chunks either way, see :class:`PacedSocket`).
    """
    capture = directory / "capture.pcap"
    if workload != "live-replay":
        run = offline_pass(capture, meta["frames"], None)
        if run.errors:
            raise RuntimeError(f"reference run failed: {run.errors}")
        if workload == "border-mix":
            alone = offline_pass(directory / "zoom-only.pcap", meta["zoom_frames"], None)
            if alone.digest != run.digest:
                raise RuntimeError("border-mix: output differs from its Zoom frames alone")
        return {"0": run.digest}
    out = {}
    for size in sizes:
        store_dir = work_dir("ref-")
        try:
            run = live_replay(capture, size, paced=False, store_dir=store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        if run.errors or sum(run.drops.values()):
            raise RuntimeError(f"live reference run failed: {run.errors} {run.drops}")
        out[str(size)] = run.digest
    return out
