"""Bounded-memory continuous analysis for 24/7 operation.

The one-pass :class:`~repro.core.pipeline.ZoomAnalyzer` retains every stream
and meeting it ever saw — fine for a trace file, unbounded for a permanent
border tap.  :class:`RollingZoomAnalyzer` wraps it with time-based eviction:
streams idle longer than the rolling window are finalized through the public
:meth:`~repro.core.pipeline.ZoomAnalyzer.evict_stream` API, which publishes
a :class:`~repro.core.events.StreamEvicted` event this wrapper (and any
other sink — report cards, ML export) subscribes to.  Meetings whose last
stream is gone follow, and long-lived shared state (the latency matcher's
pending table, the STUN tracker) is already bounded by design.

This addresses the operational gap between the paper's 12-hour offline study
and a deployment that never stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.core.config import AnalyzerConfig
from repro.core.events import StreamEvicted
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.core.streams import MediaStream, StreamKey
from repro.net.packet import CapturedPacket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.batch import FrameBatch
    from repro.net.source import PacketSource


@dataclass(frozen=True, slots=True)
class FinalizedStream:
    """Everything retained about a stream at eviction time."""

    key: StreamKey
    ssrc: int
    media_type: int
    first_time: float
    last_time: float
    packets: int
    bytes: int
    frames_completed: int
    mean_fps: float
    jitter_ms: float
    duplicates: int
    lost: int
    stall_count: int
    protocol: str = "zoom"


class RollingZoomAnalyzer:
    """A :class:`ZoomAnalyzer` with idle-stream eviction.

    Args:
        config: An :class:`~repro.core.config.AnalyzerConfig`; the rolling
            window comes from ``rolling_idle_timeout`` (seconds of
            inactivity before a stream is finalized) and
            ``rolling_sweep_interval`` (how often, in capture time, to scan
            for idle streams).  The wrapper adds its own ``rolling.*``
            counters (sweeps, retained-state size) and eviction reasons land
            under ``pipeline.evicted.*`` via the shared eviction path.
        on_stream_finalized: Optional callback receiving each
            :class:`FinalizedStream` (e.g. to write a database row).
    """

    def __init__(
        self,
        config: AnalyzerConfig | None = None,
        *,
        on_stream_finalized: Optional[Callable[[FinalizedStream], None]] = None,
    ) -> None:
        self.config = config if config is not None else AnalyzerConfig()
        self.idle_timeout = self.config.rolling_idle_timeout
        self.sweep_interval = self.config.rolling_sweep_interval
        self.on_stream_finalized = on_stream_finalized
        self.finalized: list[FinalizedStream] = []
        self.streams_evicted = 0
        self._last_sweep = float("-inf")
        self._analyzer = ZoomAnalyzer(self.config)
        self._analyzer.bus.subscribe(StreamEvicted, self._on_stream_evicted)

    @property
    def result(self) -> AnalysisResult:
        """The live (post-eviction) analysis state."""
        return self._analyzer.result

    @property
    def analyzer(self) -> ZoomAnalyzer:
        """The wrapped analyzer (e.g. to register further event sinks)."""
        return self._analyzer

    def feed_batch(self, batch: "FrameBatch") -> None:
        """Feed one :class:`~repro.net.batch.FrameBatch`; may trigger a sweep.

        Sweep timing is checked once per batch (against the batch's last
        timestamp) instead of per packet.  Capture timestamps are
        monotone-enough in practice that this only ever *delays* a sweep by
        at most one batch of capture time — eviction idle timeouts dwarf
        that — and it keeps the sweep check off the per-frame fast path.
        """
        if not len(batch):
            return
        self._analyzer.feed_batch(batch)
        now = batch.last_timestamp
        if now - self._last_sweep >= self.sweep_interval:
            self.sweep(now)

    def analyze(self, packets: Iterable[CapturedPacket]) -> AnalysisResult:
        """Feed a whole in-memory capture with eviction; returns the result."""
        return self.run(packets)

    def run(self, source: "PacketSource") -> AnalysisResult:
        """Drain a :class:`~repro.net.source.PacketSource` with eviction.

        Combined with a streaming source this is the shape of a live
        deployment — bounded reader memory in, bounded analyzer state
        throughout.  Also accepts a file path or a plain packet iterable.
        """
        from repro.net.source import coerce_source

        source = coerce_source(
            source,
            telemetry=self._analyzer.result.telemetry,
            tolerant=self.config.tolerant,
        )
        for batch in source.frame_batches():
            self.feed_batch(batch)
        return self.result

    def sweep(self, now: float) -> int:
        """Finalize and evict streams idle since ``now - idle_timeout``.

        Applies uniformly to server-relayed and P2P streams — a P2P stream
        stays live for exactly as long as its packets keep being classified
        (active flows refresh their STUN binding in the detector), so idle
        eviction is the one timeout that ends it.  The sweep also purges
        expired STUN bindings: expiry is otherwise lazy per endpoint, and
        endpoints that never sent media would accumulate forever in a 24/7
        deployment.  Returns the number of streams evicted.
        """
        self._last_sweep = now
        live = self._analyzer.result.streams.streams()
        stale = [
            stream for stream in live if now - stream.last_time > self.idle_timeout
        ]
        # Every plugin's endpoint state ages out here (the Zoom plugin's
        # purge is the detector's STUN tracker; the generic RTP plugin has
        # its own tracker).
        purged = sum(plugin.purge(now) for plugin in self._analyzer.plugins)
        tel = self._analyzer.result.telemetry
        if tel.enabled:
            tel.count("rolling.sweeps")
            tel.record_max("rolling.live_streams_peak", len(live))
            tel.observe("rolling.live_streams", len(live))
            if purged:
                tel.count("rolling.stun_purged", purged)
        for stream in stale:
            self._analyzer.evict_stream(stream.key, reason="idle")
        return len(stale)

    def live_stream_count(self) -> int:
        return len(self._analyzer.result.streams)

    def live_stream_snapshots(self) -> list[FinalizedStream]:
        """Point-in-time summaries of every still-open stream.

        The same shape eviction produces, but without finalizing anything —
        the windowed aggregator uses these to report on streams that span an
        open window, and a dashboard can poll them for a live table.
        """
        result = self._analyzer.result
        return [
            self._summarize(stream, result.stream_metrics.get(stream.key))
            for stream in result.streams.streams()
        ]

    # ------------------------------------------------------------- internals

    def _summarize(
        self,
        stream: "MediaStream",
        metrics: object,
        *,
        finalize: bool = False,
    ) -> FinalizedStream:
        """One :class:`FinalizedStream` record from a stream + its estimators.

        ``finalize=True`` closes out the loss trackers (eviction path);
        ``finalize=False`` reads them non-destructively (live snapshots).
        """
        frames = metrics.assembler.completed_count if metrics else 0
        fps_samples = metrics.framerate_delivered.samples if metrics else []
        loss = metrics.loss.report(finalize=finalize) if metrics else None
        return FinalizedStream(
            key=stream.key,
            ssrc=stream.ssrc,
            media_type=stream.media_type,
            first_time=stream.first_time,
            last_time=stream.last_time,
            packets=stream.packets,
            bytes=stream.bytes,
            frames_completed=frames,
            mean_fps=(
                sum(s.fps for s in fps_samples) / len(fps_samples)
                if fps_samples
                else float("nan")
            ),
            jitter_ms=(metrics.jitter.jitter * 1000 if metrics else float("nan")),
            duplicates=loss.duplicates if loss else 0,
            lost=loss.lost if loss else 0,
            stall_count=len(metrics.stall_events()) if metrics else 0,
            protocol=stream.protocol,
        )

    def _on_stream_evicted(self, event: StreamEvicted) -> None:
        """Summarize an evicted stream from the event payload alone."""
        record = self._summarize(event.stream, event.metrics, finalize=True)
        self.finalized.append(record)
        self.streams_evicted += 1
        if self.on_stream_finalized is not None:
            self.on_stream_finalized(record)
