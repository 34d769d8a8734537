"""Flow-sharded parallel analysis: N analyzers, one merged result.

A border tap serving a large campus produces far more packets than one
Python analyzer core can chew through.  :class:`ShardedAnalyzer` partitions
the capture by a *bidirectional flow hash* — both directions of a 5-tuple,
and therefore every packet of every stream, land on the same shard — runs
one full :class:`~repro.core.pipeline.ZoomAnalyzer` per shard, and merges
the shard results with :meth:`~repro.core.pipeline.AnalysisResult.merge`.

Two cross-flow effects need care:

* **P2P detection** (§4.1) learns endpoints from a STUN exchange on a
  *different* flow than the P2P media that follows.  STUN packets are
  therefore replicated to every shard: counted only on their home shard,
  side-effect-only (:meth:`ZoomAnalyzer.hint_stun`) everywhere else.
* **Method-1 latency** matches the egress copy of a stream (sender → SFU)
  against its ingress copies (SFU → each receiver) — by construction two
  *different* clients' flows, so flow-affine sharding splits essentially
  every matchable pair.  Expect few or no §5.3 RTP-latency samples from a
  sharded run; use a single pass (or the TCP-RTT proxy, which is per-flow
  and survives sharding) when latency matters.  Stream, meeting, and
  Table-2/3 accounting are unaffected.

Backends: ``"process"`` (the default; ``multiprocessing``, true
parallelism) and ``"serial"`` (every shard in-process, one after another;
debugging and the equivalence tests).  Work crosses the process boundary
as :class:`~repro.net.batch.FrameBatch` buffers — one contiguous ``bytes``
plus three flat arrays per ~2048 frames — so pickling cost is a handful of
buffer copies per batch instead of one ``CapturedPacket`` object per
packet, and each shard runs the batch fast path
(:meth:`ZoomAnalyzer.feed_batch`) end to end.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.config import AnalyzerConfig
from repro.core.pipeline import AnalysisResult, ZoomAnalyzer
from repro.net.batch import FrameBatch, FrameBatchBuilder
from repro.net.packet import CapturedPacket
from repro.rtp.stun import STUN_PORT
from repro.telemetry.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.source import PacketSource

_ETHERTYPE_VLAN = 0x8100
_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_STUN_MAGIC = b"\x21\x12\xa4\x42"

#: Frames per shard-bound :class:`FrameBatch` built by the partitioner.
_SHARD_BATCH_FRAMES = 2048


def flow_shard_info(data) -> tuple[int, bool] | None:
    """(bidirectional flow hash, looks-like-Zoom-STUN) for one raw frame.

    Reads the handful of header bytes it needs directly — this runs once per
    packet in the partitioning loop, before any shard does a full decode.
    ``data`` may be ``bytes`` or a ``memoryview`` into a batch buffer (the
    hash is over header *values*, so both spell the same shard).  Returns
    ``None`` for frames without an IPv4/IPv6 + TCP/UDP flow key (ARP,
    truncated frames, other protocols); those carry no per-flow state and
    may go to any shard.
    """
    if len(data) < 34:
        return None
    ethertype = (data[12] << 8) | data[13]
    offset = 14
    if ethertype == _ETHERTYPE_VLAN:
        if len(data) < 38:
            return None
        ethertype = (data[16] << 8) | data[17]
        offset = 18
    if ethertype == _ETHERTYPE_IPV4:
        ihl = (data[offset] & 0x0F) * 4
        if ihl < 20 or len(data) < offset + ihl + 4:
            return None
        proto = data[offset + 9]
        src = bytes(data[offset + 12 : offset + 16])
        dst = bytes(data[offset + 16 : offset + 20])
        l4 = offset + ihl
    elif ethertype == _ETHERTYPE_IPV6:
        if len(data) < offset + 44:
            return None
        proto = data[offset + 6]
        src = bytes(data[offset + 8 : offset + 24])
        dst = bytes(data[offset + 24 : offset + 40])
        l4 = offset + 40
    else:
        return None
    if proto not in (6, 17) or len(data) < l4 + 4:
        return None
    sport = (data[l4] << 8) | data[l4 + 1]
    dport = (data[l4 + 2] << 8) | data[l4 + 3]
    endpoint_a = src + bytes((sport >> 8, sport & 0xFF))
    endpoint_b = dst + bytes((dport >> 8, dport & 0xFF))
    if endpoint_b < endpoint_a:
        endpoint_a, endpoint_b = endpoint_b, endpoint_a
    flow_hash = zlib.crc32(endpoint_a + endpoint_b + bytes((proto,)))
    is_stun = (
        proto == 17
        and STUN_PORT in (sport, dport)
        and len(data) >= l4 + 8 + 8
        and data[l4 + 12 : l4 + 16] == _STUN_MAGIC
    )
    return flow_hash, is_stun


@dataclass
class PartitionStats:
    """Accounting from one :meth:`ShardedAnalyzer.partition_frames` call."""

    shard_packets: list[int] = field(default_factory=list)
    hints_replicated: int = 0
    unhashable_frames: int = 0


def _analyze_shard(args: tuple) -> AnalysisResult:
    """Worker: run one shard's :class:`FrameBatch` list through a fresh
    analyzer's batch fast path.

    Hint frames (replicated STUN) travel inside the batches via the
    ``hints`` column; :meth:`ZoomAnalyzer.feed_batch` routes them to
    :meth:`~ZoomAnalyzer.hint_stun` in capture order without counting them.
    Module-level so the process backend can pickle it.
    """
    config, batches = args
    analyzer = ZoomAnalyzer(config)
    for batch in batches:
        analyzer.feed_batch(batch)
    return analyzer.result


class ShardedAnalyzer:
    """Partition a capture across N flow-affine analyzers and merge.

    Args:
        config: An :class:`~repro.core.config.AnalyzerConfig`; ``shards``
            and ``shard_backend`` select the partitioning, and every
            per-analyzer option (subnets, STUN timeout, record retention)
            is forwarded to each shard's :class:`ZoomAnalyzer`.  Per-shard
            telemetry registries are merged into the combined result, whose
            additive counters then equal a single-pass run; the driver adds
            its own ``sharded.*`` partition accounting (per-shard packet
            balance, STUN hint replication) on top.  A shared
            :class:`~repro.telemetry.Telemetry` *instance* in the config
            cannot be written from worker processes, so it degrades to its
            enabled flag; pass a factory for custom per-shard registries.

    Usage::

        result = ShardedAnalyzer(AnalyzerConfig(shards=4)).analyze(packets)
    """

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config if config is not None else AnalyzerConfig()
        self.shards = self.config.shards
        self.backend = self.config.shard_backend
        self.partition_stats = PartitionStats()

    def partition_frames(
        self, frames: Iterable[tuple]
    ) -> list[list[FrameBatch]]:
        """Split a raw-frame stream into per-shard :class:`FrameBatch` lists.

        ``frames`` yields ``(data, timestamp)`` pairs (``data`` may be a
        ``memoryview`` into a reader batch; the builder copies it into the
        shard's own contiguous buffer).  Each frame lands on exactly one
        home shard (flow-affine, both directions together); STUN frames are
        additionally replicated to every other shard as detector hints.
        The output is what the process backend wants to pickle: one buffer
        + three flat arrays per ~:data:`_SHARD_BATCH_FRAMES` frames, not one
        object per packet.  Partition accounting for the most recent call
        is kept on :attr:`partition_stats`.
        """
        shards = self.shards
        builders = [FrameBatchBuilder() for _ in range(shards)]
        work: list[list[FrameBatch]] = [[] for _ in range(shards)]
        stats = PartitionStats(shard_packets=[0] * shards)
        crc32 = zlib.crc32
        for data, timestamp in frames:
            info = flow_shard_info(data)
            if info is None:
                home = crc32(data) % shards
                stats.unhashable_frames += 1
                is_stun = False
            else:
                flow_hash, is_stun = info
                home = flow_hash % shards
            builder = builders[home]
            builder.append(data, timestamp)
            stats.shard_packets[home] += 1
            if len(builder) >= _SHARD_BATCH_FRAMES:
                work[home].append(builder.build())
            if is_stun:
                for index in range(shards):
                    if index == home:
                        continue
                    other = builders[index]
                    other.append(data, timestamp, hint=True)
                    stats.hints_replicated += 1
                    if len(other) >= _SHARD_BATCH_FRAMES:
                        work[index].append(other.build())
        for index, builder in enumerate(builders):
            if len(builder):
                work[index].append(builder.build())
        self.partition_stats = stats
        return work

    def analyze(self, packets: Iterable[CapturedPacket]) -> AnalysisResult:
        """Partition an in-memory capture, run every shard, and merge."""
        return self.run(packets)

    def run(self, source: "PacketSource") -> AnalysisResult:
        """Drain a :class:`~repro.net.source.PacketSource` across the shards.

        :class:`FrameBatch` buffers stream straight into the partitioner
        (no per-packet objects on the ingest side).  Also accepts a file
        path or plain packet iterable.  The merged result's telemetry holds
        the per-shard registries summed (so additive counters match a
        single-pass run) plus the driver's own ``sharded.*`` partition
        accounting.
        """
        from repro.net.source import coerce_source

        # Shard registries can't be shared with the reader, so ingest-side
        # counters accumulate separately and fold into the merged result.
        ingest = Telemetry(enabled=self.config.telemetry_enabled)
        source = coerce_source(source, telemetry=ingest, tolerant=self.config.tolerant)
        frames = (
            frame for batch in source.frame_batches() for frame in batch.iter_frames()
        )
        work = self.partition_frames(frames)
        shard_config = self.config.shard_config()
        results = self._run_shards([(shard_config, batches) for batches in work])
        merged = AnalysisResult.merge_all(results)
        tel = merged.telemetry
        if tel.enabled:
            stats = self.partition_stats
            for index, count in enumerate(stats.shard_packets):
                tel.count(f"sharded.shard_packets.{index}", count)
            tel.count("sharded.hints_replicated", stats.hints_replicated)
            tel.count("sharded.unhashable_frames", stats.unhashable_frames)
            tel.record_max("sharded.shards", self.shards)
        merged.telemetry.merge_from(ingest)
        return merged

    # ------------------------------------------------------------- internals

    def _run_shards(self, shard_args: Sequence[tuple]) -> list[AnalysisResult]:
        if self.backend == "serial" or self.shards == 1:
            return [_analyze_shard(args) for args in shard_args]
        import multiprocessing

        with multiprocessing.Pool(processes=self.shards) as pool:
            return pool.map(_analyze_shard, shard_args)
