"""Streaming vs eager capture ingest: peak memory and wall time.

The pre-PacketSource analyzers materialized every capture as a
``list[CapturedPacket]`` before the first packet was analyzed.  This
experiment pins down what the streaming readers buy: the same campus-scale
pcap is analyzed (a) the old way — the whole capture read into a list,
then fed frame by frame — (b) streamed frame by frame off a
:class:`~repro.net.pcap.PcapReader`, and (c) through ``AnalysisSession``
over a :class:`~repro.net.source.PcapFileSource`, which never holds more
than one batch.  Peak allocation is measured with :mod:`tracemalloc`; the analysis
results are asserted identical before any number is reported.
"""

import time
import tracemalloc

from repro.analysis.tables import format_table
from repro.core import AnalysisSession, AnalyzerConfig, ZoomAnalyzer
from repro.net.pcap import PcapReader, write_pcap
from repro.net.source import PcapFileSource


def _measure(fn):
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_ingest_streaming_vs_eager(campus, tmp_path, report):
    trace, _model, _analysis = campus
    pcap_path = tmp_path / "campus.pcap"
    packet_count = write_pcap(pcap_path, trace.result.captures)
    file_bytes = pcap_path.stat().st_size

    def eager():
        with PcapReader(pcap_path) as reader:
            packets = list(reader)
        analyzer = ZoomAnalyzer(AnalyzerConfig())
        for packet in packets:
            analyzer.feed(packet)
        return analyzer.result

    def streaming_scalar():
        analyzer = ZoomAnalyzer(AnalyzerConfig())
        with PcapReader(pcap_path) as reader:
            for packet in reader:
                analyzer.feed(packet)
        return analyzer.result

    def streaming_batch():
        # AnalysisSession.run drains frame_batches(): raw FrameBatch
        # buffers, columnar decode, lazy survivors.
        session = AnalysisSession(AnalyzerConfig())
        return session.run(PcapFileSource(pcap_path))

    eager_result, eager_time, eager_peak = _measure(eager)
    stream_result, stream_time, stream_peak = _measure(streaming_scalar)
    batch_result, batch_time, batch_peak = _measure(streaming_batch)

    # Same capture, same pipeline — the ingest paths must agree before
    # their costs are worth comparing.
    for result in (stream_result, batch_result):
        assert result.packets_total == eager_result.packets_total
        assert result.packets_zoom == eager_result.packets_zoom
        assert len(result.streams) == len(eager_result.streams)
        assert result.encap_share_table() == eager_result.encap_share_table()

    # The point of the streaming reader: peak allocation should not grow
    # with the capture (eager holds every frame at once).  The batch path
    # must keep that bound — it buffers one read chunk plus its columns,
    # never the whole capture.
    assert stream_peak < eager_peak
    assert batch_peak < eager_peak

    mib = 1024 * 1024
    report(
        "ingest_streaming",
        format_table(
            ["ingest path", "wall s", "peak MiB", "packets/s"],
            [
                (
                    "eager (read into a list + feed)",
                    f"{eager_time:.2f}",
                    f"{eager_peak / mib:.1f}",
                    int(packet_count / eager_time),
                ),
                (
                    "streaming scalar (PcapReader + feed)",
                    f"{stream_time:.2f}",
                    f"{stream_peak / mib:.1f}",
                    int(packet_count / stream_time),
                ),
                (
                    "streaming batch (FrameBatch fast path)",
                    f"{batch_time:.2f}",
                    f"{batch_peak / mib:.1f}",
                    int(packet_count / batch_time),
                ),
            ],
        )
        + f"\n\ncapture: {packet_count} packets, {file_bytes / mib:.1f} MiB on disk"
        + f"\npeak-memory ratio (eager/scalar streaming): "
        f"{eager_peak / stream_peak:.1f}x"
        + f"\npeak-memory ratio (eager/batch streaming): "
        f"{eager_peak / batch_peak:.1f}x"
        + "\nnote: the campus trace is nearly all Zoom, so the batch "
        "prefilter passes ~everything and its screening cost is pure "
        "overhead here; the fast path pays off on border-style mixes — "
        "see results/sharded_throughput.txt",
    )
