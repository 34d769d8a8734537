"""Packet-emitting adapter: simulated meetings straight into the analyzer.

Historically the only interchange between the emulator and the analyzer was
a pcap file — every simulated study paid a serialize/deserialize round trip
just to move in-memory frames between two modules of the same process.
This adapter emits :class:`~repro.net.packet.CapturedPacket` records and
raw ``(frame, timestamp)`` pairs directly from any simulation scenario,
with optional timestamp quantization that reproduces the pcap writer's
nanosecond rounding, so a direct feed is *bit-identical* to the
write-then-read path (the equivalence the source-layer tests assert).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.net.packet import CapturedPacket
from repro.telemetry.registry import Telemetry

#: Simulation scenario: anything that can produce captured frames.
#: Accepted forms are a :class:`~repro.simulation.MeetingConfig` (the
#: simulator is run on demand), a :class:`~repro.simulation.CampusTraceConfig`,
#: any object with a ``captures`` attribute or an ``all_packets()`` method
#: (:class:`~repro.simulation.SimulationResult`, a campus trace), or a plain
#: iterable of :class:`CapturedPacket`.


def quantize_timestamp(timestamp: float, resolution: float = 1e-9) -> float:
    """The capture time a packet would carry after a pcap round trip.

    Mirrors :class:`~repro.net.pcap.PcapWriter` exactly: split into whole
    seconds plus ticks of ``resolution``, round the ticks, carry overflow
    into the next second, reassemble in float arithmetic in the same order
    the reader does.
    """
    per_second = round(1.0 / resolution)
    whole = int(timestamp)
    frac = int(round((timestamp - whole) / resolution))
    if frac >= per_second:  # rounding pushed us into the next second
        whole += 1
        frac -= per_second
    return whole + frac * resolution


def captured_packets(scenario: object) -> Iterator[CapturedPacket]:
    """Time-ordered captured frames for any simulation scenario form."""
    # Late imports: repro.simulation imports this module's neighbours, and
    # the net-layer sources import this function lazily.
    from repro.simulation.campus import CampusTraceConfig, generate_campus_trace
    from repro.simulation.meeting import MeetingConfig, MeetingSimulator

    if isinstance(scenario, MeetingConfig):
        scenario = MeetingSimulator(scenario).run()
    elif isinstance(scenario, CampusTraceConfig):
        scenario = generate_campus_trace(scenario)
    if hasattr(scenario, "all_packets"):  # campus trace: zoom + background
        yield from scenario.all_packets()
        return
    if hasattr(scenario, "captures"):  # SimulationResult
        yield from scenario.captures
        return
    if isinstance(scenario, Iterable):
        yield from scenario
        return
    raise TypeError(f"cannot emit packets from {type(scenario).__name__}")


def scenario_frames(
    scenario: object,
    *,
    timestamp_resolution: float | None = 1e-9,
    telemetry: Telemetry | None = None,
) -> Iterator[tuple[bytes, float]]:
    """A scenario's ``(frame_bytes, timestamp)`` pairs as a capture file
    would hold them.

    Args:
        scenario: Any form accepted by :func:`captured_packets`.
        timestamp_resolution: Quantize capture times as a pcap writer at
            this resolution would (``1e-9`` matches the default nanosecond
            writer, making the direct feed equal to a pcap round trip);
            ``None`` keeps the simulator's exact float timestamps.
        telemetry: Optional registry; ``capture.frames`` / ``capture.bytes``
            are recorded exactly as the file readers record them.
    """
    tel = telemetry if telemetry is not None else Telemetry(enabled=False)
    for captured in captured_packets(scenario):
        timestamp = captured.timestamp
        if timestamp_resolution is not None:
            timestamp = quantize_timestamp(timestamp, timestamp_resolution)
        tel.count("capture.frames")
        tel.count("capture.bytes", len(captured.data))
        yield captured.data, timestamp
