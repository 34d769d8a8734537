"""Test helpers between per-packet test data and batch-only interfaces."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.net.batch import FrameBatch, FrameBatchBuilder
from repro.net.packet import CapturedPacket, ParsedPacket


def single_frame_batches(packets: Iterable[CapturedPacket]) -> Iterator[FrameBatch]:
    """One :class:`FrameBatch` per packet, in order.

    Drivers check their sweep and window watermarks once per batch, so
    one-frame batches reproduce per-packet timing exactly.
    """
    builder = FrameBatchBuilder()
    for packet in packets:
        builder.append(packet.data, packet.timestamp)
        yield builder.build()


def source_packets(source) -> list[ParsedPacket]:
    """Every frame a :class:`~repro.net.source.PacketSource` yields,
    materialized, in order."""
    return [packet for batch in source.frame_batches() for packet in batch]
