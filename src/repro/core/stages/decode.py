"""Decode stage: raw frame bytes → :class:`ParsedPacket`, plus input totals."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stages.base import BatchContext, PacketContext
from repro.net.batch import decode_columns
from repro.net.packet import parse_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import EventBus
    from repro.core.pipeline import AnalysisResult
    from repro.net.batch import PrefilterVerdict


class DecodeStage:
    """Parse the Ethernet/IP/transport layers and count every input packet.

    Batch-path survivors arrive already materialized
    (:meth:`~repro.net.batch.FrameBatch.materialize`) and skip the frame
    decode but are still counted here, so ``packets_total`` and
    ``bytes_total`` mean the same thing on either entry point.
    """

    name = "decode"

    def __init__(self, result: "AnalysisResult", bus: "EventBus") -> None:
        self._result = result
        self._telemetry = result.telemetry

    def process(self, ctx: PacketContext) -> bool:
        if ctx.parsed is None:
            assert ctx.captured is not None, "decode needs a raw or parsed frame"
            ctx.parsed = parse_frame(ctx.captured.data, ctx.captured.timestamp)
        self._result.packets_total += 1
        self._result.bytes_total += len(ctx.parsed.raw)
        tel = self._telemetry
        if tel.enabled and ctx.parsed.ethernet is None:
            tel.count("decode.parse_failures")
        return True

    # ------------------------------------------------------------ batch path

    def process_batch(self, bctx: BatchContext) -> None:
        """Columnar header slicing for a whole batch; no per-frame objects."""
        bctx.columns = decode_columns(bctx.batch)

    def account_dropped(self, verdict: "PrefilterVerdict") -> None:
        """Bulk accounting for prefilter-dropped frames.

        Surviving frames are materialized and run through :meth:`process`
        individually, so only the dropped ones need their ``packets_total``
        / ``bytes_total`` / parse-failure contributions added here — with
        exactly the values the scalar path would have recorded.  (Every
        frame the columnar decoder marks Ethernet-less is dropped by the
        prefilter, so the parse-failure count needs no survivor half.)
        """
        self._result.packets_total += verdict.dropped
        self._result.bytes_total += verdict.dropped_bytes
        if verdict.parse_failures:
            tel = self._telemetry
            if tel.enabled:
                tel.count("decode.parse_failures", verdict.parse_failures)
