"""Spans around calls into each layer's public functions.

Tracing is a separate run from the end-to-end measurement.  :class:`Tracer`
replaces public methods and functions of the program with wrappers for the
duration of a traced phase and restores them afterwards; no program file is
touched.  Each wrapper records one span -- name, start, end and parent (the
span open on the same thread when it began) -- into a per-thread buffer.
Spans stay in memory until :meth:`Tracer.write` stores them.  A layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

#: (module, attribute path, span name, kind).  ``gen`` wraps a generator
#: function: every resumption of the generator is one span.  Module-level
#: functions are patched where their callers look them up.
PATCHES = (
    ("repro.net.source", "PcapFileSource.frame_batches", "net.read", "gen"),
    ("repro.dataplane.live", "LiveInterfaceSource.poll", "net.read", "poll"),
    ("repro.core.stages.decode", "decode_columns", "net.decode_columns", "call"),
    ("repro.net.batch", "BatchPrefilter.apply", "net.prefilter_apply", "call"),
    ("repro.dataplane.rawfilter", "RawFrameFilter.match", "dataplane.raw", "call"),
    ("repro.dataplane.rawfilter", "RawFrameFilter.filter_batch", "dataplane.raw", "call"),
    ("repro.dataplane.live", "run_cbpf", "dataplane.cbpf", "call"),
    ("measure", "PacedSocket.recv_batch", "replay.socket", "call"),
    ("repro.core.stages.decode", "DecodeStage.process", "stages.decode", "call"),
    ("repro.core.stages.classify", "ClassifyStage.process", "stages.classify", "call"),
    ("repro.core.stages.demux", "ZoomDemuxStage.process", "stages.demux", "call"),
    ("repro.core.stages.assemble", "AssembleStage.process", "stages.assemble", "call"),
    ("repro.core.stages.metrics", "MetricsStage.process", "stages.metrics", "call"),
    ("repro.protocols.zoom", "ZoomPlugin.would_claim", "protocols.probe", "call"),
    ("repro.protocols.rtp", "RtpPlugin.would_claim", "protocols.probe", "call"),
    ("repro.core.pipeline", "ZoomAnalyzer.feed_batch", "pipeline.feed", "call"),
    ("repro.core.rolling", "RollingZoomAnalyzer.feed_batch", "rolling.feed_batch", "feed"),
    ("repro.core.rolling", "RollingZoomAnalyzer.sweep", "rolling.sweep", "call"),
    ("repro.service.windows", "WindowAggregator.on_stream_opened", "windows.hook", "call"),
    ("repro.service.windows", "WindowAggregator.on_stream_updated", "windows.hook", "call"),
    ("repro.service.windows", "WindowAggregator.on_meeting_formed", "windows.hook", "call"),
    ("repro.service.windows", "WindowAggregator.on_stream_evicted", "windows.hook", "call"),
    ("repro.service.windows", "WindowAggregator.advance_watermark", "windows.hook", "call"),
    ("repro.qoe.tracker", "MeetingQoeTracker.on_stream_opened", "qoe.hook", "call"),
    ("repro.qoe.tracker", "MeetingQoeTracker.on_stream_updated", "qoe.hook", "call"),
    ("repro.qoe.tracker", "MeetingQoeTracker.on_stream_evicted", "qoe.hook", "call"),
    ("repro.store.store", "MetricsStore.append", "store.append", "call"),
    ("repro.store.store", "MetricsStore.seal_partition", "store.seal", "call"),
    ("repro.store.query", "run_query", "query.run", "call"),
)


class _Buffer:
    """One thread's spans, as parallel arrays."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []


@dataclass
class SpanStats:
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0


class Tracer:
    """Install span wrappers, collect spans, derive per-name statistics."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[_Buffer] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        #: Queue wait samples (s): batch leaves ``poll`` -> ``feed_batch``.
        self.queue_waits: list[float] = []
        self._yielded: dict[int, float] = {}

    # ---------------------------------------------------------- recording

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self.buffers.append(buf)
        return buf

    def _open(self, name_id: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        index = len(buf.names)
        buf.names.append(name_id)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.starts.append(0.0)
        buf.ends.append(0.0)
        buf.stack.append(index)
        buf.starts[index] = perf_counter()
        return buf, index

    @staticmethod
    def _close(buf: _Buffer, index: int) -> None:
        buf.ends[index] = perf_counter()
        buf.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, kind: str):
        name_id = self._name_id(name)
        tracer = self

        if kind in ("gen", "poll"):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    buf, index = tracer._open(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        tracer._close(buf, index)
                        return
                    except BaseException:
                        tracer._close(buf, index)
                        raise
                    tracer._close(buf, index)
                    if kind == "poll":
                        tracer._yielded[id(item)] = perf_counter()
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "feed":
                left = tracer._yielded.pop(id(args[1]), None)
                if left is not None:
                    tracer.queue_waits.append(perf_counter() - left)
            buf, index = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(buf, index)

        return wrapper

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for module_name, path, name, kind in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------ analysis

    def stats(self) -> dict[str, SpanStats]:
        """Count, total and self time per span name."""
        out = {name: SpanStats() for name in self.names}
        for buf in self.buffers:
            durations = [end - start for start, end in zip(buf.starts, buf.ends)]
            child_time = [0.0] * len(durations)
            for index, parent in enumerate(buf.parents):
                if parent >= 0:
                    child_time[parent] += durations[index]
            for index, name_id in enumerate(buf.names):
                stats = out[self.names[name_id]]
                stats.count += 1
                stats.total += durations[index]
                stats.self_total += durations[index] - child_time[index]
        return out

    def top_level_time(self, thread: str, start: float, end: float) -> float:
        """Time covered by spans without a parent on ``thread`` that ran
        between ``start`` and ``end``."""
        total = 0.0
        for buf in self.buffers:
            if buf.thread != thread:
                continue
            for parent, begin, finish in zip(buf.parents, buf.starts, buf.ends):
                if parent < 0 and begin >= start and finish <= end:
                    total += finish - begin
        return total

    def write(self, path: Path) -> None:
        """Store every span, one JSON object per thread, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for buf in self.buffers:
                handle.write(
                    json.dumps(
                        {
                            "thread": buf.thread,
                            "names": self.names,
                            "name": list(buf.names),
                            "parent": list(buf.parents),
                            "start": list(buf.starts),
                            "end": list(buf.ends),
                        }
                    )
                    + "\n"
                )
