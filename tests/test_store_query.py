"""Query-engine tests: planning, filters, re-aggregation, flat output."""

import pytest

from repro.core import StoreConfig
from repro.store import MetricsStore, StoreQuery, flatten_records, reaggregate_windows


def _window(index: int, *, media=("video",)) -> dict:
    return {
        "kind": "window",
        "window": index,
        "start": index * 10.0,
        "end": (index + 1) * 10.0,
        "packets_total": 100,
        "bytes_total": 10_000,
        "zoom_packets": 90,
        "meetings_formed": 0,
        "meetings_active": 1,
        "streams_evicted": 0,
        "forced": False,
        "media": [
            {
                "media": name,
                "packets": 45,
                "bytes": 4_500,
                "bitrate_bps": 3600.0,
                "streams": 1,
                "streams_opened": 0,
                "p2p_packets": 0,
                "mean_fps": 24.0,
                "mean_jitter_ms": 2.0,
                "lost": 1,
                "duplicates": 0,
            }
            for name in media
        ],
    }


def _stream(start: float, *, media: str = "video") -> dict:
    return {
        "kind": "stream",
        "start": start,
        "end": start + 30.0,
        "ssrc": 0x1234,
        "media": media,
        "packets": 500,
        "bytes": 50_000,
    }


def _meeting(meeting_id: int, start: float, end: float) -> dict:
    return {
        "kind": "meeting",
        "start": start,
        "end": end,
        "meeting_id": meeting_id,
        "streams": 4,
        "participants": 3,
    }


@pytest.fixture()
def populated(tmp_path):
    """Partitions 0/2/5 populated; one meeting confined to partition 0."""
    store = MetricsStore(
        tmp_path, StoreConfig(partition_seconds=100.0, seal_records=16)
    )
    for i in range(8):  # partition 0: 0..80 s
        store.append(_window(i))
    store.append(_meeting(7, 0.0, 60.0))
    store.append(_stream(5.0))
    store.append(_stream(15.0, media="audio"))
    for i in range(20, 28):  # partition 2: 200..280 s
        store.append(_window(i, media=("audio",)))
    for i in range(50, 58):  # partition 5: 500..580 s
        store.append(_window(i))
    store.close()
    return store


@pytest.fixture()
def two_media_partitions(tmp_path):
    """Two sealed 60-s partitions: a video window with meeting 1, then an
    audio window with meeting 2."""
    store = MetricsStore(tmp_path, StoreConfig(partition_seconds=60.0))
    store.append(_window(0, media=("video",)))
    store.append(_meeting(1, 0.0, 50.0))
    store.append(_window(6, media=("audio",)))
    store.append(_meeting(2, 60.0, 110.0))
    store.close()
    return store


class TestPlanning:
    def test_time_range_skips_non_overlapping_segments(self, populated):
        result = populated.query(StoreQuery(start=200.0, end=290.0))
        assert [r["window"] for r in result.records] == list(range(20, 28))
        assert result.segments_skipped >= 2  # partitions 0 and 5 pruned
        assert result.segments_scanned >= 1

    @pytest.mark.parametrize(
        ("store_fixture", "fields", "prunes"),
        [
            ("populated", {"start": 500.0, "kinds": ("window",)}, True),
            # Meetings carry no media, so a media filter must not prune the
            # segments holding them.
            (
                "two_media_partitions",
                {"kinds": ("meeting", "window"), "media": "video"},
                False,
            ),
        ],
        ids=["late-windows", "meetings-and-video-windows"],
    )
    def test_index_and_full_scan_agree(self, request, store_fixture, fields, prunes):
        store = request.getfixturevalue(store_fixture)
        indexed = store.query(StoreQuery(**fields))
        scanned = store.query(StoreQuery(**fields, use_index=False))
        assert indexed.records == scanned.records
        assert scanned.segments_skipped == 0
        if prunes:
            assert scanned.records_examined > indexed.records_examined

    def test_kind_pruning(self, populated):
        result = populated.query(StoreQuery(kinds=("meeting",)))
        assert [r["meeting_id"] for r in result.records] == [7]

    def test_media_pruning_skips_segments_without_that_media(self, populated):
        result = populated.query(StoreQuery(media="screen"))
        assert result.records == []
        assert result.segments_scanned == 0  # every footer excludes "screen"


class TestFilters:
    def test_media_filter_thins_window_entries(self, populated):
        result = populated.query(StoreQuery(media="audio"))
        assert [r["window"] for r in result.records] == list(range(20, 28))
        for record in result.records:
            assert [entry["media"] for entry in record["media"]] == ["audio"]

    def test_media_filter_on_streams(self, populated):
        result = populated.query(StoreQuery(kinds=("stream",), media="audio"))
        assert len(result.records) == 1
        assert result.records[0]["start"] == 15.0

    def test_meeting_query_selects_overlapping_windows(self, populated):
        result = populated.query(StoreQuery(meeting_id=7))
        # Meeting 7 spans 0..60 s: windows 0..5 overlap; window 6 starts
        # exactly at the span's (half-open) end and is excluded.
        indices = [r["window"] for r in result.records]
        assert indices == list(range(6))

    def test_unknown_meeting_matches_nothing(self, populated):
        result = populated.query(StoreQuery(meeting_id=999))
        assert result.records == []

    def test_metric_projection_keeps_identity(self, populated):
        result = populated.query(
            StoreQuery(start=0.0, end=10.0, metrics=("packets_total",))
        )
        assert result.records
        for record in result.records:
            assert set(record) == {
                "kind",
                "window",
                "start",
                "end",
                "packets_total",
            }


class TestReaggregation:
    def test_counts_sum_and_census_maxes(self):
        windows = [_window(i) for i in range(6)]
        windows[3]["meetings_active"] = 4
        merged = reaggregate_windows(windows, 30.0)
        assert len(merged) == 2
        assert [m["packets_total"] for m in merged] == [300, 300]
        assert merged[1]["meetings_active"] == 4
        assert all(m["windows_merged"] == 3 for m in merged)

    def test_media_entries_merge_with_weighted_means(self):
        windows = [_window(0), _window(1)]
        windows[0]["media"][0]["mean_fps"] = 30.0
        windows[0]["media"][0]["packets"] = 300
        windows[1]["media"][0]["mean_fps"] = 10.0
        windows[1]["media"][0]["packets"] = 100
        merged = reaggregate_windows(windows, 20.0)
        (entry,) = merged[0]["media"]
        assert entry["packets"] == 400
        assert entry["mean_fps"] == 25.0  # (30*300 + 10*100) / 400

    def test_none_quality_values_stay_none(self):
        windows = [_window(0)]
        windows[0]["media"][0]["mean_fps"] = None
        merged = reaggregate_windows(windows, 10.0)
        assert merged[0]["media"][0]["mean_fps"] is None

    def test_query_level_reaggregation(self, populated):
        fine = populated.query(StoreQuery(start=0.0, end=80.0))
        coarse = populated.query(
            StoreQuery(start=0.0, end=80.0, reaggregate_seconds=40.0)
        )
        assert sum(w["packets_total"] for w in coarse.records) == sum(
            w["packets_total"] for w in fine.records
        )
        assert len(coarse.records) < len(fine.records)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            StoreQuery(reaggregate_seconds=0.0)


class TestFlattening:
    def test_windows_flatten_one_row_per_media_entry(self):
        columns, rows = flatten_records(
            [_window(0, media=("video", "audio")), _window(1)]
        )
        assert columns[0] == "window"
        assert len(rows) == 3
        assert [row["media"] for row in rows] == ["video", "audio", "video"]

    def test_mixed_kinds_get_kind_column(self):
        columns, rows = flatten_records([_window(0), _meeting(7, 0.0, 60.0)])
        assert columns[0] == "kind"
        assert {row["kind"] for row in rows} == {"window", "meeting"}

    def test_single_kind_omits_kind_column(self):
        columns, rows = flatten_records([_meeting(7, 0.0, 60.0)])
        assert "kind" not in columns
        assert all("kind" not in row for row in rows)
