"""Tests for trace save/load."""

import hashlib
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import TraceGenerator, load_workload
from repro.workloads.trace import LocalityProfile, TraceRecord
from repro.workloads.trace_io import (
    TraceFormatError,
    load_trace,
    open_trace,
    save_trace,
    save_trace_columnar,
    shared_trace,
    trace_meta,
    trace_stats,
)


class TestRoundTrip:
    def test_generated_trace_round_trips(self, tmp_path):
        workload = load_workload("aes", refs=1_000)
        records = list(workload.traces()[0])
        path = tmp_path / "aes.trace"
        assert save_trace(records, path) == len(records)
        assert list(load_trace(path)) == records

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 1 << 20), st.integers(0, 1 << 40), st.booleans()),
        max_size=60))
    def test_arbitrary_records_round_trip(self, raw):
        import tempfile
        from pathlib import Path

        records = [TraceRecord(instructions=i, address=a - a % 8,
                               is_write=w) for i, a, w in raw]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace"
            save_trace(records, path)
            assert list(load_trace(path)) == records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        assert save_trace([], path) == 0
        assert list(load_trace(path)) == []


class TestValidation:
    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a trace file")
        with pytest.raises(TraceFormatError):
            list(load_trace(path))

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace([TraceRecord(1, 64, False)] * 4, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(TraceFormatError):
            list(load_trace(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"LPC")
        with pytest.raises(TraceFormatError):
            list(load_trace(path))


class TestStats:
    def test_stats_match_trace(self, tmp_path):
        profile = LocalityProfile(working_set_lines=512, hot_lines=64,
                                  write_fraction=0.5)
        records = list(TraceGenerator(profile, seed=3).records(500))
        path = tmp_path / "t.trace"
        save_trace(records, path)
        stats = trace_stats(path)
        assert stats["records"] == 500
        assert stats["reads"] + stats["writes"] == 500
        assert stats["write_fraction"] == pytest.approx(0.5, abs=0.1)
        assert stats["footprint_bytes"] > 0


class TestColumnar:
    """v2 columnar format: O(1) windows, byte-identical record streams."""

    def _records(self, count=400, seed=5):
        profile = LocalityProfile(working_set_lines=256, hot_lines=32,
                                  write_fraction=0.3)
        return list(TraceGenerator(profile, seed=seed).records(count))

    def test_columnar_round_trips(self, tmp_path):
        records = self._records()
        path = tmp_path / "t.coltrace"
        assert save_trace_columnar(records, path) == len(records)
        assert list(load_trace(path)) == records

    def test_columnar_matches_row_format(self, tmp_path):
        records = self._records()
        row, col = tmp_path / "row.trace", tmp_path / "col.trace"
        save_trace(records, row)
        save_trace_columnar(records, col)
        assert list(load_trace(row)) == list(load_trace(col))

    def test_window_equals_slice(self, tmp_path):
        records = self._records()
        path = tmp_path / "t.coltrace"
        save_trace_columnar(records, path)
        trace = open_trace(path, shared=False)
        assert trace.count == len(records)
        window = trace.window(100, 180)
        assert window.count == len(window) == 80
        assert list(window) == records[100:180]
        assert list(window) == records[100:180]  # re-iterable
        assert window.stationary is True
        with pytest.raises(IndexError):
            trace.window(0, len(records) + 1)

    def test_trace_meta(self, tmp_path):
        records = self._records(count=123)
        row, col = tmp_path / "row.trace", tmp_path / "col.trace"
        save_trace(records, row)
        save_trace_columnar(records, col)
        assert trace_meta(row) == {"version": 1, "records": 123}
        assert trace_meta(col) == {"version": 2, "records": 123}

    def test_columns_from_generator_match_record_save(self, tmp_path):
        """The column-wise writer fast path emits identical bytes."""
        workload = load_workload("aes", refs=600)
        via_stream = tmp_path / "stream.coltrace"
        via_records = tmp_path / "records.coltrace"
        stream = workload.traces()[0]
        save_trace_columnar(stream, via_stream)       # columns() path
        save_trace_columnar(iter(stream), via_records)  # record path
        assert via_stream.read_bytes() == via_records.read_bytes()

    def test_shared_handle_cached_per_path(self, tmp_path):
        path = tmp_path / "t.coltrace"
        save_trace_columnar(self._records(50), path)
        first = open_trace(path)
        assert open_trace(path) is first
        assert open_trace(path, shared=False) is not first

    def test_shared_trace_is_the_shared_handle_or_none(self, tmp_path,
                                                      monkeypatch):
        records = self._records(50)
        path = tmp_path / "t.coltrace"
        save_trace_columnar(records, path)
        monkeypatch.chdir(tmp_path)
        first = shared_trace("t.coltrace")
        assert first is open_trace(path) and first.count == 50
        assert shared_trace(str(path)) is first
        first.close()  # drops every cache entry of the handle
        second = shared_trace(path)
        assert second is not first and list(second.records()) == records
        second.close()
        row = tmp_path / "row.trace"
        save_trace(records, row)
        assert shared_trace(row) is None

    def test_window_round_trip_and_use_after_close(self, tmp_path):
        records = self._records()
        path = tmp_path / "t.coltrace"
        save_trace_columnar(records, path)
        trace = open_trace(path, shared=False)
        window = trace.window(40, 90)
        assert list(window) == records[40:90]
        trace.close()
        with pytest.raises(ValueError, match="closed"):
            list(window)
        with pytest.raises(ValueError, match="closed"):
            list(trace.records())

    def test_closing_a_shared_handle_evicts_it(self, tmp_path):
        path = tmp_path / "t.coltrace"
        save_trace_columnar(self._records(50), path)
        first = open_trace(path)
        first.close()
        second = open_trace(path)
        assert second is not first
        assert len(list(second.window(0, 50))) == 50

    def test_truncated_columns_rejected(self, tmp_path):
        path = tmp_path / "t.coltrace"
        save_trace_columnar(self._records(60), path)
        path.write_bytes(path.read_bytes()[:-11])
        with pytest.raises(TraceFormatError):
            open_trace(path, shared=False)

    def test_row_file_has_no_columnar_index(self, tmp_path, monkeypatch):
        import random

        from repro.analysis import crashfuzz

        path = tmp_path / "t.trace"
        save_trace(self._records(20), path)
        with pytest.raises(TraceFormatError):
            open_trace(path, shared=False)
        # a trace-window trial refuses it before it leases a machine
        monkeypatch.setattr(crashfuzz, "machine_for_workload",
                            lambda *args, **kwargs: pytest.fail("leased"))
        with pytest.raises(ValueError,
                           match="repro trace export --columnar"):
            crashfuzz.trace_trial(0, random.Random(0),
                                  trace_path=str(path))


#: edge values of every column: u32 and u64 extremes, bit 63, both flags
_EDGE_RECORDS = [
    (0, 0, False),
    ((1 << 32) - 1, (1 << 64) - 1, True),
    (1, 1 << 63, True),
    (12, (1 << 63) - 64, False),
    (3, 4096, True),
]
#: SHA-256 of ``_EDGE_RECORDS`` as written by the numpy-backed writer the
#: stdlib one replaced (``np.asarray(..., "<u4"/"<u8"/"<u1")`` columns)
_EDGE_SHA256 = \
    "2b44331b91171bfc619fb808333b0415d635946d210e0156cac29bb44f2a4448"


def _layout(records, order="<"):
    """A v2 file spelled out with ``struct``, independently of the writer."""
    n = len(records)
    instructions, addresses, writes = zip(*records)
    return (struct.pack("<8sHQ", b"LPCTRACE", 2, n)
            + struct.pack(f"{order}{n}I", *instructions)
            + struct.pack(f"{order}{n}Q", *addresses)
            + bytes(1 if write else 0 for write in writes))


class TestColumnarLayout:
    """The v2 bytes are pinned: little-endian u32, u64 and u8 columns."""

    def test_file_is_the_spelled_out_layout(self, tmp_path):
        path = tmp_path / "edge.coltrace"
        assert save_trace_columnar(_EDGE_RECORDS, path) == len(_EDGE_RECORDS)
        blob = path.read_bytes()
        assert blob == _layout(_EDGE_RECORDS)
        assert hashlib.sha256(blob).hexdigest() == _EDGE_SHA256
        assert list(open_trace(path, shared=False).records()) == \
            _EDGE_RECORDS

    def test_is_write_is_bit_zero_of_the_flag_byte(self, tmp_path):
        path = tmp_path / "flags.coltrace"
        save_trace_columnar([(1, 64, False)] * 4, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = bytes([0, 1, 2, 3])
        path.write_bytes(bytes(blob))
        records = list(open_trace(path, shared=False).records())
        assert [record.is_write for record in records] == \
            [False, True, False, True]
        assert all(type(record.is_write) is bool for record in records)

    @pytest.mark.parametrize("record", [
        (1 << 32, 0, False), (-1, 0, False), (0, 1 << 64, False),
        (0, -1, False)])
    def test_out_of_range_value_raises(self, tmp_path, record):
        with pytest.raises(OverflowError):
            save_trace_columnar([record], tmp_path / "big.coltrace")

    def test_big_endian_writer_swaps_to_little_endian(self, tmp_path,
                                                      monkeypatch):
        # On a little-endian host, the writer's big-endian branch swaps
        # native bytes into the opposite order: exactly what it must do
        # to native big-endian columns.
        assert sys.byteorder == "little"
        monkeypatch.setattr(sys, "byteorder", "big")
        path = tmp_path / "swapped.coltrace"
        save_trace_columnar(_EDGE_RECORDS, path)
        assert path.read_bytes() == _layout(_EDGE_RECORDS, order=">")

    def test_big_endian_reader_refuses(self, tmp_path, monkeypatch):
        path = tmp_path / "edge.coltrace"
        save_trace_columnar(_EDGE_RECORDS, path)
        monkeypatch.setattr(sys, "byteorder", "big")
        with pytest.raises(TraceFormatError, match="big-endian"):
            open_trace(path, shared=False)
        with pytest.raises(TraceFormatError, match="big-endian"):
            list(load_trace(path))
