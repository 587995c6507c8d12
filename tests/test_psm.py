"""Tests for the Persistent Support Module."""

import struct

import pytest

from repro.memory import MemoryOp, MemoryRequest
from repro.ocpmem import MachineCheckError, PSM, PSMConfig, WearRegisters


def _psm(functional=False, **overrides):
    overrides.setdefault("lines_per_dimm", 1024)
    return PSM(PSMConfig(**overrides), functional=functional)


def _psm_b(functional=False, **overrides):
    overrides.setdefault("lines_per_dimm", 1024)
    return PSM(PSMConfig.lightpc_b(**overrides), functional=functional)


def read(psm, address, time=0.0):
    return psm.access(MemoryRequest(MemoryOp.READ, address=address, time=time))


def write(psm, address, time=0.0, data=None):
    return psm.access(
        MemoryRequest(MemoryOp.WRITE, address=address, time=time, data=data))


class TestBasicService:
    def test_read_latency_near_media(self):
        psm = _psm()
        response = read(psm, 0)
        assert 60.0 < response.latency < 90.0

    def test_write_absorbed_by_row_buffer(self):
        psm = _psm()
        response = write(psm, 0)
        assert response.latency < 20.0

    def test_capacity_reported(self):
        psm = _psm()
        assert psm.capacity == (6 * 1024 - 1) * 64

    def test_out_of_range_rejected(self):
        psm = _psm()
        with pytest.raises(ValueError):
            read(psm, psm.capacity)

    def test_oversized_request_rejected(self):
        psm = _psm()
        with pytest.raises(ValueError):
            psm.access(MemoryRequest(MemoryOp.READ, size=128))

    @pytest.mark.parametrize("functional", (False, True))
    @pytest.mark.parametrize("make", (_psm, _psm_b), ids=("lightpc",
                                                         "lightpc_b"))
    @pytest.mark.parametrize("size", (8, 32, 63))
    def test_sub_line_data_write_refused_untouched(self, make, functional,
                                                   size):
        """A write carrying less than a line of data is refused before
        any counter, wear register or pending line changes."""
        psm = make(functional)
        write(psm, 0, data=bytes(64) if functional else None)
        before = (psm.counters(), psm.capture_registers(),
                  dict(psm._pending), dict(psm.wear.physical_writes),
                  psm.media_line_writes)
        request = MemoryRequest(MemoryOp.WRITE, address=128, size=size,
                                time=5.0, data=bytes(size))
        with pytest.raises(ValueError, match="whole 64 B lines"):
            psm.access(request)
        assert (psm.counters(), psm.capture_registers(), dict(psm._pending),
                dict(psm.wear.physical_writes), psm.media_line_writes) == before
        assert psm.flush(10.0) >= 10.0  # the next flush is unharmed

    def test_row_buffer_serves_youngest_write(self):
        psm = _psm()
        w = write(psm, 0)
        r = read(psm, 0, time=w.complete_time)
        assert r.latency < 20.0  # buffer hit, not media

    def test_repeated_writes_same_page_absorbed(self):
        psm = _psm()
        t = 0.0
        for _ in range(10):
            response = write(psm, 256, time=t)
            t = response.complete_time
        assert psm.buffer_hits.ratio > 0.8
        assert psm.media_line_writes == 0  # nothing drained yet


class TestFunctionalPath:
    def test_write_read_roundtrip(self):
        psm = _psm(functional=True)
        data = bytes(range(64))
        w = write(psm, 128, data=data)
        r = read(psm, 128, time=w.complete_time)
        assert r.data == data

    def test_data_survives_flush(self):
        psm = _psm(functional=True)
        data = bytes(range(64))
        write(psm, 128, data=data)
        done = psm.flush(100.0)
        r = read(psm, 128, time=done)
        assert r.data == data

    def test_data_survives_power_cycle_after_flush(self):
        psm = _psm(functional=True)
        data = b"\xAB" * 64
        write(psm, 0, data=data)
        psm.flush(100.0)
        psm.power_cycle()
        r = read(psm, 0, time=0.0)
        assert r.data == data

    def test_unflushed_row_buffer_lost_on_power_cycle(self):
        """Pending row-buffer data dies with power — which is exactly why
        SnG must hit the flush port before the rails drop."""
        psm = _psm(functional=True)
        write(psm, 0, data=b"\xCD" * 64)
        psm.power_cycle()
        r = read(psm, 0)
        assert r.data != b"\xCD" * 64

    def test_wear_relocation_preserves_data(self):
        psm = _psm(functional=True, wear_threshold=5)
        payloads = {i: bytes([i]) * 64 for i in range(12)}
        t = 0.0
        for i, payload in payloads.items():
            response = write(psm, i * 64, time=t, data=payload)
            t = response.complete_time
        psm.flush(t)
        # force many gap movements
        for j in range(120):
            response = write(psm, (j % 12) * 64, time=t,
                             data=payloads[j % 12])
            t = response.complete_time
        done = psm.flush(t)
        for i, payload in payloads.items():
            r = read(psm, i * 64, time=done)
            assert r.data == payload, f"line {i} corrupted by wear leveling"


class TestReadMediaOf:
    """A second PSM reading a driven PSM's media, as the litmus engine
    reads a crash point's recovered state."""

    def test_reads_what_the_source_programmed_since(self):
        source = _psm(functional=True)
        reader = _psm(functional=True)
        reader.read_media_of(source)
        write(source, 128, data=b"\x11" * 64)
        assert read(reader, 128).data != b"\x11" * 64  # still buffered
        source.flush(100.0)
        assert read(reader, 128).data == b"\x11" * 64

    def test_recovering_the_reader_leaves_the_source_running(self):
        source = _psm(functional=True)
        reader = _psm(functional=True)
        reader.read_media_of(source)
        write(source, 0, data=b"\x22" * 64)
        source.flush(100.0)
        write(source, 0, data=b"\x33" * 64)   # pending in a row buffer
        reader.power_cycle()
        assert read(reader, 0).data == b"\x22" * 64
        assert read(source, 0).data == b"\x33" * 64

    def test_sees_the_source_containment_marks(self):
        source = _psm(functional=True)
        reader = _psm(functional=True)
        reader.read_media_of(source)
        write(source, 0, data=b"\x44" * 64)
        source.flush(100.0)
        _, dimm, local = source._translate(0)
        dimm.corrupt_slot(local, 0)
        response = read(reader, 0)
        assert response.reconstructed
        assert response.data == b"\x44" * 64

    def test_other_geometry_rejected(self):
        with pytest.raises(ValueError):
            _psm(functional=True).read_media_of(_psm(functional=True,
                                                     dimms=2))
        with pytest.raises(ValueError):
            _psm(functional=True).read_media_of(
                _psm(functional=True, lines_per_dimm=512))


class TestReconstruction:
    def test_read_after_write_reconstructs(self):
        psm = _psm(functional=True)
        data0 = bytes(range(64))
        # Write two lines of the same page, then close the page so the
        # drain is programming while we read.
        w = write(psm, 0, data=data0)
        write(psm, 1 << 14, time=w.complete_time)  # different page: drain
        r = read(psm, 0, time=w.complete_time + 40.0)
        assert r.data == data0
        if r.reconstructed:
            assert psm.reconstructions >= 1

    def test_corrupt_half_recovered_transparently(self):
        psm = _psm(functional=True)
        data = bytes(range(64))
        write(psm, 0, data=data)
        done = psm.flush(10.0)
        _, dimm, local = psm._translate(0)
        dimm.corrupt_slot(local, 0)
        r = read(psm, 0, time=done)
        assert r.reconstructed
        assert r.data == data

    def test_double_corruption_raises_mce(self):
        psm = _psm(functional=True)
        write(psm, 0, data=bytes(64))
        done = psm.flush(10.0)
        _, dimm, local = psm._translate(0)
        dimm.corrupt_slot(local, 0)
        dimm.corrupt_slot(local, 1)
        with pytest.raises(MachineCheckError):
            read(psm, 0, time=done)
        assert psm.mce_count == 1

    def test_symbol_ecc_rescues_double_corruption(self):
        psm = _psm(functional=True, symbol_ecc=True)
        write(psm, 0, data=bytes(64))
        done = psm.flush(10.0)
        _, dimm, local = psm._translate(0)
        dimm.corrupt_slot(local, 0)
        dimm.corrupt_slot(local, 1)
        r = read(psm, 0, time=done)
        assert r.reconstructed
        assert psm.symbol_ecc.corrections == 1

    def test_reset_port_wipes_everything(self):
        psm = _psm(functional=True)
        write(psm, 0, data=b"\x11" * 64)
        psm.flush(10.0)
        response = psm.access(MemoryRequest(MemoryOp.RESET, time=100.0))
        assert response.complete_time > 100.0
        r = read(psm, 0, time=response.complete_time)
        assert r.data == bytes(64)


class TestBaselineBehaviour:
    def test_lightpc_b_disables_advanced_features(self):
        cfg = PSMConfig.lightpc_b()
        assert not cfg.write_aggregation
        assert not cfg.early_return_writes
        assert not cfg.ecc_reconstruction

    def test_baseline_reads_block_behind_writes(self):
        b = _psm_b()
        w = write(b, 0)
        r = read(b, 64 * 24, time=w.complete_time + 10.0)  # same DIMM
        assert r.latency > 300.0  # channel held by the programming pulse

    def test_lightpc_reads_do_not_block(self):
        l = _psm()
        w = write(l, 0)
        write(l, 1 << 14, time=w.complete_time)  # drain page 0
        r = read(l, 64 * 24, time=w.complete_time + 10.0)
        assert r.latency < 150.0

    def test_write_burst_backpressure_in_baseline(self):
        b = _psm_b(write_backlog_limit_ns=1_000.0)
        t = 0.0
        stalled = 0.0
        for i in range(40):
            response = write(b, (i * 24 * 64) % b.capacity, time=t)
            stalled += response.blocked_ns
            t += 30.0
        assert stalled > 0.0

    def test_dram_like_layout_serializes_rank(self):
        wide = PSM(PSMConfig(layout="dram_like", lines_per_dimm=1024,
                             write_aggregation=False,
                             ecc_reconstruction=False))
        w = write(wide, 0)
        # any other line on the same DIMM shares all eight dies
        r = read(wide, 6 * 64, time=w.complete_time + 10.0)
        assert r.latency > 300.0


class TestCounters:
    def test_counters_shape(self):
        psm = _psm()
        write(psm, 0)
        counters = psm.counters()
        for key in ("media_line_writes", "reconstructions", "read_blocked_ns",
                    "buffer_hit_ratio", "wear_gap_moves", "mce_count"):
            assert key in counters

    def test_wear_registers_accessible(self):
        psm = _psm()
        for i in range(150):
            write(psm, (i % 7) * 64, time=i * 20.0)
        regs = psm.wear.registers()
        assert regs.write_count == 150
        assert psm.wear.gap_moves >= 1


class TestRegisterFile:
    """The EP-cut register blob: the paper's <64 B, in a fixed format."""

    def _busy_psm(self):
        psm = _psm(wear_threshold=3, rotate_seed_every=1)
        for i in range(40):
            write(psm, (i % 5) * 64, time=i * 20.0)
        return psm

    def test_blob_fits_the_paper_budget(self):
        blob = self._busy_psm().capture_registers()
        assert len(blob) == 40 < 64

    def test_roundtrip_through_power_cycle(self):
        psm = self._busy_psm()
        regs = psm.wear.registers()
        blob = psm.capture_registers()
        assert WearRegisters.unpack(blob) == regs
        psm.power_cycle()
        assert psm.wear.registers() != regs
        psm.restore_wear_registers(blob)
        assert psm.wear.registers() == regs
        assert psm.capture_registers() == blob

    def test_pack_layout_is_five_little_endian_words(self):
        regs = WearRegisters(start=1, gap=2, write_count=3, seed=0x5EED,
                             gap_cycles=5)
        assert regs.pack() == struct.pack("<5q", 1, 2, 3, 0x5EED, 5)

    def test_empty_blob_means_nothing_captured(self):
        psm = self._busy_psm()
        psm.power_cycle()
        regs = psm.wear.registers()
        psm.restore_wear_registers(b"")
        assert psm.wear.registers() == regs

    @pytest.mark.parametrize("size", [1, 39, 41, 64, 120])
    def test_bad_length_raises(self, size):
        psm = _psm()
        with pytest.raises(ValueError, match="40 B"):
            psm.restore_wear_registers(bytes(size))
