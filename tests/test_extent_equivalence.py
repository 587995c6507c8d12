"""The extent flush against the write-back spelled out by hand.

:func:`~repro.memory.extent.default_flush_extents` writes every line of
an extent list back through scalar ``access`` and folds the responses
into a :class:`~repro.memory.extent.FlushReport`.  Against a hand-written
loop (one WRITE per line, the report fields computed by hand) it must
give the same report, the same per-line responses, and leave the same
stats tree, wear registers, counters and device state — on every
backend, through the interposer chain and partition routing, and with a
:class:`FaultInjector` cutting power mid-extent (same error, same tick
count, same served-prefix state).

Also covered here: flush/drain stats restarting from zero after
``power_cycle`` under a full chain, SnG Stop/Go report identity between
the two write-backs, the incremental PCB snapshot's reuse accounting,
and :class:`DirtyExtentMap` coalescing.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.dram import DRAMConfig, DRAMSubsystem
from repro.memory.extent import (
    DirtyExtentMap,
    Extent,
    FlushReport,
    coalesce_lines,
    default_flush_extents,
)
from repro.memory.port import (
    AddressRange,
    AddressRangePartition,
    BandwidthThrottle,
    FaultInjector,
    InjectedPowerFailure,
    LatencyTap,
)
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
)
from repro.ocpmem.psm import PSM, PSMConfig
from repro.pecos.kernel import Kernel
from repro.pecos.sng import SnG
from repro.persistence.acheckpc import ACheckPC
from repro.persistence.scheckpc import SCheckPC
from repro.sim.stats import StatsRegistry
from tests.equivalence import (
    BACKENDS,
    capacity_of,
    case_id_prefix,  # noqa: F401  (autouse fixture)
    state_of,
)


def make_extents(capacity: int, count: int, seed: int) -> list[Extent]:
    """A cache-shaped dirty population: clustered runs plus scatter."""
    rng = random.Random(seed)
    lines = capacity // CACHELINE_BYTES
    chosen: set[int] = set()
    while len(chosen) < count:
        base = rng.randrange(lines)
        run = rng.choice((1, 4, 16, 48)) if rng.random() < 0.75 else 1
        for i in range(run):
            if len(chosen) >= count:
                break
            chosen.add((base + i) % lines)
    return coalesce_lines(line * CACHELINE_BYTES for line in chosen)


def flush_by_hand(port, extents: list[Extent], time: float) -> FlushReport:
    """The write-back spelled out: one WRITE ``access`` per line, in
    order, with the report's horizon and backpressure folded by hand."""
    responses = []
    for extent in extents:
        for address in range(extent.start, extent.end, extent.size):
            responses.append(port.access(MemoryRequest(
                MemoryOp.WRITE, address, size=extent.size, time=time)))
    blocked = 0.0
    for response in responses:
        blocked += response.blocked_ns
    return FlushReport(
        lines=len(responses), extents=len(extents), start_ns=time,
        done_ns=max([time] + [r.complete_time for r in responses]),
        blocked_ns=blocked, responses=responses)


def assert_equivalent(scalar_backend, extent_backend, scalar_report,
                      extent_report):
    assert scalar_report.lines == extent_report.lines
    assert scalar_report.extents == extent_report.extents
    assert scalar_report.start_ns == extent_report.start_ns
    assert scalar_report.done_ns == extent_report.done_ns
    assert scalar_report.blocked_ns == extent_report.blocked_ns
    assert scalar_report.latencies() == extent_report.latencies()
    for index in range(len(scalar_report.responses)):
        a = scalar_report.responses[index]
        b = extent_report.responses[index]
        assert repr(a) == repr(b), f"response {index} diverged"
    assert state_of(scalar_backend) == state_of(extent_backend)


def warm_up(backend, capacity: int, seed: int, count: int = 200) -> None:
    """Run a mixed scalar stream so the flush starts from a dirty,
    mid-generation device state (open row buffers, moved gaps)."""
    rng = random.Random(seed)
    lines = capacity // CACHELINE_BYTES
    t = 0.0
    for _ in range(count):
        op = MemoryOp.WRITE if rng.random() < 0.5 else MemoryOp.READ
        backend.access(MemoryRequest(
            op, rng.randrange(lines) * CACHELINE_BYTES, time=t))
        t += rng.choice((0.0, 1.0, 25.0))


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @pytest.mark.parametrize("count", (1, 64, 700))
    def test_flush_matches_scalar_loop(self, name, count):
        capacity = capacity_of(BACKENDS[name]())
        extents = make_extents(capacity, count, seed=hash(name) & 0xFFFF)
        scalar = BACKENDS[name]()
        port = BACKENDS[name]()
        scalar_report = flush_by_hand(scalar, extents, 0.0)
        extent_report = default_flush_extents(port, extents, 0.0)
        assert_equivalent(scalar, port, scalar_report, extent_report)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_flush_from_warm_state(self, name):
        """Equivalence from a dirty mid-run state, nonzero issue time."""
        capacity = capacity_of(BACKENDS[name]())
        extents = make_extents(capacity, 300, seed=3)
        scalar = BACKENDS[name]()
        port = BACKENDS[name]()
        warm_up(scalar, capacity, seed=11)
        warm_up(port, capacity, seed=11)
        scalar_report = flush_by_hand(scalar, extents, 5_000.0)
        extent_report = default_flush_extents(port, extents, 5_000.0)
        assert_equivalent(scalar, port, scalar_report, extent_report)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_property_random_extent_lists(self, name, data):
        """Hypothesis-shaped dirty sets: singletons, runs, duplicates."""
        runs = data.draw(st.lists(
            st.tuples(st.integers(0, 255), st.integers(1, 48)),
            min_size=1, max_size=30))
        addresses = []
        for start, length in runs:
            addresses.extend(
                (start + i) * CACHELINE_BYTES for i in range(length))
        extents = coalesce_lines(addresses)
        scalar = BACKENDS[name]()
        port = BACKENDS[name]()
        scalar_report = flush_by_hand(scalar, extents, 0.0)
        extent_report = default_flush_extents(port, extents, 0.0)
        assert_equivalent(scalar, port, scalar_report, extent_report)

    def test_psm_out_of_capacity_matches_scalar_error(self):
        """Both write-backs raise the same AddressSpaceError text and
        leave identical served-prefix state behind."""
        psm_scalar = PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10))
        psm_port = PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10))
        lines = psm_scalar.capacity // CACHELINE_BYTES
        extents = [
            Extent(0, 8),
            Extent((lines - 4) * CACHELINE_BYTES, 16),  # runs past the end
        ]
        with pytest.raises(AddressSpaceError) as scalar_err:
            flush_by_hand(psm_scalar, extents, 0.0)
        with pytest.raises(AddressSpaceError) as port_err:
            default_flush_extents(psm_port, extents, 0.0)
        assert str(scalar_err.value) == str(port_err.value)
        assert state_of(psm_scalar) == state_of(psm_port)

    def test_protocol_only_backend_gets_default_loop(self):
        class Minimal:
            def __init__(self):
                self.inner = DRAMSubsystem(
                    DRAMConfig(capacity=1 << 20, ranks=4))

            def access(self, request):
                return self.inner.access(request)

        extents = make_extents(1 << 20, 120, seed=77)
        scalar = Minimal()
        fallback = Minimal()
        scalar_report = flush_by_hand(scalar, extents, 0.0)
        extent_report = default_flush_extents(fallback, extents, 0.0)
        assert isinstance(extent_report.responses, list)  # default loop
        assert scalar_report.done_ns == extent_report.done_ns
        assert scalar_report.blocked_ns == extent_report.blocked_ns
        assert state_of(scalar.inner) == state_of(fallback.inner)


class TestInterposerEquivalence:
    def _chain(self):
        """tap -> throttle -> PSM, the shape machine platforms build."""
        psm = PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10))
        return LatencyTap(BandwidthThrottle(psm, bytes_per_ns=2.0),
                          name="port")

    def test_tap_throttle_chain_matches_scalar(self):
        capacity = capacity_of(PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)))
        extents = make_extents(capacity, 500, seed=21)
        scalar = self._chain()
        port = self._chain()
        scalar_report = flush_by_hand(scalar, extents, 0.0)
        extent_report = default_flush_extents(port, extents, 0.0)
        assert_equivalent(scalar, port, scalar_report, extent_report)
        assert extent_report.lines == sum(e.lines for e in extents)

    def test_partition_routes_extents_like_scalar(self):
        half = 1 << 20

        def build():
            return AddressRangePartition([
                AddressRange(0, half, DRAMSubsystem(
                    DRAMConfig(capacity=half, ranks=4))),
                AddressRange(half, 2 * half, PSM(
                    PSMConfig(dimms=2, lines_per_dimm=1 << 13))),
            ])

        extents = make_extents(2 * half, 500, seed=33)
        scalar = build()
        port = build()
        scalar_report = flush_by_hand(scalar, extents, 0.0)
        extent_report = default_flush_extents(port, extents, 0.0)
        assert_equivalent(scalar, port, scalar_report, extent_report)

    def test_partition_subdivides_straddling_extent(self):
        """A line-aligned extent across the boundary is served line by
        line on both sides of it, not rejected."""
        half = 1 << 20

        def build():
            return AddressRangePartition([
                AddressRange(0, half, DRAMSubsystem(
                    DRAMConfig(capacity=half, ranks=4))),
                AddressRange(half, 2 * half, PSM(
                    PSMConfig(dimms=2, lines_per_dimm=1 << 13))),
            ])

        straddling = [Extent(half - 2 * CACHELINE_BYTES, 4)]
        scalar = build()
        port = build()
        scalar_report = flush_by_hand(scalar, straddling, 0.0)
        extent_report = default_flush_extents(port, straddling, 0.0)
        assert_equivalent(scalar, port, scalar_report, extent_report)

    def test_partition_boundary_crossing_matches_scalar_error(self):
        """A line that spans a non-line-aligned region edge raises the
        same boundary-crossing error from both write-backs."""
        edge = (1 << 20) + 32  # mid-line region edge

        def build():
            return AddressRangePartition([
                AddressRange(0, edge, DRAMSubsystem(
                    DRAMConfig(capacity=1 << 20, ranks=4))),
                AddressRange(edge, 1 << 21, PSM(
                    PSMConfig(dimms=2, lines_per_dimm=1 << 13))),
            ])

        crossing = [Extent(0, 2), Extent(1 << 20, 1)]
        scalar = build()
        port = build()
        with pytest.raises(AddressSpaceError) as scalar_err:
            flush_by_hand(scalar, crossing, 0.0)
        with pytest.raises(AddressSpaceError) as port_err:
            default_flush_extents(port, crossing, 0.0)
        assert str(scalar_err.value) == str(port_err.value)
        assert "crosses the region boundary" in str(port_err.value)

    def test_partition_outside_region_matches_scalar_error(self):
        region = AddressRange(0, 1 << 20, DRAMSubsystem(
            DRAMConfig(capacity=1 << 20, ranks=4)))
        scalar = AddressRangePartition([region])
        port = AddressRangePartition([AddressRange(
            0, 1 << 20, DRAMSubsystem(DRAMConfig(capacity=1 << 20,
                                                 ranks=4)))])
        outside = [Extent(0, 2), Extent(1 << 21, 1)]
        with pytest.raises(AddressSpaceError) as scalar_err:
            flush_by_hand(scalar, outside, 0.0)
        with pytest.raises(AddressSpaceError) as port_err:
            default_flush_extents(port, outside, 0.0)
        assert str(scalar_err.value) == str(port_err.value)
        assert "outside every partition region" in str(port_err.value)


class TestFaultInjectorMidExtent:
    """A crash index inside an extent tears it exactly: the same error,
    tick count and served-prefix state (wear registers included) as the
    hand-written loop."""

    CONFIG = dict(dimms=2, lines_per_dimm=1 << 10)

    def _build(self, crash_at):
        return FaultInjector(PSM(PSMConfig(**self.CONFIG)),
                             crash_at_op=crash_at)

    @pytest.mark.parametrize("crash_at", (0, 1, 5, 37, 250, 499))
    def test_crash_splits_extent_exactly(self, crash_at):
        capacity = PSM(PSMConfig(**self.CONFIG)).capacity
        extents = make_extents(capacity, 500, seed=55)
        scalar = self._build(crash_at)
        port = self._build(crash_at)

        with pytest.raises(InjectedPowerFailure) as scalar_err:
            flush_by_hand(scalar, extents, 0.0)
        with pytest.raises(InjectedPowerFailure) as port_err:
            default_flush_extents(port, extents, 0.0)

        assert str(scalar_err.value) == str(port_err.value)
        assert scalar.op_index == port.op_index == crash_at
        assert scalar.tripped and port.tripped
        assert state_of(scalar.inner) == state_of(port.inner)

    def test_no_crash_in_window_advances_op_index(self):
        scalar = self._build(10_000)
        port = self._build(10_000)
        extents = [Extent(0, 8), Extent(1 << 12, 4)]
        scalar_report = flush_by_hand(scalar, extents, 0.0)
        extent_report = default_flush_extents(port, extents, 0.0)
        assert scalar.op_index == port.op_index == 12
        assert not scalar.tripped and not port.tripped
        assert_equivalent(scalar.inner, port.inner, scalar_report,
                          extent_report)


class TestStatsResetAfterPowerCycle:
    """Satellite: flush/drain counters under a full interposer chain
    restart from zero after ``power_cycle``; registry paths stay live."""

    def _chain(self):
        psm = PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10))
        return LatencyTap(
            BandwidthThrottle(
                FaultInjector(psm, crash_at_op=None), bytes_per_ns=2.0
            ),
            name="port",
        )

    def test_counters_restart_from_zero(self):
        chain = self._chain()
        registry = StatsRegistry()
        chain.register_stats(registry.scoped("memory"))
        before_keys = set(registry.flat())

        extents = make_extents(
            capacity_of(PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10))),
            400, seed=5)
        default_flush_extents(chain, extents, 0.0)
        flat = registry.flat()
        tap_writes = [v for k, v in flat.items() if "write" in k and v]
        assert tap_writes, "flush produced no write stats through the tap"

        chain.power_cycle()
        flat = registry.flat()
        assert set(flat) == before_keys, "stale registry nodes leaked"
        # Controller-side state zeroes in place (registry references keep
        # resolving); host-side simulation stats on the PSM persist.
        assert chain.read_latency.count == 0
        assert chain.write_latency.count == 0
        assert chain.inner.throttled_ns == 0.0
        psm = chain.inner.inner.inner
        assert not psm._pending and not psm._buffers
        assert not psm._channel_busy

        # The same chain keeps serving after the cycle, from zero.
        report = default_flush_extents(chain, extents[:4], 0.0)
        assert chain.write_latency.count == report.lines


class TestSnGReportIdentity:
    """Stop/Go reports must be byte-identical whether the dirty
    population drains through the extent flush or the hand loop."""

    def _dirty(self, psm):
        extents = make_extents(psm.capacity, 256, seed=13)
        per_core = [extents[i::8] for i in range(8)]
        return [chunk for chunk in per_core if chunk]

    def _run(self, flush_fn):
        psm = PSM()
        per_core = self._dirty(psm)
        counts = [sum(e.lines for e in chunk) for chunk in per_core]

        def flush_port(t):
            done = t
            for chunk in per_core:
                report = flush_fn(psm, chunk, t)
                if report.done_ns > done:
                    done = report.done_ns
            flushed = psm.flush(done)
            return flushed if flushed > done else done

        kernel = Kernel()
        kernel.populate()
        sng = SnG(kernel, flush_port=flush_port,
                  dirty_lines_fn=lambda: list(counts))
        stop = sng.stop()
        go = sng.go()
        assert sng.verify_resumed_state()
        return dataclasses.asdict(stop), dataclasses.asdict(go)

    def test_stop_and_go_reports_identical(self):
        scalar_stop, scalar_go = self._run(flush_by_hand)
        extent_stop, extent_go = self._run(default_flush_extents)
        assert scalar_stop == extent_stop
        assert scalar_go == extent_go

    def test_incremental_snapshot_reuses_unchanged_tasks(self):
        kernel = Kernel()
        kernel.populate()
        sng = SnG(kernel, flush_port=lambda t: t,
                  dirty_lines_fn=lambda: [0] * kernel.config.cores)
        sng.stop()
        first_serialized = sng.pcb_entries_serialized
        assert first_serialized == len(kernel.all_tasks())
        assert sng.pcb_entries_reused == 0
        # verify_resumed_state re-snapshots; parked registers compare
        # equal, so every entry is a cache hit and bytes still match.
        assert sng.verify_resumed_state()
        assert sng.pcb_entries_serialized == first_serialized
        assert sng.pcb_entries_reused == first_serialized


class TestDirtyExtentMap:
    def test_coalesces_adjacent_lines(self):
        dirty = DirtyExtentMap()
        dirty.note_write(0)
        dirty.note_write(64)
        dirty.note_write(65)  # same line as 64
        dirty.note_write(256)
        assert dirty.line_count == 3
        assert dirty.dirty_bytes == 3 * CACHELINE_BYTES
        assert dirty.extents() == [Extent(0, 2), Extent(256, 1)]

    def test_take_is_a_delta_cut(self):
        dirty = DirtyExtentMap()
        dirty.note_lines([0, 64, 128])
        assert dirty.take() == [Extent(0, 3)]
        assert not dirty
        assert dirty.take() == []

    def test_delta_checkpoint_costing_is_quiet_when_clean(self):
        psm = PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10))
        dirty = DirtyExtentMap()
        dirty.note_lines(range(0, 64 * CACHELINE_BYTES, CACHELINE_BYTES))

        scheck = SCheckPC()
        first = scheck.period_dump_port_ns(psm, dirty)
        assert first > 0.0
        assert scheck.period_dump_port_ns(psm, dirty) == 0.0  # drained

        acheck = ACheckPC()
        dirty.note_lines([0, 64])
        cost = acheck.checkpoint_port_ns(psm, dirty)
        assert cost > acheck.commit_ns
        assert acheck.checkpoint_port_ns(psm, dirty) == acheck.commit_ns


class TestFaultInjectorExtentEdges:
    """The off-by-one edges of a crash inside an extent flush — op 0,
    the final line of an extent list, and one past the end."""

    CONFIG = dict(dimms=2, lines_per_dimm=1 << 10)
    EXTENTS = [Extent(0, 8), Extent(1 << 12, 4)]   # 12 lines exactly

    def _build(self, crash_at):
        return FaultInjector(PSM(PSMConfig(**self.CONFIG)),
                             crash_at_op=crash_at)

    def test_crash_at_op_zero_serves_empty_prefix(self):
        scalar = self._build(0)
        port = self._build(0)
        with pytest.raises(InjectedPowerFailure):
            flush_by_hand(scalar, self.EXTENTS, 0.0)
        with pytest.raises(InjectedPowerFailure):
            default_flush_extents(port, self.EXTENTS, 0.0)
        assert scalar.op_index == port.op_index == 0
        assert state_of(port.inner) == state_of(self._build(None).inner)
        assert state_of(scalar.inner) == state_of(port.inner)

    def test_crash_at_final_line_serves_all_but_one(self):
        scalar = self._build(11)
        port = self._build(11)
        with pytest.raises(InjectedPowerFailure):
            flush_by_hand(scalar, self.EXTENTS, 0.0)
        with pytest.raises(InjectedPowerFailure):
            default_flush_extents(port, self.EXTENTS, 0.0)
        served = self._build(None)
        flush_by_hand(served, [Extent(0, 8), Extent(1 << 12, 3)], 0.0)
        assert scalar.op_index == port.op_index == served.op_index == 11
        assert state_of(scalar.inner) == state_of(port.inner)

    def test_crash_one_past_the_end_forwards_whole(self):
        scalar = self._build(12)
        port = self._build(12)
        scalar_report = flush_by_hand(scalar, self.EXTENTS, 0.0)
        port_report = default_flush_extents(port, self.EXTENTS, 0.0)
        assert not scalar.tripped and not port.tripped
        assert scalar.op_index == port.op_index == 12
        assert_equivalent(scalar.inner, port.inner, scalar_report,
                          port_report)
        # the *next* op is the crashed one
        with pytest.raises(InjectedPowerFailure):
            port.access(MemoryRequest(MemoryOp.READ, 0, time=0.0))


class TestDirtyExtentMapAdversarial:
    """Satellite: overlap, rewrite-after-take, and region-abutting
    extents — the patterns a litmus cut writeback actually produces."""

    def test_overlapping_note_lines_ranges_coalesce_once(self):
        dirty = DirtyExtentMap()
        dirty.note_lines(range(0, 10 * CACHELINE_BYTES, CACHELINE_BYTES))
        dirty.note_lines(range(5 * CACHELINE_BYTES, 15 * CACHELINE_BYTES,
                               CACHELINE_BYTES))
        assert dirty.line_count == 15
        assert dirty.extents() == [Extent(0, 15)]

    def test_write_take_rewrite_same_line(self):
        dirty = DirtyExtentMap()
        dirty.note_write(CACHELINE_BYTES)
        assert dirty.take() == [Extent(CACHELINE_BYTES, 1)]
        assert dirty.take() == []
        dirty.note_write(CACHELINE_BYTES)            # re-dirty after cut
        dirty.note_write(CACHELINE_BYTES)            # idempotent
        assert dirty.line_count == 1
        assert dirty.take() == [Extent(CACHELINE_BYTES, 1)]
        assert not dirty

    def test_interior_offsets_map_to_their_line(self):
        dirty = DirtyExtentMap()
        dirty.note_write(CACHELINE_BYTES + 1)
        dirty.note_write(2 * CACHELINE_BYTES - 1)
        assert dirty.extents() == [Extent(CACHELINE_BYTES, 1)]

    def _partition(self, half_lines):
        half = half_lines * CACHELINE_BYTES
        return AddressRangePartition([
            AddressRange(0, half, PSM(PSMConfig(**{
                "dimms": 2, "lines_per_dimm": 1 << 10}))),
            AddressRange(half, 2 * half, PSM(PSMConfig(**{
                "dimms": 2, "lines_per_dimm": 1 << 10}))),
        ])

    @pytest.mark.parametrize("shape", ("straddle", "end_at", "start_at"))
    def test_extents_abutting_region_boundary(self, shape):
        half_lines = 64
        boundary = half_lines * CACHELINE_BYTES
        dirty = DirtyExtentMap()
        if shape == "straddle":
            lines = range(boundary - 3 * CACHELINE_BYTES,
                          boundary + 3 * CACHELINE_BYTES, CACHELINE_BYTES)
        elif shape == "end_at":
            lines = range(boundary - 4 * CACHELINE_BYTES, boundary,
                          CACHELINE_BYTES)
        else:
            lines = range(boundary, boundary + 4 * CACHELINE_BYTES,
                          CACHELINE_BYTES)
        dirty.note_lines(lines)
        extents = dirty.take()
        assert len(extents) == 1     # coalesced across the seam

        scalar = self._partition(half_lines)
        port = self._partition(half_lines)
        scalar_report = flush_by_hand(scalar, extents, 0.0)
        port_report = default_flush_extents(port, extents, 0.0)
        assert scalar_report.lines == port_report.lines == len(list(lines))
        assert_equivalent(scalar, port, scalar_report, port_report)
