"""Windowed/per-record equivalence of the core drain on every backend.

Scalar ``access`` is the only way a request crosses the memory port, so
the one batched path left is the core's: :meth:`Core.execute_window`
(what the window, extent and epoch engines drain through) must be
observationally identical to one :meth:`Core.execute` per record — same
clock, same core and cache stats, same dirty set at the next
persistence cut, and the same backend stats tree, wear registers,
counters and device state.  These tests drive the same deterministic
(and hypothesis-generated) record streams through two fresh cores over
two fresh instances of each backend and interposer chain, one per path,
and diff everything observable, including the wear maps of the
wear-tracking configurations and the state a mid-window power cut
leaves behind.  A small D$ keeps misses and dirty write-backs frequent,
so every window reaches the backend many times.

Also pinned here: :func:`~repro.memory.batch.default_access_batch` over
a :class:`FaultInjector`, at the off-by-one edges of the crash index.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import CacheConfig
from repro.cpu.core import Core, CoreConfig
from repro.engine.scalar import ScalarEngine
from repro.engine.window import WindowEngine
from repro.memory.batch import default_access_batch
from repro.memory.dram import DRAMConfig, DRAMSubsystem
from repro.memory.port import (
    AddressRange,
    AddressRangePartition,
    FaultInjector,
    InjectedPowerFailure,
)
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM, PSMConfig
from repro.sim.stats import StatsRegistry
from tests.equivalence import (
    BACKENDS,
    capacity_of,
    case_id_prefix,  # noqa: F401  (autouse fixture)
    injector_partition_chain,
    state_of,
)

#: 32 lines in 16 sets: most misses evict, many evictions are dirty
SMALL_CACHE = CoreConfig(cache=CacheConfig(size_bytes=2 * 1024, ways=2))


def make_records(capacity: int, count: int, seed: int) -> list[tuple]:
    """A deterministic line-granular record stream with reuse and bursts."""
    rng = random.Random(seed)
    lines = capacity // CACHELINE_BYTES
    hot = [rng.randrange(lines) for _ in range(24)]
    records = []
    for _ in range(count):
        line = rng.choice(hot) if rng.random() < 0.6 else rng.randrange(lines)
        records.append((rng.choice((0, 1, 3, 40)), line * CACHELINE_BYTES,
                        rng.random() < 0.35))
    return records


def make_core(backend, engine=None) -> Core:
    return Core(0, backend, SMALL_CACHE, engine=engine or ScalarEngine())


def run_scalar(core, records) -> None:
    for instructions, address, is_write in records:
        core.execute(instructions, address, is_write)


def run_windowed(core, records, window: int) -> None:
    for lo in range(0, len(records), window):
        core.execute_window(records[lo:lo + window])


def core_state(core):
    """The core's clock, execution stats and D$ stats."""
    registry = StatsRegistry()
    core.register_stats(registry.scoped("core"))
    return core.now, core._flush_debt, registry.flat()


def report_of(core):
    """The last persistence cut's report, responses as latencies."""
    report = core.last_flush_report
    if report is None:
        return None
    return (report.lines, report.extents, report.start_ns, report.done_ns,
            report.blocked_ns, report.latencies())


def assert_equivalent(scalar_core, window_core, scalar_backend=None,
                      window_backend=None):
    """Same core state, same persistence cut, same backend state."""
    assert core_state(scalar_core) == core_state(window_core)
    assert scalar_core.flush_cache() == window_core.flush_cache()
    assert core_state(scalar_core) == core_state(window_core)
    assert report_of(scalar_core) == report_of(window_core)
    assert state_of(scalar_backend or scalar_core.backend) == \
        state_of(window_backend or window_core.backend)


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @pytest.mark.parametrize("window", (1, 64, 4096))
    def test_window_batches_match_scalar(self, name, window):
        capacity = capacity_of(BACKENDS[name]())
        records = make_records(capacity, 600, seed=hash(name) & 0xFFFF)
        scalar = make_core(BACKENDS[name]())
        windowed = make_core(BACKENDS[name]())
        run_scalar(scalar, records)
        run_windowed(windowed, records, window)
        assert_equivalent(scalar, windowed)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_request_list_matches_scalar(self, name):
        """A record list drained by the engines: the window engine's
        drain and cut against the scalar engine's."""
        capacity = capacity_of(BACKENDS[name]())
        records = make_records(capacity, 200, seed=7)
        scalar = make_core(BACKENDS[name]())
        windowed = make_core(BACKENDS[name](), WindowEngine(window=64))
        scalar.engine.drain(scalar, records)
        windowed.engine.drain(windowed, records)
        assert_equivalent(scalar, windowed)

    def test_seed_rotation_matches_scalar(self):
        """A write stream long enough to rotate the randomizer seed
        several times still matches the per-record path."""

        def build():
            return PSM(PSMConfig(
                dimms=2, lines_per_dimm=64, wear_threshold=1,
                wear_randomize_unit=1, rotate_seed_every=1))

        lines = build().capacity // CACHELINE_BYTES
        records = [(2, (i * 7 % lines) * CACHELINE_BYTES, True)
                   for i in range(600)]
        scalar = make_core(build())
        windowed = make_core(build())
        run_scalar(scalar, records)
        run_windowed(windowed, records, 256)
        assert scalar.backend.wear.seed_rotations >= 2
        assert_equivalent(scalar, windowed)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_property_random_streams(self, name, data):
        """Hypothesis-shaped streams: mixes, reuse, conflicts, no compute."""
        records = data.draw(st.lists(
            st.tuples(st.sampled_from((0, 1, 33)),
                      st.integers(0, 255).map(lambda line:
                                              line * CACHELINE_BYTES),
                      st.booleans()),
            min_size=1, max_size=120))
        window = data.draw(st.sampled_from((1, 7, 64, 200)))
        scalar = make_core(BACKENDS[name]())
        windowed = make_core(BACKENDS[name]())
        run_scalar(scalar, records)
        run_windowed(windowed, records, window)
        assert_equivalent(scalar, windowed)


class TestInterposerEquivalence:
    def test_injector_partition_chain_matches_scalar(self):
        records = make_records(capacity_of(injector_partition_chain()), 500,
                               seed=21)
        scalar = make_core(injector_partition_chain())
        windowed = make_core(injector_partition_chain())
        run_scalar(scalar, records)
        run_windowed(windowed, records, 128)
        assert_equivalent(scalar, windowed)
        assert windowed.backend.op_index > 0

    def test_partition_routes_batches_like_scalar(self):
        half = 1 << 20

        def build():
            return AddressRangePartition([
                AddressRange(0, half, DRAMSubsystem(
                    DRAMConfig(capacity=half, ranks=4))),
                AddressRange(half, 2 * half, PSM(
                    PSMConfig(dimms=2, lines_per_dimm=1 << 13))),
            ])

        records = make_records(2 * half, 500, seed=33)
        scalar = make_core(build())
        windowed = make_core(build())
        run_scalar(scalar, records)
        run_windowed(windowed, records, 128)
        assert_equivalent(scalar, windowed)

    @pytest.mark.parametrize("crash_at", (0, 1, 7, 250, 499))
    def test_fault_injection_split_matches_scalar(self, crash_at):
        """A power cut inside a window leaves exactly the per-record
        prefix: clock, stats, op count and backend state."""

        def build():
            return FaultInjector(
                PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)),
                crash_at_op=crash_at)

        capacity = capacity_of(PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)))
        records = make_records(capacity, 1_500, seed=55)
        scalar = make_core(build())
        windowed = make_core(build())
        with pytest.raises(InjectedPowerFailure) as scalar_err:
            run_scalar(scalar, records)
        with pytest.raises(InjectedPowerFailure) as window_err:
            run_windowed(windowed, records, 128)

        assert str(scalar_err.value) == str(window_err.value)
        assert scalar.backend.op_index == windowed.backend.op_index \
            == crash_at
        assert scalar.backend.tripped and windowed.backend.tripped
        assert core_state(scalar) == core_state(windowed)
        assert state_of(scalar.backend.inner) == \
            state_of(windowed.backend.inner)

    def test_protocol_only_backend_gets_default_loop(self):
        """A third-party backend implementing only scalar ``access``
        serves both drains and the persistence cut."""

        class Minimal:
            def __init__(self):
                self.inner = DRAMSubsystem(
                    DRAMConfig(capacity=1 << 20, ranks=4))

            def access(self, request):
                return self.inner.access(request)

        records = make_records(1 << 20, 150, seed=77)
        scalar = make_core(Minimal())
        windowed = make_core(Minimal())
        run_scalar(scalar, records)
        run_windowed(windowed, records, 64)
        assert_equivalent(scalar, windowed, scalar.backend.inner,
                          windowed.backend.inner)


class TestFaultInjectorWindowEdges:
    """The off-by-one edges of a crash inside a request list served by
    ``default_access_batch`` — op 0, the final element, one past the
    end."""

    N = 12

    def _build(self, crash_at):
        return FaultInjector(
            PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)),
            crash_at_op=crash_at)

    def _requests(self, count=N):
        return [MemoryRequest(MemoryOp.WRITE, i * CACHELINE_BYTES, time=0.0)
                for i in range(count)]

    def test_crash_at_op_zero_serves_empty_prefix(self):
        port = self._build(0)
        with pytest.raises(InjectedPowerFailure):
            default_access_batch(port, self._requests())
        assert port.op_index == 0 and port.tripped
        assert state_of(port.inner) == state_of(self._build(0).inner)

    def test_crash_at_final_element_serves_all_but_one(self):
        batched = self._build(self.N - 1)
        reference = self._build(None)
        with pytest.raises(InjectedPowerFailure):
            default_access_batch(batched, self._requests())
        served = default_access_batch(reference, self._requests(self.N - 1))
        assert len(served) == self.N - 1
        assert batched.op_index == reference.op_index == self.N - 1
        assert state_of(batched.inner) == state_of(reference.inner)

    def test_crash_one_past_the_end_forwards_whole(self):
        port = self._build(self.N)
        responses = default_access_batch(port, self._requests())
        assert len(responses) == self.N
        assert [r.request.address for r in responses] == \
            [i * CACHELINE_BYTES for i in range(self.N)]
        assert not port.tripped and port.op_index == self.N
        with pytest.raises(InjectedPowerFailure):
            port.access(MemoryRequest(MemoryOp.READ, 0, time=0.0))
