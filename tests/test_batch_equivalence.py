"""Batch/scalar equivalence for every memory backend and interposer.

A request window served through ``backend_access_batch`` must be
observationally identical to looping scalar ``access`` by hand — same
responses, same stats tree, same wear registers and counters, same
device state.  On a backend the batch is the default loop over
``RequestWindow.request_at``; the interposers (tap, throttle,
partition, fault injector) forward windows whole and must still match
their own scalar ``access``.  These tests drive the same deterministic
(and hypothesis-generated) streams through two fresh instances of each
port, one per path, and diff everything observable, including the wear
maps of the wear-tracking configurations.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.batch import RequestWindow, backend_access_batch
from repro.memory.dram import DRAMConfig, DRAMSubsystem
from repro.memory.port import (
    AddressRange,
    AddressRangePartition,
    BandwidthThrottle,
    FaultInjector,
    InjectedPowerFailure,
    LatencyTap,
)
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM, PSMConfig
from tests.equivalence import (
    BACKENDS,
    capacity_of,
    case_id_prefix,  # noqa: F401  (autouse fixture)
    state_of,
)


def make_columns(capacity: int, count: int, seed: int):
    """A deterministic line-granular stream with reuse and bursts."""
    rng = random.Random(seed)
    lines = capacity // CACHELINE_BYTES
    hot = [rng.randrange(lines) for _ in range(24)]
    is_write, addresses, times = [], [], []
    t = 0.0
    for _ in range(count):
        line = rng.choice(hot) if rng.random() < 0.6 else rng.randrange(lines)
        addresses.append(line * CACHELINE_BYTES)
        is_write.append(rng.random() < 0.35)
        times.append(t)
        t += rng.choice((0.0, 0.5, 2.0, 19.0))
    return is_write, addresses, times


def run_scalar(backend, columns) -> list:
    is_write, addresses, times = columns
    out = []
    for w, address, t in zip(is_write, addresses, times):
        out.append(backend.access(MemoryRequest(
            MemoryOp.WRITE if w else MemoryOp.READ, address, time=t)))
    return out


def run_batched(backend, columns, window: int):
    """Push the stream through ``access_batch`` in window chunks."""
    is_write, addresses, times = columns
    outputs = []
    responses = []
    for lo in range(0, len(addresses), window):
        hi = lo + window
        out = backend_access_batch(backend, RequestWindow(
            is_write[lo:hi], addresses[lo:hi], times[lo:hi]))
        outputs.append(out)
        responses.extend(out)
    return outputs, responses


def assert_equivalent(scalar_backend, batch_backend, scalar_responses,
                      batch_responses):
    assert len(scalar_responses) == len(batch_responses)
    for index, (a, b) in enumerate(zip(scalar_responses, batch_responses)):
        assert repr(a) == repr(b), f"response {index} diverged"
    assert state_of(scalar_backend) == state_of(batch_backend)


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @pytest.mark.parametrize("window", (1, 64, 4096))
    def test_window_batches_match_scalar(self, name, window):
        capacity = capacity_of(BACKENDS[name]())
        columns = make_columns(capacity, 600, seed=hash(name) & 0xFFFF)
        scalar = BACKENDS[name]()
        batched = BACKENDS[name]()
        scalar_responses = run_scalar(scalar, columns)
        _, batch_responses = run_batched(batched, columns, window)
        assert_equivalent(scalar, batched, scalar_responses, batch_responses)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_request_list_matches_scalar(self, name):
        """The list form (plain MemoryRequest sequence) is equivalent too."""
        capacity = capacity_of(BACKENDS[name]())
        columns = make_columns(capacity, 200, seed=7)
        is_write, addresses, times = columns
        requests = [
            MemoryRequest(MemoryOp.WRITE if w else MemoryOp.READ, a, time=t)
            for w, a, t in zip(is_write, addresses, times)
        ]
        scalar = BACKENDS[name]()
        batched = BACKENDS[name]()
        scalar_responses = run_scalar(scalar, columns)
        batch_responses = list(backend_access_batch(batched, requests))
        assert_equivalent(scalar, batched, scalar_responses, batch_responses)

    def test_seed_rotation_matches_scalar(self):
        """A write stream long enough to rotate the randomizer seed
        several times still matches the scalar path."""

        def build():
            return PSM(PSMConfig(
                dimms=2, lines_per_dimm=64, wear_threshold=1,
                wear_randomize_unit=1, rotate_seed_every=1))

        lines = build().capacity // CACHELINE_BYTES
        columns = ([True] * 600,
                   [(i * 7 % lines) * CACHELINE_BYTES for i in range(600)],
                   [float(i) for i in range(600)])
        scalar = build()
        batched = build()
        scalar_responses = run_scalar(scalar, columns)
        _, batch_responses = run_batched(batched, columns, 256)
        assert scalar.wear.seed_rotations >= 2
        assert_equivalent(scalar, batched, scalar_responses, batch_responses)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_property_random_streams(self, name, data):
        """Hypothesis-shaped streams: mixes, reuse, ties and zero gaps."""
        ops = data.draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 255),
                      st.sampled_from((0.0, 1.0, 33.0))),
            min_size=1, max_size=120))
        window = data.draw(st.sampled_from((1, 7, 64, 200)))
        is_write, addresses, times = [], [], []
        t = 0.0
        for w, line, gap in ops:
            is_write.append(w)
            addresses.append(line * CACHELINE_BYTES)
            times.append(t)
            t += gap
        columns = (is_write, addresses, times)
        scalar = BACKENDS[name]()
        batched = BACKENDS[name]()
        scalar_responses = run_scalar(scalar, columns)
        _, batch_responses = run_batched(batched, columns, window)
        assert_equivalent(scalar, batched, scalar_responses, batch_responses)


class TestInterposerEquivalence:
    def _chain(self):
        """tap -> throttle -> PSM, the shape machine platforms build."""
        psm = PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10))
        return LatencyTap(BandwidthThrottle(psm, bytes_per_ns=2.0),
                          name="port")

    def test_tap_throttle_chain_matches_scalar(self):
        capacity = capacity_of(PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)))
        columns = make_columns(capacity, 500, seed=21)
        scalar = self._chain()
        batched = self._chain()
        scalar_responses = run_scalar(scalar, columns)
        _, batch_responses = run_batched(batched, columns, 128)
        assert_equivalent(scalar, batched, scalar_responses, batch_responses)

    def test_partition_routes_batches_like_scalar(self):
        half = 1 << 20

        def build():
            return AddressRangePartition([
                AddressRange(0, half, DRAMSubsystem(
                    DRAMConfig(capacity=half, ranks=4))),
                AddressRange(half, 2 * half, PSM(
                    PSMConfig(dimms=2, lines_per_dimm=1 << 13))),
            ])

        columns = make_columns(2 * half, 500, seed=33)
        scalar = build()
        batched = build()
        scalar_responses = run_scalar(scalar, columns)
        _, batch_responses = run_batched(batched, columns, 128)
        assert_equivalent(scalar, batched, scalar_responses, batch_responses)

    @pytest.mark.parametrize("crash_at", (0, 1, 7, 250, 499))
    def test_fault_injection_split_matches_scalar(self, crash_at):
        """A window containing the crash op serves exactly the scalar
        prefix, then raises with that prefix in ``completed``."""

        def build():
            return FaultInjector(
                PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)),
                crash_at_op=crash_at)

        capacity = capacity_of(PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)))
        columns = make_columns(capacity, 500, seed=55)
        scalar = build()
        batched = build()

        scalar_responses = []
        is_write, addresses, times = columns
        with pytest.raises(InjectedPowerFailure):
            for w, address, t in zip(is_write, addresses, times):
                scalar_responses.append(scalar.access(MemoryRequest(
                    MemoryOp.WRITE if w else MemoryOp.READ, address,
                    time=t)))

        # Windows before the crash return normally; the crashing window
        # raises with its served prefix in ``completed``.  Scalar-served
        # work is the concatenation of both.
        batch_responses = []
        with pytest.raises(InjectedPowerFailure) as excinfo:
            for lo in range(0, len(addresses), 128):
                hi = lo + 128
                batch_responses.extend(backend_access_batch(
                    batched, RequestWindow(
                        is_write[lo:hi], addresses[lo:hi], times[lo:hi])))
        batch_responses.extend(excinfo.value.completed)

        assert len(scalar_responses) == crash_at
        assert len(batch_responses) == crash_at
        for a, b in zip(scalar_responses, batch_responses):
            assert repr(a) == repr(b)
        assert scalar.op_index == batched.op_index
        assert scalar.tripped and batched.tripped
        assert state_of(scalar.inner) == state_of(batched.inner)

    def test_protocol_only_backend_gets_default_loop(self):
        """A third-party backend implementing only scalar ``access`` is
        served by the default loop through ``backend_access_batch``."""

        class Minimal:
            def __init__(self):
                self.inner = DRAMSubsystem(
                    DRAMConfig(capacity=1 << 20, ranks=4))

            def access(self, request):
                return self.inner.access(request)

        columns = make_columns(1 << 20, 150, seed=77)
        scalar = Minimal()
        batched = Minimal()
        scalar_responses = run_scalar(scalar, columns)
        outputs, batch_responses = run_batched(batched, columns, 64)
        for out in outputs:
            assert isinstance(out, list)  # default loop, not a window
        for a, b in zip(scalar_responses, batch_responses):
            assert repr(a) == repr(b)
        assert state_of(scalar.inner) == state_of(batched.inner)


class TestFaultInjectorWindowEdges:
    """Satellite regression: the off-by-one edges of the batch split —
    op 0, the final element of a window, and one past the end."""

    N = 12

    def _build(self, crash_at):
        return FaultInjector(
            PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10)),
            crash_at_op=crash_at)

    def _window(self):
        return RequestWindow([True] * self.N,
                             [i * CACHELINE_BYTES for i in range(self.N)],
                             [0.0] * self.N)

    def test_crash_at_op_zero_serves_empty_prefix(self):
        port = self._build(0)
        with pytest.raises(InjectedPowerFailure) as excinfo:
            backend_access_batch(port, self._window())
        assert excinfo.value.completed == []
        assert port.op_index == 0 and port.tripped
        assert state_of(port.inner) == state_of(self._build(0).inner)

    def test_crash_at_final_element_serves_all_but_one(self):
        batched = self._build(self.N - 1)
        scalar = self._build(self.N - 1)
        with pytest.raises(InjectedPowerFailure) as batch_err:
            backend_access_batch(batched, self._window())
        scalar_served = []
        window = self._window()
        with pytest.raises(InjectedPowerFailure):
            for index in range(self.N):
                scalar_served.append(scalar.access(window.request_at(index)))
        assert len(batch_err.value.completed) == self.N - 1
        assert len(scalar_served) == self.N - 1
        for a, b in zip(scalar_served, batch_err.value.completed):
            assert repr(a) == repr(b)
        assert scalar.op_index == batched.op_index == self.N - 1
        assert state_of(scalar.inner) == state_of(batched.inner)

    def test_crash_one_past_the_end_forwards_whole(self):
        port = self._build(self.N)
        responses = backend_access_batch(port, self._window())
        assert len(responses) == self.N
        assert not port.tripped and port.op_index == self.N
        with pytest.raises(InjectedPowerFailure):
            port.access(MemoryRequest(MemoryOp.READ, 0, time=0.0))


def test_subwindow_of_list_window_copies_shallowly():
    """Interposers slice windows into subwindows and rebase them; the
    slices are copies, so the parent window is never written through."""
    window = RequestWindow(
        [i % 3 == 0 for i in range(16)],
        [i * 64 for i in range(16)],
        [float(i) * 10.0 for i in range(16)],
    )
    sub = window.subwindow(4, 12)
    assert sub.addresses == window.addresses[4:12]
    sub.addresses[0] = 0xDEAD
    assert window.addresses[4] == 4 * 64  # parent untouched
