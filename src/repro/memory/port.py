"""The memory port layer: one protocol, many backends, stackable interposers.

The paper's whole evaluation method is swapping the memory subsystem under
an unchanged CPU/OS stack — DRAM for LegacyPC, OC-PMEM behind a PSM for
LightPC/LightPC-B (§V–VI) — so the boundary between the complex and its
memory deserves a formal contract rather than duck typing:

* :class:`MemoryBackend` — the protocol every memory tier implements:
  ``access(MemoryRequest) -> MemoryResponse`` plus the explicit lifecycle
  ports (``flush``, ``drain``, ``reset``, ``power_cycle``,
  ``capture_registers``/``restore_wear_registers``), introspection
  (``counters``, ``register_stats``) and the power-part inventory the
  platform charges.  Volatile memories implement the persistence ports
  honestly: DRAM's ``capture_registers`` returns ``b""`` and its ``reset``
  raises :class:`PortNotSupportedError` — there is no silent pretending.
* :class:`Interposer` — a wrapper port that forwards the whole surface to
  an inner backend.  Subclasses observe or perturb traffic without the
  backend (or the complex) knowing: :class:`LatencyTap`,
  :class:`BandwidthThrottle`, :class:`AddressRangePartition` and
  :class:`FaultInjector`.  Interposers chain —
  ``LatencyTap(BandwidthThrottle(PSM(...)))`` is itself a backend — which
  is how hybrid tiers and the crash fuzzers compose platforms without
  touching device internals.

``assert_memory_backend`` is the construction-time conformance check: it
names every missing attribute instead of letting an incomplete backend
fail deep inside a run.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.memory.batch import (
    BatchRequests,
    RequestWindow,
    backend_access_batch,
    default_access_batch,
)
from repro.memory.extent import (
    Extent,
    FlushReport,
    backend_flush_extents,
    default_flush_extents,
    report_from_responses,
    window_from_extents,
)
from repro.memory.request import (
    AddressSpaceError,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)
from repro.sim.stats import LatencyStats, StatsRegistry

__all__ = [
    "AddressRange",
    "AddressRangePartition",
    "BandwidthThrottle",
    "FaultInjector",
    "InjectedPowerFailure",
    "Interposer",
    "LatencyTap",
    "MemoryBackend",
    "PortNotSupportedError",
    "PowerPart",
    "assert_memory_backend",
]

#: One power-model row: (component name, instance count, counters or None).
PowerPart = tuple[str, float, Optional[Mapping[str, float]]]


class PortNotSupportedError(ValueError):
    """A lifecycle port this backend honestly does not implement.

    Subclasses :class:`ValueError` so callers that probed with broad
    ``except ValueError`` guards (and tests written against them) keep
    working; new code should catch this type.
    """


class InjectedPowerFailure(RuntimeError):
    """Raised by :class:`FaultInjector` at the scheduled crash point.

    ``completed`` carries the responses for the prefix of a batch that
    finished before the crash tripped, so interposers above the injector
    can account for the served prefix exactly (latency taps record it,
    throttles charge its shaping delay) before re-raising.  Scalar
    crashes leave it empty.
    """

    def __init__(
        self,
        message: str,
        completed: Optional[list[MemoryResponse]] = None,
    ) -> None:
        super().__init__(message)
        self.completed: list[MemoryResponse] = (
            completed if completed is not None else []
        )


@runtime_checkable
class MemoryBackend(Protocol):
    """What a platform needs from a memory tier.

    Timing methods take and return nanoseconds.  Lifecycle ports that a
    technology genuinely lacks raise :class:`PortNotSupportedError`
    (``reset`` on DRAM) or degrade to honest no-ops (``capture_registers``
    returning ``b""`` when there is no register file to persist).

    Scalar :meth:`access` is a backend's one exact implementation.
    Windows and extents reach it through
    :func:`~repro.memory.batch.backend_access_batch` and
    :func:`~repro.memory.extent.backend_flush_extents`, which loop over
    ``access`` unless the object is an interposer that forwards them
    (:class:`Interposer`).
    """

    is_volatile: bool

    @property
    def capacity(self) -> int:
        """Host-visible capacity in bytes."""
        ...

    @property
    def buffer_hit_ratio(self) -> float:
        """Row/aggregation-buffer hit ratio (0.0 when not applicable)."""
        ...

    def access(self, request: MemoryRequest) -> MemoryResponse: ...

    def flush(self, time: float) -> float:
        """Close buffers and drain in-flight work; returns the done time."""
        ...

    def drain(self, time: float) -> float:
        """Quiesce time without closing buffers (fence semantics)."""
        ...

    def reset(self, time: float) -> float:
        """Bulk re-initialization port (PSM reset); may be unsupported."""
        ...

    def power_cycle(self) -> None:
        """Rails drop: volatile state is lost per the tier's semantics."""
        ...

    def capture_registers(self) -> bytes:
        """Serialize the hardware state an EP-cut must persist."""
        ...

    def restore_wear_registers(self, blob: bytes) -> None:
        """Restore state previously captured by :meth:`capture_registers`."""
        ...

    def counters(self) -> dict[str, float]: ...

    def register_stats(self, stats: StatsRegistry) -> None:
        """Publish this tier's stats under the given registry scope."""
        ...

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        """The component inventory the power model charges for this tier."""
        ...


#: Attribute names checked by :func:`assert_memory_backend`.  Batching
#: and flushing callers reach ``access`` through the default loops of
#: ``backend_access_batch`` / ``backend_flush_extents``, so neither
#: ``access_batch`` nor ``flush_extents`` is required.
_PROTOCOL_SURFACE = (
    "is_volatile",
    "capacity",
    "buffer_hit_ratio",
    "access",
    "flush",
    "drain",
    "reset",
    "power_cycle",
    "capture_registers",
    "restore_wear_registers",
    "counters",
    "register_stats",
    "power_parts",
)


def assert_memory_backend(backend: object, context: str = "") -> None:
    """Fail fast, with names, when a backend misses part of the protocol.

    ``isinstance(x, MemoryBackend)`` only answers yes/no; this lists every
    missing attribute so a half-implemented backend is diagnosable at
    machine construction instead of mid-run.
    """
    missing = [name for name in _PROTOCOL_SURFACE
               if not hasattr(backend, name)]
    if missing:
        where = f" for {context}" if context else ""
        raise TypeError(
            f"{type(backend).__name__} does not satisfy the MemoryBackend "
            f"protocol{where}: missing {', '.join(missing)}"
        )


class Interposer:
    """A pass-through port: wraps a backend and forwards everything.

    Subclasses override the methods they observe or perturb; everything
    else transparently reaches the inner backend, so a chain of
    interposers satisfies :class:`MemoryBackend` whenever its innermost
    backend does.
    """

    def __init__(self, inner: MemoryBackend) -> None:
        self.inner = inner

    # -- protocol surface (delegating) -------------------------------------

    @property
    def is_volatile(self) -> bool:
        return self.inner.is_volatile

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    @property
    def buffer_hit_ratio(self) -> float:
        return self.inner.buffer_hit_ratio

    def access(self, request: MemoryRequest) -> MemoryResponse:
        return self.inner.access(request)

    def access_batch(self, requests: BatchRequests) -> list[MemoryResponse]:
        if type(self).access is not Interposer.access:
            # The subclass customized the scalar path without providing a
            # batch form: honor its override element by element rather
            # than silently bypassing it.
            return default_access_batch(self, requests)
        return backend_access_batch(self.inner, requests)

    def flush_extents(self, extents: list[Extent], time: float) -> FlushReport:
        if type(self).access is not Interposer.access:
            # Same override-detection contract as access_batch: a scalar
            # customization must see every line.
            return default_flush_extents(self, extents, time)
        return backend_flush_extents(self.inner, extents, time)

    def flush(self, time: float) -> float:
        return self.inner.flush(time)

    def drain(self, time: float) -> float:
        return self.inner.drain(time)

    def reset(self, time: float) -> float:
        return self.inner.reset(time)

    def power_cycle(self) -> None:
        self.inner.power_cycle()

    def capture_registers(self) -> bytes:
        return self.inner.capture_registers()

    def restore_wear_registers(self, blob: bytes) -> None:
        self.inner.restore_wear_registers(blob)

    def counters(self) -> dict[str, float]:
        return self.inner.counters()

    def register_stats(self, stats: StatsRegistry) -> None:
        self.inner.register_stats(stats)

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        return self.inner.power_parts(counters)

    # -- chain helpers ------------------------------------------------------

    def unwrap(self) -> MemoryBackend:
        """The innermost real backend under any interposer chain."""
        inner = self.inner
        while isinstance(inner, Interposer):
            inner = inner.inner
        return inner


class LatencyTap(Interposer):
    """Observe-only interposer recording per-op latency distributions.

    The tap publishes its distributions under ``taps.<name>`` of whatever
    scope the chain is registered in, alongside (not instead of) the
    backend's own stats.
    """

    def __init__(self, inner: MemoryBackend, name: str = "tap") -> None:
        super().__init__(inner)
        self.name = name
        self.read_latency = LatencyStats(f"{name}.read")
        self.write_latency = LatencyStats(f"{name}.write")

    def access(self, request: MemoryRequest) -> MemoryResponse:
        response = self.inner.access(request)
        if request.op is MemoryOp.WRITE:
            self.write_latency.record(response.latency)
        elif request.op is MemoryOp.READ:
            self.read_latency.record(response.latency)
        return response

    def _record_batch(self, responses) -> None:
        # Partition per op while preserving order: each accumulator sees
        # exactly the value sequence the scalar path would feed it.
        reads: list[float] = []
        writes: list[float] = []
        for response in responses:
            op = response.request.op
            if op is MemoryOp.WRITE:
                writes.append(response.latency)
            elif op is MemoryOp.READ:
                reads.append(response.latency)
        if reads:
            self.read_latency.record_many(reads)
        if writes:
            self.write_latency.record_many(writes)

    def access_batch(self, requests: BatchRequests) -> list[MemoryResponse]:
        try:
            responses = backend_access_batch(self.inner, requests)
        except InjectedPowerFailure as failure:
            self._record_batch(failure.completed)
            raise
        self._record_batch(responses)
        return responses

    def flush_extents(self, extents: list[Extent], time: float) -> FlushReport:
        try:
            report = backend_flush_extents(self.inner, extents, time)
        except InjectedPowerFailure as failure:
            self._record_batch(failure.completed)
            raise
        self._record_batch(report.responses)
        return report

    def power_cycle(self) -> None:
        # The tap's distributions are controller-side SRAM counters: the
        # rails dropping zeroes them along with the backend's volatile
        # state.  Reset in place so StatsRegistry nodes that captured a
        # reference keep resolving (no stale dotted paths).
        self.read_latency.reset()
        self.write_latency.reset()
        self.inner.power_cycle()

    def register_stats(self, stats: StatsRegistry) -> None:
        scope = stats.scoped(f"taps.{self.name}")
        scope.register("read", self.read_latency)
        scope.register("write", self.write_latency)
        self.inner.register_stats(stats)


class BandwidthThrottle(Interposer):
    """Cap sustained read/write bandwidth in front of any backend.

    Models a narrower link (or a QoS shaper) by delaying requests so the
    stream never exceeds ``bytes_per_ns``; the shaping delay is reported
    as ``blocked_ns`` on top of whatever the backend charges.
    """

    def __init__(self, inner: MemoryBackend, bytes_per_ns: float) -> None:
        super().__init__(inner)
        if bytes_per_ns <= 0:
            raise ValueError("bytes_per_ns must be positive")
        self.bytes_per_ns = bytes_per_ns
        self._free_at = 0.0
        self.throttled_ns = 0.0

    def access(self, request: MemoryRequest) -> MemoryResponse:
        if request.op not in (MemoryOp.READ, MemoryOp.WRITE):
            return self.inner.access(request)
        delay = max(0.0, self._free_at - request.time)
        shifted = replace(request, time=request.time + delay) if delay \
            else request
        self._free_at = shifted.time + request.size / self.bytes_per_ns
        response = self.inner.access(shifted)
        if delay == 0.0:
            return response
        self.throttled_ns += delay
        return MemoryResponse(
            request,
            complete_time=response.complete_time,
            occupied_until=response.occupied_until,
            data=response.data,
            reconstructed=response.reconstructed,
            blocked_ns=response.blocked_ns + delay,
            error_contained=response.error_contained,
        )

    def _rewrap(
        self, window: RequestWindow, index: int, delay: float,
        response: MemoryResponse,
    ) -> MemoryResponse:
        if delay == 0.0:
            return response
        return MemoryResponse(
            window.request_at(index),
            complete_time=response.complete_time,
            occupied_until=response.occupied_until,
            data=response.data,
            reconstructed=response.reconstructed,
            blocked_ns=response.blocked_ns + delay,
            error_contained=response.error_contained,
        )

    def access_batch(self, requests: BatchRequests) -> list[MemoryResponse]:
        window = requests if isinstance(requests, RequestWindow) \
            else RequestWindow.from_requests(requests)
        if window is None:
            return default_access_batch(self, requests)
        # The shaping recurrence is sequential but closed-form per
        # element, so precompute the shifted issue times (and the
        # ``_free_at`` trajectory, for exact state on a mid-window crash)
        # before handing the whole window to the inner backend.
        times = window.times
        n = len(times)
        cost = window.size / self.bytes_per_ns
        free_at = self._free_at
        delays = [0.0] * n
        shifted_times = list(times)
        trajectory = [0.0] * n
        delayed = False
        for index in range(n):
            t = times[index]
            delay = free_at - t
            if delay > 0.0:
                delays[index] = delay
                delayed = True
                t = t + delay
                shifted_times[index] = t
            free_at = t + cost
            trajectory[index] = free_at
        # An undelayed stream forwards the original window untouched.
        shifted = window if not delayed else RequestWindow._bare(
            window.is_write, window.addresses, shifted_times,
            window.thread_ids, window.size,
        )
        try:
            responses = backend_access_batch(self.inner, shifted)
        except InjectedPowerFailure as failure:
            served = len(failure.completed)
            # The scalar path reserves link time before the inner access,
            # so the crashing element's reservation stands; its shaping
            # delay is only charged after a successful access, so the
            # prefix alone lands in throttled_ns.
            self._free_at = trajectory[min(served, n - 1)]
            throttled = self.throttled_ns
            completed = []
            for index, response in enumerate(failure.completed):
                delay = delays[index]
                if delay != 0.0:
                    throttled += delay
                completed.append(self._rewrap(window, index, delay, response))
            self.throttled_ns = throttled
            failure.completed = completed
            raise
        self._free_at = free_at
        throttled = self.throttled_ns
        delayed = False
        for delay in delays:
            if delay != 0.0:
                throttled += delay
                delayed = True
        self.throttled_ns = throttled
        if not delayed:
            return responses
        return [
            self._rewrap(window, index, delays[index], response)
            for index, response in enumerate(responses)
        ]

    def flush_extents(self, extents: list[Extent], time: float) -> FlushReport:
        # Shaping makes per-line issue times non-uniform, so there is no
        # homogeneous extent to forward: lower the extents onto the
        # throttle's own batched path, which precomputes the shaping
        # recurrence and already matches the scalar loop exactly.
        window = window_from_extents(extents, time)
        if window is None:
            return default_flush_extents(self, extents, time)
        return report_from_responses(
            len(extents), time, self.access_batch(window)
        )

    def power_cycle(self) -> None:
        # The link is idle after the rails drop; the shaping ledger is
        # volatile controller state and restarts from zero.
        self._free_at = 0.0
        self.throttled_ns = 0.0
        self.inner.power_cycle()

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("throttle.throttled_ns", lambda: self.throttled_ns)
        self.inner.register_stats(stats)


@dataclass(frozen=True)
class AddressRange:
    """One half-open byte range ``[start, end)`` routed to a backend."""

    start: int
    end: int
    backend: MemoryBackend
    #: Rebase addresses so the region's backend sees ``[0, end - start)``.
    rebase: bool = True

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid range [{self.start:#x}, {self.end:#x})")


class AddressRangePartition:
    """Route address ranges to different backends behind one port.

    This is how a hybrid tier is a composition, not a new device model: a
    DRAM region for the hot working set in front of a persistent region —
    ``AddressRangePartition([AddressRange(0, n, dram),
    AddressRange(n, m, psm)])`` — presents the whole span as one backend.
    Lifecycle ports fan out to every region; ``reset`` propagates
    :class:`PortNotSupportedError` from regions that lack it.
    """

    def __init__(self, regions: Sequence[AddressRange]) -> None:
        if not regions:
            raise ValueError("partition needs at least one region")
        ordered = sorted(regions, key=lambda r: r.start)
        for before, after in zip(ordered, ordered[1:]):
            if after.start < before.end:
                raise ValueError(
                    f"overlapping regions at {after.start:#x}"
                )
        self.regions = list(ordered)

    # -- routing ------------------------------------------------------------

    def _region_of(self, request: MemoryRequest) -> AddressRange:
        for region in self.regions:
            if region.start <= request.address < region.end:
                if request.end_address > region.end:
                    raise AddressSpaceError(
                        f"request [{request.address:#x}, "
                        f"{request.end_address:#x}) crosses the region "
                        f"boundary at {region.end:#x}"
                    )
                return region
        raise AddressSpaceError(
            f"address {request.address:#x} outside every partition region"
        )

    def access(self, request: MemoryRequest) -> MemoryResponse:
        if request.op in (MemoryOp.FLUSH, MemoryOp.RESET):
            port = self.flush if request.op is MemoryOp.FLUSH else self.reset
            return MemoryResponse(request, complete_time=port(request.time))
        region = self._region_of(request)
        if not region.rebase:
            return region.backend.access(request)
        inner = replace(request, address=request.address - region.start)
        response = region.backend.access(inner)
        return MemoryResponse(
            request,
            complete_time=response.complete_time,
            occupied_until=response.occupied_until,
            data=response.data,
            reconstructed=response.reconstructed,
            blocked_ns=response.blocked_ns,
            error_contained=response.error_contained,
        )

    @staticmethod
    def _rewrap(
        window: RequestWindow, index: int, response: MemoryResponse
    ) -> MemoryResponse:
        return MemoryResponse(
            window.request_at(index),
            complete_time=response.complete_time,
            occupied_until=response.occupied_until,
            data=response.data,
            reconstructed=response.reconstructed,
            blocked_ns=response.blocked_ns,
            error_contained=response.error_contained,
        )

    def _forward_run(
        self,
        window: RequestWindow,
        start: int,
        stop: int,
        region: AddressRange,
        out: list[MemoryResponse],
    ) -> None:
        sub = window.subwindow(start, stop)
        if region.rebase:
            offset = region.start
            sub.replace_addresses(
                [address - offset for address in sub.addresses]
            )
        try:
            responses = backend_access_batch(region.backend, sub)
        except InjectedPowerFailure as failure:
            if region.rebase:
                rewrapped = [
                    self._rewrap(window, start + j, response)
                    for j, response in enumerate(failure.completed)
                ]
            else:
                rewrapped = list(failure.completed)
            failure.completed = out + rewrapped
            raise
        if region.rebase:
            for j in range(len(responses)):
                out.append(self._rewrap(window, start + j, responses[j]))
        else:
            out.extend(responses)

    def access_batch(self, requests: BatchRequests) -> list[MemoryResponse]:
        """Batch access, split only at region boundaries.

        Maximal contiguous same-region runs are forwarded as sub-windows;
        an out-of-range element first flushes the pending run (matching
        the scalar path's partial side effects) and then raises.
        """
        window = requests if isinstance(requests, RequestWindow) \
            else RequestWindow.from_requests(requests)
        if window is None:
            return default_access_batch(self, requests)
        out: list[MemoryResponse] = []
        addresses = window.addresses
        size = window.size
        run_start = 0
        run_region: Optional[AddressRange] = None
        for index, address in enumerate(addresses):
            found: Optional[AddressRange] = None
            for region in self.regions:
                if region.start <= address < region.end:
                    found = region
                    break
            error: Optional[AddressSpaceError] = None
            if found is None:
                error = AddressSpaceError(
                    f"address {address:#x} outside every partition region"
                )
            elif address + size > found.end:
                error = AddressSpaceError(
                    f"request [{address:#x}, {address + size:#x}) crosses "
                    f"the region boundary at {found.end:#x}"
                )
            if error is not None:
                if run_region is not None:
                    self._forward_run(window, run_start, index, run_region,
                                      out)
                raise error
            if run_region is None:
                run_region = found
                run_start = index
            elif found is not run_region:
                self._forward_run(window, run_start, index, run_region, out)
                run_region = found
                run_start = index
        if run_region is not None:
            self._forward_run(window, run_start, len(addresses), run_region,
                              out)
        return out

    def _forward_extent_run(
        self,
        region: AddressRange,
        run: list[Extent],
        time: float,
        out: list[MemoryResponse],
    ) -> None:
        """Flush one same-region run of sub-extents through its backend.

        Rebased regions see rebased extents; the responses are rewrapped
        back to absolute addresses (matching the scalar path's response
        identity) both on success and inside a crash's served prefix.
        """
        if region.rebase:
            offset = region.start
            lowered = [
                Extent(extent.start - offset, extent.lines, extent.size)
                for extent in run
            ]
        else:
            lowered = run
        try:
            report = backend_flush_extents(region.backend, lowered, time)
        except InjectedPowerFailure as failure:
            if region.rebase:
                rewrapped = [
                    self._rewrap_absolute(address, size, time, response)
                    for (address, size), response in zip(
                        _extent_lines(run), failure.completed
                    )
                ]
            else:
                rewrapped = list(failure.completed)
            failure.completed = out + rewrapped
            raise
        if region.rebase:
            for (address, size), response in zip(
                _extent_lines(run), report.responses
            ):
                out.append(
                    self._rewrap_absolute(address, size, time, response)
                )
        else:
            out.extend(report.responses)

    @staticmethod
    def _rewrap_absolute(
        address: int, size: int, time: float, response: MemoryResponse
    ) -> MemoryResponse:
        request = MemoryRequest.__new__(MemoryRequest)
        request.op = MemoryOp.WRITE
        request.address = address
        request.size = size
        request.time = time
        request.data = None
        request.thread_id = 0
        request.metadata = None
        return MemoryResponse(
            request,
            complete_time=response.complete_time,
            occupied_until=response.occupied_until,
            data=response.data,
            reconstructed=response.reconstructed,
            blocked_ns=response.blocked_ns,
            error_contained=response.error_contained,
        )

    def flush_extents(self, extents: list[Extent], time: float) -> FlushReport:
        """Extent flush, subdivided only at region boundaries.

        Each extent is split into the maximal sub-extents that fit one
        region; consecutive same-region sub-extents are forwarded as one
        run through ``backend_flush_extents``, so an interposer inside a
        region still receives whole extents.  Error ordering
        matches the scalar loop: an out-of-region or boundary-crossing
        line first flushes the pending run, then raises.
        """
        out: list[MemoryResponse] = []
        run: list[Extent] = []
        run_region: Optional[AddressRange] = None
        for extent in extents:
            size = extent.size
            address = extent.start
            remaining = extent.lines
            while remaining:
                found: Optional[AddressRange] = None
                for region in self.regions:
                    if region.start <= address < region.end:
                        found = region
                        break
                error: Optional[AddressSpaceError] = None
                fit = 0
                if found is None:
                    error = AddressSpaceError(
                        f"address {address:#x} outside every partition region"
                    )
                else:
                    fit = (found.end - address) // size
                    if fit == 0:
                        error = AddressSpaceError(
                            f"request [{address:#x}, {address + size:#x}) "
                            f"crosses the region boundary at {found.end:#x}"
                        )
                if error is not None:
                    if run_region is not None:
                        self._forward_extent_run(run_region, run, time, out)
                    raise error
                count = remaining if remaining <= fit else fit
                sub = Extent(address, count, size)
                if found is run_region:
                    run.append(sub)
                else:
                    if run_region is not None:
                        self._forward_extent_run(run_region, run, time, out)
                    run_region = found
                    run = [sub]
                address += count * size
                remaining -= count
        if run_region is not None:
            self._forward_extent_run(run_region, run, time, out)
        return report_from_responses(len(extents), time, out)

    # -- protocol surface ---------------------------------------------------

    @property
    def is_volatile(self) -> bool:
        # Losing any region on a power cycle makes the whole span lossy.
        return any(r.backend.is_volatile for r in self.regions)

    @property
    def capacity(self) -> int:
        return max(r.end for r in self.regions)

    @property
    def buffer_hit_ratio(self) -> float:
        ratios = [r.backend.buffer_hit_ratio for r in self.regions]
        return sum(ratios) / len(ratios)

    def flush(self, time: float) -> float:
        return max(r.backend.flush(time) for r in self.regions)

    def drain(self, time: float) -> float:
        return max(r.backend.drain(time) for r in self.regions)

    def reset(self, time: float) -> float:
        return max(r.backend.reset(time) for r in self.regions)

    def power_cycle(self) -> None:
        for region in self.regions:
            region.backend.power_cycle()

    def capture_registers(self) -> bytes:
        return pickle.dumps(
            [r.backend.capture_registers() for r in self.regions]
        )

    def restore_wear_registers(self, blob: bytes) -> None:
        if not blob:
            return
        blobs = pickle.loads(blob)
        if len(blobs) != len(self.regions):
            raise ValueError(
                f"captured {len(blobs)} region blobs, have "
                f"{len(self.regions)} regions"
            )
        for region, region_blob in zip(self.regions, blobs):
            region.backend.restore_wear_registers(region_blob)

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for index, region in enumerate(self.regions):
            for key, value in region.backend.counters().items():
                merged[f"region{index}_{key}"] = value
        return merged

    def register_stats(self, stats: StatsRegistry) -> None:
        for index, region in enumerate(self.regions):
            region.backend.register_stats(stats.scoped(f"region{index}"))

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        parts: list[PowerPart] = []
        for region in self.regions:
            parts.extend(region.backend.power_parts(region.backend.counters()))
        return parts


def _extent_lines(extents: list[Extent]):
    """Yield ``(address, size)`` per line across extents, in order."""
    for extent in extents:
        size = extent.size
        for address in extent.addresses():
            yield (address, size)


def _take_lines(extents: list[Extent], count: int) -> list[Extent]:
    """The first ``count`` lines of an extent list, truncating the last."""
    out: list[Extent] = []
    remaining = count
    for extent in extents:
        if remaining <= 0:
            break
        if extent.lines <= remaining:
            out.append(extent)
            remaining -= extent.lines
        else:
            out.append(Extent(extent.start, remaining, extent.size))
            remaining = 0
    return out


class FaultInjector(Interposer):
    """Fault-injection interposer: scheduled power cuts, write corruption.

    The crash fuzzers drive a stream through this port and let it raise
    :class:`InjectedPowerFailure` at the scheduled operation index —
    exactly where the paper pulls AC from the prototype — instead of
    poking backend internals.  After the cut, :meth:`power_fail` models
    the rails dying (the wrapped backend power-cycles) and subsequent
    traffic flows through untouched for recovery verification.
    """

    def __init__(
        self,
        inner: MemoryBackend,
        crash_at_op: Optional[int] = None,
        corrupt_data_fn: Optional[Callable[[int, bytes], bytes]] = None,
        count_drains: bool = False,
    ) -> None:
        super().__init__(inner)
        self.crash_at_op = crash_at_op
        self.corrupt_data_fn = corrupt_data_fn
        #: Count ``drain`` as a schedulable operation.  Off by default —
        #: the crash fuzzers predate drain accounting and their cached
        #: shard fingerprints assume drains are free — but the litmus
        #: engine turns it on so a power cut can land exactly on a
        #: fence, which is where fence-persists misconceptions hide.
        self.count_drains = count_drains
        self.op_index = 0
        self.tripped = False

    def schedule(self, crash_at_op: Optional[int]) -> None:
        """Re-arm the injector: schedule a new cut and rewind the count.

        Crash-point enumerators sweep ``crash_at_op`` over every index
        of the same operation stream; this resets ``op_index`` and
        ``tripped`` so each sweep starts from a fresh count (the backend
        itself must be rebuilt or power-cycled by the caller).
        """
        self.crash_at_op = crash_at_op
        self.op_index = 0
        self.tripped = False

    def _tick(self) -> None:
        if (self.crash_at_op is not None and not self.tripped
                and self.op_index == self.crash_at_op):
            self.tripped = True
            raise InjectedPowerFailure(
                f"injected power failure at operation {self.op_index}"
            )
        self.op_index += 1

    def access(self, request: MemoryRequest) -> MemoryResponse:
        self._tick()
        if (self.corrupt_data_fn is not None and request.is_write
                and request.data is not None):
            request = replace(
                request,
                data=self.corrupt_data_fn(request.address, request.data),
            )
        return self.inner.access(request)

    def access_batch(self, requests: BatchRequests) -> list[MemoryResponse]:
        """Batch access, split only at the scheduled crash index.

        A window that does not contain the crash op passes through whole;
        otherwise the pre-crash prefix is served, then
        :class:`InjectedPowerFailure` is raised carrying the prefix
        responses in ``completed``.
        """
        if self.corrupt_data_fn is not None:
            # Corruption inspects per-request payloads: scalar loop.
            return default_access_batch(self, requests)
        n = len(requests)
        crash = self.crash_at_op
        start = self.op_index
        if crash is None or self.tripped or not start <= crash < start + n:
            self.op_index = start + n
            return backend_access_batch(self.inner, requests)
        k = crash - start
        self.op_index = crash
        completed: list[MemoryResponse] = []
        if k:
            if isinstance(requests, RequestWindow):
                prefix: BatchRequests = requests.subwindow(0, k)
            else:
                prefix = list(requests[:k])
            try:
                completed = list(backend_access_batch(self.inner, prefix))
            except InjectedPowerFailure as failure:
                # A deeper injector crashed first.  The scalar path would
                # have ticked once per attempted element, crashing one
                # included — rewind the eager advance to match.
                self.op_index = start + len(failure.completed) + 1
                raise
        self.tripped = True
        raise InjectedPowerFailure(
            f"injected power failure at operation {self.op_index}",
            completed,
        )

    def flush_extents(self, extents: list[Extent], time: float) -> FlushReport:
        """Extent flush, split only at the scheduled crash index.

        Mirrors :meth:`access_batch`: an extent list that does not
        contain the crash op forwards whole; otherwise the pre-crash
        line prefix (truncating the crash extent mid-run) is served and
        :class:`InjectedPowerFailure` carries its responses in
        ``completed`` — exactly the prefix the scalar loop would have
        produced.
        """
        if self.corrupt_data_fn is not None:
            # Corruption inspects per-request payloads: scalar loop.
            return default_flush_extents(self, extents, time)
        n = 0
        for extent in extents:
            n += extent.lines
        crash = self.crash_at_op
        start = self.op_index
        if crash is None or self.tripped or not start <= crash < start + n:
            self.op_index = start + n
            return backend_flush_extents(self.inner, extents, time)
        k = crash - start
        self.op_index = crash
        completed: list[MemoryResponse] = []
        if k:
            prefix = _take_lines(extents, k)
            try:
                completed = list(
                    backend_flush_extents(self.inner, prefix, time).responses
                )
            except InjectedPowerFailure as failure:
                # A deeper injector crashed first.  The scalar path would
                # have ticked once per attempted line, crashing one
                # included — rewind the eager advance to match.
                self.op_index = start + len(failure.completed) + 1
                raise
        self.tripped = True
        raise InjectedPowerFailure(
            f"injected power failure at operation {self.op_index}",
            completed,
        )

    def flush(self, time: float) -> float:
        self._tick()
        return self.inner.flush(time)

    def drain(self, time: float) -> float:
        if self.count_drains:
            self._tick()
        return self.inner.drain(time)

    def power_fail(self) -> None:
        """The rails die: propagate the loss to the wrapped backend."""
        self.inner.power_cycle()

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("faults.ops_forwarded", lambda: self.op_index)
        stats.register("faults.tripped", lambda: float(self.tripped))
        self.inner.register_stats(stats)
