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
  an inner backend; :class:`FaultInjector` subclasses it to cut power at a
  scheduled operation.  :class:`AddressRangePartition` routes byte ranges
  to several backends behind one port.  Both compose without the backend
  (or the complex) knowing — ``FaultInjector(AddressRangePartition(...))``
  is itself a backend — which is how hybrid tiers and the crash fuzzers
  compose platforms without touching device internals.

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

from repro.memory.batch import default_access_batch
from repro.memory.request import (
    AddressSpaceError,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)
from repro.sim.stats import StatsRegistry

__all__ = [
    "AddressRange",
    "AddressRangePartition",
    "FaultInjector",
    "InjectedPowerFailure",
    "Interposer",
    "MemoryBackend",
    "PortNotSupportedError",
    "PowerPart",
    "assert_memory_backend",
    "counters_under",
    # Re-exported, not used here: the perfbench tracer and its tests pin
    # ``repro.memory.port.default_access_batch`` as the batch loop.
    "default_access_batch",
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

    The operation that trips the injector is not served; everything
    issued before it was.
    """


@runtime_checkable
class MemoryBackend(Protocol):
    """What a platform needs from a memory tier.

    Timing methods take and return nanoseconds.  Lifecycle ports that a
    technology genuinely lacks raise :class:`PortNotSupportedError`
    (``reset`` on DRAM) or degrade to honest no-ops (``capture_registers``
    returning ``b""`` when there is no register file to persist).

    Scalar :meth:`access` is the one way a request crosses the port:
    a run of requests (:func:`~repro.memory.batch.default_access_batch`)
    or a dirty-extent flush
    (:func:`~repro.memory.extent.default_flush_extents`) is a loop over
    it, on a backend and through an interposer chain alike.
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


#: Attribute names checked by :func:`assert_memory_backend`.
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


def counters_under(
    counters: Mapping[str, float], prefix: str
) -> dict[str, float]:
    """One sub-tier's slice of a composite's merged counters.

    Composite backends merge their parts' ``counters()`` under a
    per-part key prefix; this takes the keys under ``prefix`` and strips
    it, so ``power_parts`` charges each part from the counters it was
    handed (a window's deltas, an extrapolated total) rather than from
    the part's live totals.
    """
    cut = len(prefix)
    return {key[cut:]: value for key, value in counters.items()
            if key.startswith(prefix)}


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

    def read_media_of(self, source: "AddressRangePartition") -> None:
        """Each region reads the persistent media of ``source``'s region
        over the same range (for a PSM, :meth:`PSM.read_media_of
        <repro.ocpmem.psm.PSM.read_media_of>`)."""
        spans = [(r.start, r.end) for r in self.regions]
        if spans != [(r.start, r.end) for r in source.regions]:
            raise ValueError("media of a partition over other regions")
        for region, source_region in zip(self.regions, source.regions):
            region.backend.read_media_of(source_region.backend)

    def media_version(self) -> int:
        """The regions' media versions summed (for a PSM,
        :meth:`PSM.media_version <repro.ocpmem.psm.PSM.media_version>`)."""
        return sum(r.backend.media_version() for r in self.regions)

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
        for index, region in enumerate(self.regions):
            parts.extend(region.backend.power_parts(
                counters_under(counters, f"region{index}_")))
        return parts


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

        ``op_index`` and ``tripped`` start over as in a new injector, so
        the next operation is tick 0.  The backend keeps its state: a
        caller that reuses one injector for several cuts of the same
        operation stream rebuilds or power-cycles the backend in between.
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
