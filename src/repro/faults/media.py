"""Media-error interposer: transient retries, stuck cells, retirement.

PRAM media wears out; the paper's PSM answers with XCC reconstruction
and Start-Gap wear leveling.  :class:`MediaFaultModel` injects the
failure side of that story at the port boundary, as a controller would
see it:

* a :data:`~repro.faults.plan.TRANSIENT` fault fails one read in flight
  and succeeds on the controller's retry — the caller sees true data
  plus a retry/backoff latency;
* a :data:`~repro.faults.plan.STUCK` fault is a permanently bad cell:
  reads are ECC detect→correct (correction latency, true data) until
  ``escalate_after`` corrections, then the controller escalates and
  *retires* the unit — remaps it to a spare, one-time migration cost,
  clean reads forever after.  With ``remap_enabled=False`` (the
  deliberately broken degradation rule) escalation has nowhere to go:
  the read returns corrupted bytes, which the persistency oracle flags
  as a torn line.

The model overrides only the scalar ``access``, the one way a request
crosses the port, so program traffic, cut write-backs and recovery
reads all see the same fault behavior.  Fault state is *media-side* (stuck cells stay stuck, the
retirement map lives in PSM metadata), so it deliberately survives
``power_cycle`` — which is exactly what compound drills need when a
second cut lands mid-recovery.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.faults.plan import TRANSIENT, MediaFault
from repro.memory.port import Interposer, MemoryBackend
from repro.memory.request import (
    CACHELINE_BYTES,
    MemoryRequest,
    MemoryResponse,
)
from repro.sim.stats import StatsRegistry

__all__ = ["MediaFaultModel"]


class MediaFaultModel(Interposer):
    """Inject transient and stuck-at media faults on the read path.

    Timing knobs are nanoseconds, charged on top of whatever the inner
    backend reports: ``retry_ns`` per transient controller retry,
    ``correction_ns`` per ECC detect→correct, ``migration_ns`` once per
    retired unit (the spare-copy).
    """

    def __init__(
        self,
        inner: MemoryBackend,
        faults: Sequence[MediaFault] = (),
        *,
        remap_enabled: bool = True,
        retry_ns: float = 250.0,
        correction_ns: float = 180.0,
        migration_ns: float = 1200.0,
        line_bytes: int = CACHELINE_BYTES,
    ) -> None:
        super().__init__(inner)
        self.remap_enabled = remap_enabled
        self.retry_ns = retry_ns
        self.correction_ns = correction_ns
        self.migration_ns = migration_ns
        self._line_bytes = line_bytes
        self._transient: set[int] = set()
        self._stuck: dict[int, int] = {}
        for fault in faults:
            if fault.kind == TRANSIENT:
                self._transient.add(fault.line)
            else:
                self._stuck[fault.line] = fault.escalate_after
        #: corrected reads served so far per stuck line
        self._corrected: dict[int, int] = {}
        self._retired: set[int] = set()
        self.transient_retries = 0
        self.ecc_corrections = 0
        self.units_retired = 0
        self.uncorrectable_reads = 0

    # -- fault semantics ----------------------------------------------------

    def _perturbed(
        self,
        request: MemoryRequest,
        response: MemoryResponse,
        extra_ns: float,
        *,
        corrupt: bool = False,
        reconstructed: bool = True,
    ) -> MemoryResponse:
        data = response.data
        if corrupt and data:
            # A stuck cell with no spare to remap to: the first byte
            # reads back inverted, so a whole-line version payload is no
            # longer uniform — the litmus torn-line detector fires.
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return MemoryResponse(
            request,
            complete_time=response.complete_time + extra_ns,
            occupied_until=max(response.occupied_until,
                               response.complete_time + extra_ns),
            data=data,
            reconstructed=reconstructed or response.reconstructed,
            blocked_ns=response.blocked_ns + extra_ns,
            error_contained=response.error_contained and not corrupt,
        )

    def access(self, request: MemoryRequest) -> MemoryResponse:
        response = self.inner.access(request)
        if not request.is_read:
            return response
        line = request.address // self._line_bytes
        if line in self._transient:
            # One in-flight flip; the controller's retry reads clean.
            self._transient.discard(line)
            self.transient_retries += 1
            return self._perturbed(request, response, self.retry_ns)
        if line in self._retired or line not in self._stuck:
            return response
        corrected = self._corrected.get(line, 0)
        if corrected < self._stuck[line]:
            self._corrected[line] = corrected + 1
            self.ecc_corrections += 1
            return self._perturbed(request, response, self.correction_ns)
        if self.remap_enabled:
            # Graceful degradation: retire the unit, migrate to a spare.
            self._retired.add(line)
            self.units_retired += 1
            return self._perturbed(request, response, self.migration_ns)
        self.uncorrectable_reads += 1
        return self._perturbed(request, response, self.correction_ns,
                               corrupt=True, reconstructed=False)

    # -- lifecycle ----------------------------------------------------------

    def power_cycle(self) -> None:
        # Stuck cells are physics and the retirement map is persistent
        # controller metadata: both survive the rails dropping.  An
        # armed transient is a pending in-flight flip and stays armed.
        self.inner.power_cycle()

    # -- introspection ------------------------------------------------------

    def counters(self) -> dict[str, float]:
        merged = dict(self.inner.counters())
        merged.update({
            "media_transient_retries": float(self.transient_retries),
            "media_ecc_corrections": float(self.ecc_corrections),
            "media_units_retired": float(self.units_retired),
            "media_uncorrectable_reads": float(self.uncorrectable_reads),
        })
        return merged

    def fault_counters(self) -> Mapping[str, int]:
        """Just this interposer's counters (drill report material)."""
        return {
            "transient_retries": self.transient_retries,
            "ecc_corrections": self.ecc_corrections,
            "units_retired": self.units_retired,
            "uncorrectable_reads": self.uncorrectable_reads,
        }

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("media.transient_retries",
                       lambda: float(self.transient_retries))
        stats.register("media.ecc_corrections",
                       lambda: float(self.ecc_corrections))
        stats.register("media.units_retired",
                       lambda: float(self.units_retired))
        stats.register("media.uncorrectable_reads",
                       lambda: float(self.uncorrectable_reads))
        self.inner.register_stats(stats)
