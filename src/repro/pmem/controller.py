"""Host-side controllers of the conventional PMEM complex (paper Fig. 1).

Three controllers manage the two memory technologies:

* :class:`PMEMController` — fronts the PMEM DIMMs over the asynchronous
  DDR-T interface (per-transfer handshake overhead on top of the DIMM's
  own variable latency);
* the DRAM controller is :class:`repro.memory.dram.DRAMSubsystem` itself;
* :class:`NMEMController` — the near-memory-cache controller of memory
  mode: caches PMEM data in local-node DRAM and overlaps the
  DRAM-fill/PMEM-read transfers through the shared *snarf* interface, so a
  miss costs ~max(pmem, fill) rather than the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.memory.dram import DRAMSubsystem
from repro.memory.port import (
    PortNotSupportedError,
    PowerPart,
    counters_under,
)
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
    cacheline_of,
)
from repro.pmem.dimm import PMEMDIMM
from repro.sim.stats import LatencyStats, RatioStat, StatsRegistry

__all__ = ["NMEMController", "PMEMController"]


@dataclass(frozen=True)
class _DDRTTiming:
    """Asynchronous DDR-T handshake overhead (request + completion)."""

    request_ns: float = 9.0
    completion_ns: float = 9.0


class PMEMController:
    """Channel controller in front of one or more PMEM DIMMs.

    Cachelines interleave across DIMMs.  The DDR-T handshake is charged on
    both edges of every transfer; flush fans out to every DIMM.
    """

    def __init__(self, dimms: list[PMEMDIMM], ddrt: Optional[_DDRTTiming] = None) -> None:
        if not dimms:
            raise ValueError("PMEMController needs at least one DIMM")
        self.dimms = dimms
        self.ddrt = ddrt or _DDRTTiming()
        self.capacity = sum(d.capacity for d in dimms)
        self.is_volatile = False

    def _route(self, address: int) -> tuple[PMEMDIMM, int]:
        line = address // CACHELINE_BYTES
        dimm = self.dimms[line % len(self.dimms)]
        local_line = line // len(self.dimms)
        return dimm, local_line * CACHELINE_BYTES + address % CACHELINE_BYTES

    def access(self, request: MemoryRequest) -> MemoryResponse:
        if request.op is MemoryOp.FLUSH:
            return MemoryResponse(request, complete_time=self.drain(request.time))
        if request.op is MemoryOp.RESET:
            return MemoryResponse(request, complete_time=self.reset(request.time))
        if request.end_address > self.capacity:
            raise AddressSpaceError(
                f"address {request.address:#x} outside PMEM capacity "
                f"{self.capacity:#x}"
            )
        dimm, local = self._route(request.address)
        inner = MemoryRequest(
            op=request.op,
            address=local,
            size=request.size,
            time=request.time + self.ddrt.request_ns,
            data=request.data,
            thread_id=request.thread_id,
        )
        response = dimm.access(inner)
        return MemoryResponse(
            request,
            complete_time=response.complete_time + self.ddrt.completion_ns,
            occupied_until=response.occupied_until,
            data=response.data,
            blocked_ns=response.blocked_ns,
        )

    def drain(self, time: float) -> float:
        done = time
        for dimm in self.dimms:
            done = max(done, dimm.flush(time))
        return done + self.ddrt.completion_ns

    def flush(self, time: float) -> float:
        """DDR-T flush: every DIMM's internal buffers drain to media."""
        return self.drain(time)

    def reset(self, time: float) -> float:
        raise PortNotSupportedError(
            "conventional PMEM DIMMs expose no host-visible reset port"
        )

    def power_cycle(self) -> None:
        for dimm in self.dimms:
            dimm.power_cycle()

    def capture_registers(self) -> bytes:
        """DIMM-internal firmware owns its state; nothing for an EP-cut."""
        return b""

    def restore_wear_registers(self, blob: bytes) -> None:
        if blob:
            raise PortNotSupportedError(
                "conventional PMEM exposes no wear registers"
            )

    @property
    def buffer_hit_ratio(self) -> float:
        counters = self.counters()
        buffered = counters.get("sram_hits", 0.0) \
            + counters.get("dram_buffer_hits", 0.0)
        accesses = buffered + counters.get("media_reads", 0.0)
        return buffered / accesses if accesses else 0.0

    def counters(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for dimm in self.dimms:
            for key, value in dimm.counters().items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("buffer_hit_ratio", lambda: self.buffer_hit_ratio)
        stats.register("counters", self.counters)
        devices = stats.scoped("devices")
        for index, dimm in enumerate(self.dimms):
            devices.register(f"dimm{index}", dimm.counters)

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        dimms = float(len(self.dimms))
        return [
            ("pmem_dimm", dimms, {k: v / dimms for k, v in counters.items()}),
        ]


class NMEMController:
    """Memory-mode near-memory cache: local DRAM caches the PMEM DIMMs.

    Tag state is modelled as a direct-mapped line cache over the DRAM
    capacity.  On a miss, the PMEM read and the DRAM fill overlap through
    snarf, so the charged latency is the slower of the two plus a small
    coupling cost, not their sum.  Memory mode drops non-volatility: the
    cached (youngest) copies live in DRAM and die with power.
    """

    def __init__(
        self,
        dram: DRAMSubsystem,
        pmem: PMEMController,
        snarf_ns: float = 6.0,
    ) -> None:
        self.dram = dram
        self.pmem = pmem
        self.snarf_ns = snarf_ns
        self._lines = dram.config.capacity // CACHELINE_BYTES
        self._tags: dict[int, int] = {}
        self.hit_stats = RatioStat()
        self.latency = LatencyStats("nmem")
        self.capacity = pmem.capacity
        #: Memory mode presents volatile working memory (paper §II-A).
        self.is_volatile = True

    def _slot(self, address: int) -> int:
        return (address // CACHELINE_BYTES) % self._lines

    def access(self, request: MemoryRequest) -> MemoryResponse:
        if request.op is MemoryOp.FLUSH:
            done = max(
                self.dram.drain(request.time), self.pmem.drain(request.time)
            )
            return MemoryResponse(request, complete_time=done)
        line = cacheline_of(request.address)
        slot = self._slot(request.address)
        hit = self._tags.get(slot) == line
        self.hit_stats.record(hit)
        dram_request = MemoryRequest(
            op=request.op,
            address=request.address % self.dram.config.capacity,
            size=request.size,
            time=request.time,
            data=request.data,
            thread_id=request.thread_id,
        )
        if hit:
            response = self.dram.access(dram_request)
            out = MemoryResponse(
                request,
                complete_time=response.complete_time,
                data=response.data,
                blocked_ns=response.blocked_ns,
            )
        else:
            # Snarf overlap: PMEM read and DRAM fill in flight together.
            pmem_request = MemoryRequest(
                op=MemoryOp.READ,
                address=request.address,
                size=request.size,
                time=request.time,
                thread_id=request.thread_id,
            )
            pmem_response = self.pmem.access(pmem_request)
            dram_response = self.dram.access(dram_request)
            complete = (
                max(pmem_response.complete_time, dram_response.complete_time)
                + self.snarf_ns
            )
            self._tags[slot] = line
            out = MemoryResponse(
                request,
                complete_time=complete,
                data=pmem_response.data,
                blocked_ns=pmem_response.blocked_ns + dram_response.blocked_ns,
            )
        self.latency.record(out.latency)
        return out

    def drain(self, time: float) -> float:
        return max(self.dram.drain(time), self.pmem.drain(time))

    def flush(self, time: float) -> float:
        return max(self.dram.flush(time), self.pmem.flush(time))

    def reset(self, time: float) -> float:
        raise PortNotSupportedError(
            "memory mode exposes no reset port (volatile working memory)"
        )

    def power_cycle(self) -> None:
        self._tags.clear()
        self.dram.power_cycle()
        self.pmem.power_cycle()

    def capture_registers(self) -> bytes:
        """The NMEM tag store is volatile by design; nothing to capture."""
        return b""

    def restore_wear_registers(self, blob: bytes) -> None:
        if blob:
            raise PortNotSupportedError(
                "memory mode has no wear registers to restore"
            )

    @property
    def hit_ratio(self) -> float:
        return self.hit_stats.ratio

    @property
    def buffer_hit_ratio(self) -> float:
        """The near-memory cache hit ratio is the buffering this tier has."""
        return self.hit_stats.ratio

    def counters(self) -> dict[str, float]:
        merged = {f"pmem_{k}": v for k, v in self.pmem.counters().items()}
        merged.update(
            {f"dram_{k}": v for k, v in self.dram.counters().items()}
        )
        merged["nmem_hits"] = float(self.hit_stats.hits)
        merged["nmem_misses"] = float(
            self.hit_stats.total - self.hit_stats.hits
        )
        return merged

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("latency", self.latency)
        stats.register("hit_ratio", self.hit_stats)
        self.dram.register_stats(stats.scoped("dram"))
        self.pmem.register_stats(stats.scoped("pmem"))

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        fills = {"fills": counters.get("nmem_misses", 0.0)}
        return (
            self.dram.power_parts(counters_under(counters, "dram_"))
            + self.pmem.power_parts(counters_under(counters, "pmem_"))
            + [("nmem_ctrl", 1.0, fills)]
        )
