"""DRAM subsystem: ranks of DRAM devices behind an open-row controller.

This is the working memory of the LegacyPC configuration and the
local-node DRAM of the conventional PMEM complex.  The model captures what
the paper's comparisons depend on:

* open-row timing (row hits vs misses),
* periodic refresh stalls and their standing power cost,
* volatility (a power cycle wipes contents — which is the whole point of
  the paper's persistence mechanisms),
* rank-level parallelism for 64 B cachelines (8 devices x 8 B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.memory.device import DRAMDevice, DRAMTiming
from repro.memory.port import PortNotSupportedError, PowerPart
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
    ROW_BYTES,
)
from repro.memory.rowbuffer import OpenRowTracker
from repro.sim.stats import LatencyStats, StatsRegistry

__all__ = ["DRAMConfig", "DRAMSubsystem"]


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry and timing of a DRAM working memory."""

    capacity: int = 1 << 30
    ranks: int = 16
    timing: DRAMTiming = DRAMTiming()
    #: Controller queueing penalty applied when a rank is found busy.
    queue_ns: float = 4.0
    #: Posted-write depth: rank backlog a write absorbs before the
    #: controller backpressures the core.
    write_queue_ns: float = 600.0

    def __post_init__(self) -> None:
        if self.capacity % (self.ranks * ROW_BYTES):
            raise ValueError("capacity must divide evenly into rank rows")


class DRAMSubsystem:
    """Cacheline-granular DRAM memory with open-row policy and refresh."""

    def __init__(self, config: Optional[DRAMConfig] = None) -> None:
        self.config = config or DRAMConfig()
        per_rank = self.config.capacity // self.config.ranks
        self.ranks = [
            DRAMDevice(per_rank, self.config.timing, device_id=i)
            for i in range(self.config.ranks)
        ]
        self.rows = OpenRowTracker(self.config.ranks)
        self.read_latency = LatencyStats("dram.read")
        self.write_latency = LatencyStats("dram.write")
        self._next_refresh = self.config.timing.refresh_interval_ns
        self.refresh_count = 0
        self.is_volatile = True

    # -- address mapping ---------------------------------------------------

    def rank_of(self, address: int) -> int:
        """Rows interleave across ranks: one 4 KB row lives in one rank."""
        return (address // ROW_BYTES) % len(self.ranks)

    def _local(self, address: int) -> int:
        row = address // ROW_BYTES
        return (row // len(self.ranks)) * ROW_BYTES + address % ROW_BYTES

    # -- service -----------------------------------------------------------

    def _apply_refresh(self, time: float) -> None:
        """Lazily issue refresh bursts that came due before ``time``."""
        timing = self.config.timing
        while self._next_refresh <= time:
            for rank in self.ranks:
                rank.refresh(self._next_refresh)
            self.refresh_count += 1
            self._next_refresh += timing.refresh_interval_ns

    def access(self, request: MemoryRequest) -> MemoryResponse:
        if request.op is MemoryOp.FLUSH:
            done = self.drain(request.time)
            return MemoryResponse(request, complete_time=done)
        if request.op is MemoryOp.RESET:
            return MemoryResponse(request, complete_time=self.reset(request.time))
        if request.size > CACHELINE_BYTES:
            raise ValueError(
                f"DRAM boundary is cacheline-granular, got {request.size} B"
            )
        if request.end_address > self.config.capacity:
            raise AddressSpaceError(
                f"address {request.address:#x} outside DRAM capacity "
                f"{self.config.capacity:#x}"
            )
        self._apply_refresh(request.time)
        rank_idx = self.rank_of(request.address)
        rank = self.ranks[rank_idx]
        row_hit = self.rows.access(rank_idx, request.address)
        wait = max(0.0, rank.busy_until - request.time)
        queue_penalty = self.config.queue_ns if wait > 0 else 0.0
        complete, data = rank.access(
            request.time + queue_penalty,
            self._local(request.address),
            request.size,
            is_write=request.is_write,
            row_hit=row_hit,
            data=request.data,
        )
        if request.is_write:
            # Writes are posted: the controller's write queue absorbs the
            # rank backlog; only overflow backpressures the requester.
            blocked = max(0.0, wait - self.config.write_queue_ns)
            complete = min(complete, request.time + queue_penalty
                           + self.config.timing.write_ns + blocked)
        else:
            blocked = wait
        response = MemoryResponse(
            request,
            complete_time=complete,
            occupied_until=rank.busy_until,
            data=data,
            blocked_ns=blocked,
        )
        if request.is_write:
            self.write_latency.record(response.latency)
        else:
            self.read_latency.record(response.latency)
        return response

    def drain(self, time: float) -> float:
        """Time when all ranks are quiescent (memory-fence semantics)."""
        return max([time] + [rank.busy_until for rank in self.ranks])

    def flush(self, time: float) -> float:
        """Flush port: volatile memory has no buffers to close — a flush
        degenerates to the drain barrier (same as a FLUSH request)."""
        return self.drain(time)

    def reset(self, time: float) -> float:
        """DRAM has no reset port; honest refusal instead of a fake ack."""
        raise PortNotSupportedError(
            "DRAM has no reset port; that is a PSM interface"
        )

    def power_cycle(self) -> None:
        """Power loss: DRAM contents are destroyed."""
        for rank in self.ranks:
            rank.power_cycle()
        self.rows.close_all()
        self._next_refresh = self.config.timing.refresh_interval_ns

    # -- EP-cut register capture -------------------------------------------

    def capture_registers(self) -> bytes:
        """No persistent register file: the honest capture is empty."""
        return b""

    def restore_wear_registers(self, blob: bytes) -> None:
        """Accept only the empty blob :meth:`capture_registers` produced."""
        if blob:
            raise PortNotSupportedError(
                "DRAM has no wear registers to restore"
            )

    # -- introspection -------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Host-visible capacity in bytes."""
        return self.config.capacity

    @property
    def row_hit_ratio(self) -> float:
        return self.rows.hit_ratio

    @property
    def buffer_hit_ratio(self) -> float:
        """Uniform name for the open-row hit ratio at the port boundary."""
        return self.rows.hit_ratio

    def counters(self) -> dict[str, float]:
        return {
            "reads": float(sum(r.read_count for r in self.ranks)),
            "writes": float(sum(r.write_count for r in self.ranks)),
            "refreshes": float(self.refresh_count),
        }

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("read", self.read_latency)
        stats.register("write", self.write_latency)
        stats.register("buffer_hit_ratio", lambda: self.rows.hit_ratio)
        stats.register("counters", self.counters)
        devices = stats.scoped("devices")
        for index, rank in enumerate(self.ranks):
            devices.register(
                f"rank{index}",
                lambda r=rank: {"reads": r.read_count, "writes": r.write_count},
            )

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        """LegacyPC memory inventory: DIMMs, controller complex, board."""
        dimms = 4.0
        return [
            ("dram_dimm", dimms, {k: v / dimms for k, v in counters.items()}),
            ("dram_complex", 1.0, None),
            ("board_legacy", 1.0, None),
        ]
