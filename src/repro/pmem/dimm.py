"""Optane-like PMEM DIMM internal architecture (paper Fig. 2a).

The DIMM is "a complicated system similar to high-performance SSDs, not
like a DRAM DIMM": an LSQ that write-combines to 256 B, a two-level
inclusive SRAM+DRAM internal cache (SRAM for 256 B read-modify, DRAM for
address translation and 4 KB buffering), and firmware that manages it all
— which is exactly what makes its latency vary and its reads ~2.9x slower
than bare-metal PRAM while its buffered writes beat bare-metal PRAM by
2.3–6.1x (paper Fig. 2b).

The model walks each request through the same stages the paper's reverse
engineering identifies and charges each stage's latency, so latency
variation is an *output* of the multi-buffer lookup path, not a sampled
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.device import PRAMDevice, PRAMTiming, SRAMBuffer
from repro.memory.request import (
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
    PMEM_INTERNAL_BYTES,
    PRAM_DEVICE_BYTES,
)
from repro.pmem.lsq import LoadStoreQueue, LSQEntry
from repro.sim.stats import LatencyStats

__all__ = ["PMEMDIMM", "PMEMDIMMTiming"]

_DIES_PER_FRAME = PMEM_INTERNAL_BYTES // PRAM_DEVICE_BYTES  # 8


@dataclass(frozen=True)
class PMEMDIMMTiming:
    """Per-stage latencies of the DIMM-internal datapath (nanoseconds)."""

    lsq_ns: float = 6.0
    sram_lookup_ns: float = 5.0
    sram_access_ns: float = 95.0
    dram_lookup_ns: float = 10.0
    dram_access_ns: float = 120.0
    #: Address Indirection Table walk (wear-level mapping) in internal DRAM.
    ait_ns: float = 40.0
    #: Firmware scheduling overhead charged on any media-path trip.
    firmware_ns: float = 18.0
    #: Burst transfer of a 256 B frame over the internal bus.
    frame_transfer_ns: float = 25.0
    #: Media write backpressure: if the dies are occupied further than this
    #: ahead of "now", new writes stall until the backlog shrinks.
    write_backlog_limit_ns: float = 1_600.0


class PMEMDIMM:
    """One PMEM DIMM: LSQ -> SRAM -> internal DRAM -> PRAM media.

    The boundary is 64 B cachelines.  Reads walk the inclusive lookup
    hierarchy; misses pay AIT translation plus a 256 B media read.  Writes
    combine in the LSQ and land in the internal buffers quickly; evicted
    frames go to media as 256 B programs, read-modifying when the frame is
    only partially covered.
    """

    def __init__(
        self,
        capacity: int = 1 << 30,
        timing: Optional[PMEMDIMMTiming] = None,
        pram_timing: Optional[PRAMTiming] = None,
        sram_frames: int = 64,
        dram_frames: int = 512,
        media_banks: int = 16,
    ) -> None:
        self.capacity = capacity
        self.timing = timing or PMEMDIMMTiming()
        self.lsq = LoadStoreQueue()
        self.sram = SRAMBuffer(
            frames=sram_frames,
            frame_bytes=PMEM_INTERNAL_BYTES,
            access_ns=self.timing.sram_access_ns,
        )
        self.dram_buffer = SRAMBuffer(
            frames=dram_frames,
            frame_bytes=4096,
            access_ns=self.timing.dram_access_ns,
        )
        # The media is banked: frames interleave across ``media_banks``
        # independent 8-die groups, which is where the real DIMM's
        # sustained write bandwidth comes from.
        self.media_banks = media_banks
        bank_capacity = max(
            PRAM_DEVICE_BYTES,
            capacity // _DIES_PER_FRAME // media_banks + PRAM_DEVICE_BYTES,
        )
        self.banks = [
            [
                PRAMDevice(bank_capacity, pram_timing,
                           device_id=b * _DIES_PER_FRAME + i)
                for i in range(_DIES_PER_FRAME)
            ]
            for b in range(media_banks)
        ]
        self.dies = [die for bank in self.banks for die in bank]
        self.read_latency = LatencyStats("pmem_dimm.read")
        self.write_latency = LatencyStats("pmem_dimm.write")
        #: functional byte images per 64 B line: volatile (still in the
        #: LSQ/internal buffers) vs durable (programmed to media)
        self._volatile_data: dict[int, bytes] = {}
        self._durable_data: dict[int, bytes] = {}
        self.media_reads = 0
        self.media_writes = 0
        self.rmw_count = 0
        self.is_volatile = False

    # -- media -------------------------------------------------------------

    def _frame_of(self, address: int) -> int:
        return address - (address % PMEM_INTERNAL_BYTES)

    def _bank_of(self, frame: int) -> list[PRAMDevice]:
        return self.banks[(frame // PMEM_INTERNAL_BYTES) % self.media_banks]

    def _die_address(self, frame: int) -> int:
        """Bank-local address of a frame (striped across a bank's dies)."""
        frame_index = frame // PMEM_INTERNAL_BYTES // self.media_banks
        return frame_index * PRAM_DEVICE_BYTES

    def _media_read_frame(self, time: float, frame: int) -> float:
        """Read a 256 B frame: one bank's dies in parallel."""
        local = self._die_address(frame)
        done = time
        for die in self._bank_of(frame):
            complete, _ = die.read(time, local, PRAM_DEVICE_BYTES)
            done = max(done, complete)
        self.media_reads += 1
        return done + self.timing.frame_transfer_ns

    def _media_write_frame(
        self, time: float, entry: LSQEntry
    ) -> float:
        """Program a 256 B frame; read-modify first if partially covered."""
        start = time
        full_coverage = entry.coverage == 0b1111
        if not full_coverage:
            start = self._media_read_frame(time, entry.frame)
            self.rmw_count += 1
        local = self._die_address(entry.frame)
        done = start
        for die in self._bank_of(entry.frame):
            complete, _ = die.write(start, local, size=PRAM_DEVICE_BYTES)
            done = max(done, complete)
        self.media_writes += 1
        # the frame's lines are now programmed: promote volatile -> durable
        for line in range(entry.frame, entry.frame + PMEM_INTERNAL_BYTES,
                          CACHELINE_BYTES):
            if line in self._volatile_data:
                self._durable_data[line] = self._volatile_data.pop(line)
        return done

    def _media_backlog(self, time: float, frame: int) -> float:
        bank = self._bank_of(frame)
        return max(0.0, max(die.busy_until for die in bank) - time)

    # -- boundary ----------------------------------------------------------

    def access(self, request: MemoryRequest) -> MemoryResponse:
        if request.op is MemoryOp.FLUSH:
            return MemoryResponse(request, complete_time=self.flush(request.time))
        if request.op is MemoryOp.RESET:
            raise ValueError("PMEM DIMM has no host-visible reset port")
        if request.size > CACHELINE_BYTES:
            raise ValueError("PMEM DIMM boundary is cacheline-granular")
        if request.end_address > self.capacity:
            raise ValueError(
                f"address {request.address:#x} outside DIMM capacity"
            )
        if request.is_write:
            return self._serve_write(request)
        return self._serve_read(request)

    def _line_data(self, address: int) -> Optional[bytes]:
        line = address - address % CACHELINE_BYTES
        return self._volatile_data.get(line, self._durable_data.get(line))

    def _serve_read(self, request: MemoryRequest) -> MemoryResponse:
        t = request.time + self.timing.lsq_ns
        # 1. store-to-load forwarding from a pending combined write
        if self.lsq.forward_read(request.address):
            complete = t + self.timing.sram_access_ns
            self.read_latency.record(complete - request.time)
            return MemoryResponse(request, complete_time=complete,
                                  data=self._line_data(request.address))
        # 2. SRAM level of the inclusive cache
        t += self.timing.sram_lookup_ns
        if self.sram.lookup(request.address):
            complete = t + self.timing.sram_access_ns
            self.read_latency.record(complete - request.time)
            return MemoryResponse(request, complete_time=complete,
                                  data=self._line_data(request.address))
        # 3. internal DRAM level (4 KB buffering)
        t += self.timing.dram_lookup_ns
        if self.dram_buffer.lookup(request.address):
            complete = t + self.timing.dram_access_ns
            self.sram.fill(request.address)
            self.read_latency.record(complete - request.time)
            return MemoryResponse(request, complete_time=complete,
                                  data=self._line_data(request.address))
        # 4. miss: AIT translation (internal DRAM) + 256 B media read
        t += self.timing.ait_ns + self.timing.firmware_ns
        complete = self._media_read_frame(t, self._frame_of(request.address))
        self.sram.fill(request.address)
        self.dram_buffer.fill(request.address)
        self.read_latency.record(complete - request.time)
        return MemoryResponse(request, complete_time=complete,
                              data=self._line_data(request.address))

    def _serve_write(self, request: MemoryRequest) -> MemoryResponse:
        t = request.time + self.timing.lsq_ns
        # Backpressure: stall acceptance while the target bank is deep.
        backlog = self._media_backlog(t, self._frame_of(request.address))
        stall = max(0.0, backlog - self.timing.write_backlog_limit_ns)
        t += stall
        evicted = self.lsq.push_write(t, request.address)
        if request.data is not None:
            line = request.address - request.address % CACHELINE_BYTES
            self._volatile_data[line] = bytes(request.data)
        # The accepted write walks the whole internal pipeline: SRAM
        # staging, the 4 KB DRAM buffer, an AIT update, and the firmware's
        # bookkeeping — still far cheaper than a bare PRAM programming
        # pulse (the paper's 2.3-6.1x DIMM-write advantage), but well
        # above a DRAM store.
        self.sram.fill(request.address)
        self.dram_buffer.fill(request.address)
        complete = t + (
            self.timing.sram_access_ns
            + self.timing.dram_lookup_ns
            + self.timing.dram_access_ns
            + self.timing.ait_ns
            + self.timing.firmware_ns
            + self.timing.frame_transfer_ns
        )
        if evicted is not None:
            # Evicted frame heads to media in the background; the host only
            # pays firmware dispatch, not the programming time.
            self._media_write_frame(
                complete + self.timing.firmware_ns, evicted
            )
        self.write_latency.record(complete - request.time)
        return MemoryResponse(
            request,
            complete_time=complete,
            occupied_until=max(die.busy_until for die in self.dies),
            blocked_ns=stall,
        )

    def flush(self, time: float) -> float:
        """Drain the LSQ and wait for all media programming to finish."""
        t = time + self.timing.firmware_ns
        for entry in self.lsq.drain():
            t = self._media_write_frame(t, entry)
        return max([t] + [die.busy_until for die in self.dies])

    def power_cycle(self) -> None:
        """PRAM media persists; volatile internal state is lost."""
        self._volatile_data.clear()  # LSQ/buffer contents die with power
        self.lsq.drain()
        self.sram.invalidate_all()
        self.dram_buffer.invalidate_all()
        for die in self.dies:
            die.power_cycle()

    def counters(self) -> dict[str, int]:
        return {
            "media_reads": self.media_reads,
            "media_writes": self.media_writes,
            "rmw": self.rmw_count,
            "lsq_combines": self.lsq.combines,
            "sram_hits": self.sram.hits,
            "sram_misses": self.sram.misses,
            "dram_buffer_hits": self.dram_buffer.hits,
            "dram_buffer_misses": self.dram_buffer.misses,
        }
