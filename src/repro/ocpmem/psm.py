"""Persistent Support Module (paper §V-A, Fig. 12).

The PSM sits between the processor's memory bus (AXI in the prototype) and
the Bare-NVDIMM channels, exposing four ports — read, write, flush, reset —
and implementing everything the removed DIMM firmware used to do, but with
as little volatile state as the OS can flush inside a power hold-up window:

* **wear leveling** — Start-Gap with a static randomizer; its <64 B
  register file is part of the EP-cut.
* **row buffers** — one write-aggregation buffer per (DIMM, CE group);
  consecutive writes to the open page are absorbed at BRAM speed, and a
  closing page drains its dirty lines to the dies in the background.
* **early-return writes** — the processor observes only the port
  handshake; programming (and the PRAM core's cooling) proceeds in the
  background.  Only a flush (cache dump / memory fence) waits it out.
* **non-blocking reads** — a read whose target die is busy programming is
  served by reading the *sibling* die, which co-locates the line's other
  half and the XOR parity, and regenerating the missing half in one
  combinational XOR (XCC).  This removes the read-after-write
  head-of-line blocking that cripples the baseline.
* **error containment** — a die whose media ECC flags a slot makes the PSM
  regenerate the data from the sibling; if both slots are flagged the
  response carries the containment bit and the host raises an MCE
  (optionally, the future-work symbol ECC gets a chance first).

Two modelling choices worth flagging (also in DESIGN.md):

1. A line's two halves live on the two dies of a dual-channel group, each
   die co-locating the 32 B XOR parity with its half — this is how we read
   the paper's "2x capacity" Bare-NVDIMM provisioning, and it makes a
   single surviving die sufficient to regenerate the whole line.
2. When LightPC drains a row buffer, the per-die programming operations
   are *staggered* (pipelined) so that at most one die of a group is
   programming at any instant; the sibling die therefore stays readable
   and reconstruction is always possible.  The baseline (LightPC-B)
   programs both halves in parallel like a conventional controller, which
   is exactly what creates its head-of-line blocking.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.memory.device import PRAMTiming
from repro.memory.port import PowerPart
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)
from repro.memory.rowbuffer import WriteAggregationBuffer
from repro.ocpmem.ecc import SymbolECC, XORCodec
from repro.ocpmem.nvdimm import BareNVDIMM, Layout
from repro.ocpmem.wear import MoveFn, StartGap, WearRegisters
from repro.sim.stats import LatencyStats, RatioStat, StatsRegistry

__all__ = ["PSM", "PSMConfig", "MachineCheckError"]

_HALF = 32


class MachineCheckError(RuntimeError):
    """Host-side MCE raised on an uncorrectable, contained error."""


@dataclass(frozen=True)
class PSMConfig:
    """PSM feature knobs and timing constants.

    ``LightPC`` is the full design; ``LightPC-B`` disables the advanced
    PRAM management (aggregation, early return, reconstruction) while
    keeping the open-channel datapath.
    """

    dimms: int = 6
    lines_per_dimm: int = 1 << 14
    layout: Layout = "dual_channel"
    #: AXI port handshake cost, each direction.
    port_ns: float = 5.0
    #: Row-buffer (BRAM) access latency.
    buffer_ns: float = 4.0
    #: One combinational XOR decode cycle at the 1.6 GHz ASIC target.
    xor_decode_ns: float = 0.625
    #: Burst continuation cost of the second 32 B beat of a reconstruction
    #: read (the sibling die streams half + parity in one pipelined burst).
    reconstruct_extra_ns: float = 15.0
    write_aggregation: bool = True
    early_return_writes: bool = True
    ecc_reconstruction: bool = True
    #: Per-group media backlog past which write acceptance stalls.
    write_backlog_limit_ns: float = 6_000.0
    wear_threshold: int = 100
    wear_seed: int = 0x5EED
    #: Randomizer granularity in lines; 64 = one 4 KB page, preserving the
    #: intra-page adjacency the row buffers and channel interleaving need.
    wear_randomize_unit: int = 64
    rotate_seed_every: Optional[int] = None
    #: override the PRAM die timing (sensitivity sweeps); None = default
    pram_timing: Optional["PRAMTiming"] = None
    #: Engage the future-work symbol ECC when XCC cannot recover.
    symbol_ecc: bool = False

    @property
    def total_lines(self) -> int:
        return self.dimms * self.lines_per_dimm

    @classmethod
    def lightpc(cls, **overrides) -> "PSMConfig":
        return cls(**overrides)

    @classmethod
    def lightpc_b(cls, **overrides) -> "PSMConfig":
        overrides.setdefault("write_aggregation", False)
        overrides.setdefault("early_return_writes", False)
        overrides.setdefault("ecc_reconstruction", False)
        return cls(**overrides)


def _weak_move_line(psm: "PSM") -> MoveFn:
    """``psm._move_line`` through a weak reference.

    The PSM owns its Start-Gap, so a bound method as the Start-Gap's
    move callback would make the two a cycle that only the cyclic
    collector frees.
    """
    move_line = weakref.WeakMethod(psm._move_line)

    def move(src_physical: int, dst_physical: int) -> None:
        method = move_line()
        assert method is not None  # only the live PSM moves its lines
        method(src_physical, dst_physical)

    return move


class PSM:
    """The persistent support module fronting the Bare-NVDIMM channels."""

    def __init__(self, config: Optional[PSMConfig] = None,
                 functional: bool = False) -> None:
        self.config = config or PSMConfig()
        self.functional = functional
        cfg = self.config
        timing = cfg.pram_timing or PRAMTiming()  # one record for every die
        self.nvdimms = [
            BareNVDIMM(cfg.lines_per_dimm, cfg.layout,
                       timing=timing, dimm_id=i)
            for i in range(cfg.dimms)
        ]
        self.wear = self._start_gap()
        self.xcc = XORCodec(half_bytes=_HALF)
        self.symbol_ecc = SymbolECC() if cfg.symbol_ecc else None
        self._buffers: dict[tuple[int, int], WriteAggregationBuffer] = {}
        #: youngest data for lines still sitting in a row buffer
        self._pending: dict[int, bytes] = {}
        #: per-DIMM synchronous (DDR) channel occupancy
        self._channel_busy: dict[int, float] = {}
        self.read_latency = LatencyStats("psm.read")
        self.write_latency = LatencyStats("psm.write")
        self.buffer_hits = RatioStat()
        self.reconstructions = 0
        self.read_blocked_ns = 0.0
        self.write_stall_ns = 0.0
        self.background_ns = 0.0
        self.media_line_writes = 0
        self.mce_count = 0
        self.is_volatile = False

    # -- geometry -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Host-visible capacity in bytes (logical lines)."""
        return self.wear.lines * CACHELINE_BYTES

    def _start_gap(self) -> StartGap:
        cfg = self.config
        return StartGap(
            lines=cfg.total_lines - 1,  # one physical spare line
            threshold=cfg.wear_threshold,
            seed=cfg.wear_seed,
            move_fn=_weak_move_line(self) if self.functional else None,
            rotate_seed_every=cfg.rotate_seed_every,
            randomize_unit=cfg.wear_randomize_unit,
        )

    def _route(self, physical_line: int) -> tuple[BareNVDIMM, int]:
        dimm = self.nvdimms[physical_line % len(self.nvdimms)]
        return dimm, physical_line // len(self.nvdimms)

    def _translate(self, address: int) -> tuple[int, BareNVDIMM, int]:
        logical_line = address // CACHELINE_BYTES
        if logical_line >= self.wear.lines:
            raise AddressSpaceError(
                f"address {address:#x} outside OC-PMEM capacity "
                f"{self.capacity:#x}"
            )
        physical_line = self.wear.map(logical_line)
        dimm, local_line = self._route(physical_line)
        return physical_line, dimm, local_line

    def _buffer(self, dimm_id: int, group: int) -> WriteAggregationBuffer:
        key = (dimm_id, group)
        buf = self._buffers.get(key)
        if buf is None:
            buf = WriteAggregationBuffer(
                page_bytes=4096, beat_bytes=CACHELINE_BYTES,
                access_ns=self.config.buffer_ns,
            )
            self._buffers[key] = buf
        return buf

    def _move_line(self, src_physical: int, dst_physical: int) -> None:
        """Start-Gap data movement (functional mode only)."""
        src_dimm, src_line = self._route(src_physical)
        dst_dimm, dst_line = self._route(dst_physical)
        half0, parity = src_dimm.load_slot(src_line, 0)
        half1, _ = src_dimm.load_slot(src_line, 1)
        dst_dimm.store_line(dst_line, half0 + half1)

    # -- boundary ---------------------------------------------------------------

    def access(self, request: MemoryRequest) -> MemoryResponse:
        op = request.op
        if op is MemoryOp.FLUSH:
            return MemoryResponse(request, complete_time=self.flush(request.time))
        if op is MemoryOp.RESET:
            return MemoryResponse(request, complete_time=self.reset(request.time))
        if request.size > CACHELINE_BYTES:
            raise ValueError("PSM boundary is cacheline-granular")
        if op is MemoryOp.WRITE:
            data = request.data
            if data is not None and len(data) != CACHELINE_BYTES:
                # the line is programmed whole (two 32 B die halves plus
                # parity), so a partial line is refused before any state
                # changes, not when its page later drains
                raise ValueError(
                    f"PSM writes carry whole {CACHELINE_BYTES} B lines, "
                    f"got {len(data)} B of data")
            return self._serve_write(request)
        return self._serve_read(request)

    # -- write path --------------------------------------------------------------

    def _serve_write(self, request: MemoryRequest) -> MemoryResponse:
        cfg = self.config
        t = request.time + cfg.port_ns
        physical_line, dimm, local_line = self._translate(request.address)
        group, first, _ = dimm.slot_of(local_line)
        self.background_ns += self.wear.record_write(
            request.address // CACHELINE_BYTES)

        # Backpressure: a DIMM whose channel/media backlog is too deep
        # stalls the port until programming catches up.
        busiest = 0.0  # dies are idle from time 0
        for die in dimm.dies[first:first + dimm.dies_per_group]:
            if die.busy_until > busiest:
                busiest = die.busy_until
        channel = self._channel_busy.get(dimm.dimm_id, 0.0)
        backlog = busiest - t if busiest > t else 0.0
        if channel - t > backlog:
            backlog = channel - t
        stall = backlog - cfg.write_backlog_limit_ns
        if stall <= 0.0:
            stall = 0.0
        t += stall
        self.write_stall_ns += stall

        if cfg.write_aggregation:
            # The row buffer absorbs the write at BRAM speed; the channel
            # is held only for the handshake, programming happens in the
            # background (early return).
            buf = self._buffer(dimm.dimm_id, group)
            absorbed, to_drain = buf.write(t, local_line * CACHELINE_BYTES)
            if request.data is not None:
                self._pending[physical_line] = request.data
            if to_drain is not None:
                page, beats = to_drain
                self._drain_page(t, dimm, page, beats)
            complete = t + cfg.buffer_ns + cfg.port_ns
            self.buffer_hits.record(absorbed)
        else:
            # Conventional synchronous path: the write occupies the DIMM's
            # DDR channel.  With early return the channel frees after the
            # transfer+accept handshake; without it (LightPC-B) the channel
            # is held until the PRAM core finishes programming *and*
            # cooling — the head-of-line blocking the PSM exists to remove.
            accept, pulse_end = self._program_line(
                channel if channel > t else t, dimm, local_line,
                data=request.data, staggered=False,
            )
            if cfg.early_return_writes:
                self._channel_busy[dimm.dimm_id] = accept
            else:
                # Synchronous DDR: the channel is held until the DIMM
                # acks — after the programming pulse makes data durable.
                self._channel_busy[dimm.dimm_id] = pulse_end
            # The controller's write queue posts the write; the
            # requester does not wait for the media.
            complete = accept + cfg.port_ns
        self.write_latency.record(complete - request.time)
        return MemoryResponse(
            request,
            complete_time=complete,
            occupied_until=dimm.drain(complete),
            blocked_ns=stall,
        )

    def _drain_page(
        self,
        time: float,
        dimm: BareNVDIMM,
        page: int,
        beats: set[int],
    ) -> None:
        """Program a closed page's dirty lines, staggered across the dies."""
        lines_per_page = 4096 // CACHELINE_BYTES
        t = time
        for beat in sorted(beats):
            local_line = page * lines_per_page + beat
            if local_line >= dimm.lines:
                continue
            physical_line = self._physical_of_local(dimm, local_line)
            data = self._pending.pop(physical_line, None)
            _, t = self._program_line(
                t, dimm, local_line, data=data, staggered=True,
            )

    def _physical_of_local(self, dimm: BareNVDIMM, local_line: int) -> int:
        return local_line * len(self.nvdimms) + dimm.dimm_id

    def _program_line(
        self,
        time: float,
        dimm: BareNVDIMM,
        local_line: int,
        data: Optional[bytes],
        staggered: bool,
    ) -> tuple[float, float]:
        """Program one cacheline onto its group's dies.

        Returns ``(accept_time, media_complete_time)``.  ``staggered``
        pipelines the per-die operations so at most one die of the group
        is programming at a time (LightPC row-buffer drains); the parallel
        variant is the conventional-controller behaviour of LightPC-B.
        """
        self.media_line_writes += 1
        _, first, address = dimm.slot_of(local_line)
        if data is not None and dimm.layout == "dual_channel":
            half0, half1 = data[:_HALF], data[_HALF:]
            parity = self.xcc.encode(half0, half1)  # one combinational cycle
            dimm.store_at(first, address, half0, half1, parity)
        issue = accept = pulse_end = time
        for die in dimm.dies[first:first + dimm.dies_per_group]:
            end = die.program(issue, address)
            accepted = issue + die.timing.accept_ns
            if accepted > accept:
                accept = accepted
            if end > pulse_end:
                pulse_end = end
            if staggered:
                # next die starts once this pulse ends (cooling is
                # per-row and does not block the sibling's programming)
                issue = end
        return accept, pulse_end

    # -- read path ------------------------------------------------------------------

    def _serve_read(self, request: MemoryRequest) -> MemoryResponse:
        cfg = self.config
        t = request.time + cfg.port_ns
        physical_line, dimm, local_line = self._translate(request.address)
        group, first, address = dimm.slot_of(local_line)

        # 1. row buffer holds the youngest copy?
        if cfg.write_aggregation:
            buf = self._buffer(dimm.dimm_id, group)
            if buf.read_hit(local_line * CACHELINE_BYTES):
                complete = t + cfg.buffer_ns + cfg.port_ns
                self.read_latency.record(complete - request.time)
                return MemoryResponse(
                    request,
                    complete_time=complete,
                    data=self._pending.get(physical_line),
                )

        # The synchronous DDR channel is shared per DIMM: a write being
        # held on it (LightPC-B) blocks every read behind it, whatever die
        # it targets — the head-of-line blocking of Fig. 16.
        channel_wait = self._channel_busy.get(dimm.dimm_id, 0.0) - t
        if channel_wait > 0:
            self.read_blocked_ns += channel_wait
            t += channel_wait

        if cfg.layout == "dram_like":
            return self._read_dram_like(request, t, dimm, local_line)

        die0 = dimm.dies[first]
        die1 = dimm.dies[first + 1]
        if self.functional:
            corrupt0 = dimm.is_corrupt_at(first, address)
            corrupt1 = dimm.is_corrupt_at(first + 1, address)
        else:
            corrupt0 = corrupt1 = False
        # each die can serve the line once it is idle and the row cooled
        ready0 = die0.ready_at(address)
        ready1 = die1.ready_at(address)
        busy0 = ready0 > t
        busy1 = ready1 > t
        wait0 = ready0 - t if busy0 else 0.0
        wait1 = ready1 - t if busy1 else 0.0

        if corrupt0 and corrupt1:
            return self._contained_error(request, t, dimm, local_line)

        if cfg.ecc_reconstruction and (busy0 or busy1 or corrupt0 or corrupt1):
            # Non-blocking service: read one die (its half + the co-located
            # parity regenerate the other half in one XOR cycle).  Queued
            # programming yields to reads; only the die's *active*
            # programming pulse cannot be preempted, so the worst wait is
            # bounded by the remaining pulse, approximated as half an
            # occupancy window.
            which = self._pick_survivor(wait0, wait1, corrupt0, corrupt1)
            die = die1 if which else die0
            if cfg.write_aggregation:
                # Staggered drains keep at most one die of the group
                # actively programming; the survivor's backlog is queued
                # work that yields to reads.
                wait = 0.0
            else:
                wait = min(
                    wait1 if which else wait0,
                    die.timing.write_occupancy_ns / 2.0,
                )
            self.read_blocked_ns += wait
            # 64 B (half + parity) from one die: a pipelined two-beat
            # burst, slotted into the die's queue gaps (busy_until not
            # extended).
            die.read_count += 2
            complete = (
                t + wait + die.timing.read_ns + cfg.reconstruct_extra_ns
                + cfg.xor_decode_ns + cfg.port_ns
            )
            data = self._reconstruct_data(dimm, first + which, address, which)
            self.reconstructions += 1
            # the channel is held only for the pipelined data burst
            self._channel_busy[dimm.dimm_id] = t + 20.0
            self.read_latency.record(complete - request.time)
            return MemoryResponse(
                request, complete_time=complete, data=data, reconstructed=True
            )

        # Plain path: both halves in parallel; wait on busy dies — this is
        # the baseline's read-after-write head-of-line blocking.
        wait = wait0 if wait0 >= wait1 else wait1
        self.read_blocked_ns += wait
        c0 = die0.occupy_read(t, ready0)
        c1 = die1.occupy_read(t, ready1)
        complete = (c0 if c0 >= c1 else c1) + cfg.port_ns
        # the channel is held only for the pipelined data burst
        self._channel_busy[dimm.dimm_id] = t + 20.0
        data: Optional[bytes] = None
        if self.functional:
            half0, parity0 = dimm.load_at(first, address)
            half1, _ = dimm.load_at(first + 1, address)
            if not self.xcc.verify(half0, half1, parity0):
                # Shouldn't happen without injected faults; contained.
                return self._contained_error(request, t, dimm, local_line)
            data = half0 + half1
        self.read_latency.record(complete - request.time)
        return MemoryResponse(
            request, complete_time=complete, data=data, blocked_ns=wait
        )

    @staticmethod
    def _pick_survivor(
        wait0: float, wait1: float, corrupt0: bool, corrupt1: bool
    ) -> int:
        if corrupt0:
            return 1
        if corrupt1:
            return 0
        return 0 if wait0 <= wait1 else 1

    def _reconstruct_data(
        self, dimm: BareNVDIMM, die: int, address: int, survivor: int
    ) -> Optional[bytes]:
        if not self.functional:
            return None
        half, parity = dimm.load_at(die, address)
        other = self.xcc.reconstruct(half, parity)
        return (half + other) if survivor == 0 else (other + half)

    def _contained_error(
        self, request: MemoryRequest, t: float, dimm: BareNVDIMM, local_line: int
    ) -> MemoryResponse:
        """Both copies are bad: containment bit -> host raises an MCE.

        With the future-work symbol ECC enabled, a deeper decode is
        attempted first (modelled as succeeding for single-slot-per-symbol
        damage, at its decode latency).
        """
        if self.symbol_ecc is not None:
            complete = t + self.symbol_ecc.decode_ns + self.config.port_ns
            self.symbol_ecc.corrections += 1
            self.read_latency.record(complete - request.time)
            return MemoryResponse(
                request, complete_time=complete, reconstructed=True
            )
        self.mce_count += 1
        raise MachineCheckError(
            f"uncorrectable error at line {local_line} of DIMM {dimm.dimm_id}"
        )

    def _read_dram_like(
        self, request: MemoryRequest, t: float, dimm: BareNVDIMM,
        local_line: int,
    ) -> MemoryResponse:
        """Strawman layout: every access enables all eight dies."""
        complete = wait = 0.0
        for slot in dimm.slots_of(local_line):
            die = dimm.dies[slot.die]
            ready = die.ready_at(slot.address)
            if ready - t > wait:
                wait = ready - t
            done = die.occupy_read(t, ready)
            if done > complete:
                complete = done
        self.read_blocked_ns += wait
        complete += self.config.port_ns
        self.read_latency.record(complete - request.time)
        return MemoryResponse(request, complete_time=complete, blocked_ns=wait)

    # -- flush & reset ports -------------------------------------------------------

    def flush(self, time: float) -> float:
        """Flush port: close all row buffers, drain all programming.

        This is the memory-synchronization interface SnG's Auto-Stop uses;
        after it returns there are no early-returned requests in flight.
        """
        for (dimm_id, _group), buf in self._buffers.items():
            closed = buf.flush()
            if closed is not None:
                page, beats = closed
                self._drain_page(time, self.nvdimms[dimm_id], page, beats)
        return self.drain(time) + self.config.port_ns

    def reset(self, time: float) -> float:
        """Reset port: wipe all media (MCE recovery / cold re-init)."""
        for dimm in self.nvdimms:
            dimm.wipe()
        self._pending.clear()
        self._buffers.clear()
        self._channel_busy.clear()
        self.wear = self._start_gap()
        return time + 1_000.0  # bulk wipe handshake

    def drain(self, time: float) -> float:
        """Quiesce time without closing row buffers (fence semantics)."""
        for dimm in self.nvdimms:
            time = dimm.drain(time)
        return time

    def power_cycle(self) -> None:
        """Power loss: media persists; volatile PSM state must have been
        flushed by SnG beforehand or pending data is lost (by design —
        that is exactly what the flush port is for).

        The wear-leveler's register file is volatile too: unless the
        EP-cut captured it (:meth:`capture_registers`) and Go restores it
        (:meth:`restore_wear_registers`), the mapping resets and stored
        data becomes unreachable — the paper persists exactly these <64 B
        at SnG time (§VIII).
        """
        self._pending.clear()
        self._buffers.clear()
        self._channel_busy.clear()
        for dimm in self.nvdimms:
            dimm.power_cycle()
        self.wear.restore_registers(WearRegisters(
            start=0, gap=self.wear.lines, write_count=0,
            seed=self.config.wear_seed, gap_cycles=0,
        ))

    def read_media_of(self, source: "PSM") -> None:
        """Read ``source``'s persistent media from now on.

        The PRAM dies' stored blocks and their containment marks are
        ``source``'s own objects, not a copy, so a read here sees
        whatever ``source`` has programmed by then.  Everything volatile
        (row buffers, pending lines, die and channel occupancy, the wear
        registers) stays this PSM's, so :meth:`power_cycle` and
        :meth:`restore_wear_registers` here recover ``source``'s media as
        a power cut would, while ``source`` runs on untouched.  Only
        read through this PSM afterwards: a write or a reset would
        change ``source``'s media.
        """
        if len(source.nvdimms) != len(self.nvdimms):
            raise ValueError(
                f"media of {len(source.nvdimms)} DIMMs, have "
                f"{len(self.nvdimms)}")
        for dimm, source_dimm in zip(self.nvdimms, source.nvdimms):
            dimm.read_media_of(source_dimm)

    def media_version(self) -> int:
        """A count that grows with every write or wipe of the PRAM media.

        Equal counts mean the stored bytes and containment marks are as
        they were: every mark change comes with a store write.  Row
        buffer hits, reads and the volatile state leave it alone; a PSM
        reading another's media (:meth:`read_media_of`) sees the other's
        writes.
        """
        return sum(die.storage.version
                   for dimm in self.nvdimms for die in dimm.dies)

    # -- EP-cut register capture -------------------------------------------

    def capture_registers(self) -> bytes:
        """The wear-leveler register file for the EP-cut: the fixed 40 B
        image of :meth:`WearRegisters.pack`."""
        return self.wear.registers().pack()

    def restore_wear_registers(self, blob: bytes) -> None:
        """Restore the register file Go read back from the BCB; ``b""``
        means nothing was captured, any other length but 40 B raises
        ``ValueError``."""
        if not blob:
            return
        self.wear.restore_registers(WearRegisters.unpack(blob))

    # -- introspection -----------------------------------------------------------------

    @property
    def buffer_hit_ratio(self) -> float:
        """Write-aggregation buffer hit ratio at the port boundary."""
        return self.buffer_hits.ratio

    def counters(self) -> dict[str, float]:
        counters: dict[str, float] = {
            "media_line_writes": self.media_line_writes,
            "reconstructions": self.reconstructions,
            "read_blocked_ns": self.read_blocked_ns,
            "write_stall_ns": self.write_stall_ns,
            "buffer_hit_ratio": self.buffer_hits.ratio,
            "wear_gap_moves": self.wear.gap_moves,
            "mce_count": self.mce_count,
        }
        nvdimm = {"reads": 0, "writes": 0}
        for dimm in self.nvdimms:
            for key, value in dimm.counters().items():
                nvdimm[key] += value
        counters.update({f"nvdimm_{k}": v for k, v in nvdimm.items()})
        return counters

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("read", self.read_latency)
        stats.register("write", self.write_latency)
        stats.register("buffer_hit_ratio", lambda: self.buffer_hits.ratio)
        stats.register("counters", self.counters)
        devices = stats.scoped("devices")
        for index, dimm in enumerate(self.nvdimms):
            dimm.register_stats(devices.scoped(f"dimm{index}"))

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        """LightPC memory inventory: the PSM, bare DIMMs, lean board."""
        dimms = float(len(self.nvdimms))
        nvdimm = {
            "reads": counters.get("nvdimm_reads", 0.0) / dimms,
            "writes": counters.get("nvdimm_writes", 0.0) / dimms,
        }
        return [
            ("psm", 1.0, dict(counters)),
            ("bare_nvdimm", dimms, nvdimm),
            ("board_light", 1.0, None),
        ]
