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

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.memory.batch import (
    BatchRequests,
    BatchResponses,
    RequestWindow,
    ResponseWindow,
    default_access_batch,
)
from repro.memory.device import PRAMTiming
from repro.memory.extent import (
    Extent,
    FlushReport,
    batched_flush_extents,
    default_flush_extents,
    window_from_extents,
)
from repro.memory.port import PowerPart
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)
from repro.memory.rowbuffer import WriteAggregationBuffer
from repro.ocpmem.columnar import psm_access_window
from repro.ocpmem.ecc import SymbolECC, XORCodec
from repro.ocpmem.nvdimm import BareNVDIMM, Layout
from repro.ocpmem.wear import StartGap
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


class PSM:
    """The persistent support module fronting the Bare-NVDIMM channels."""

    def __init__(self, config: Optional[PSMConfig] = None,
                 functional: bool = False) -> None:
        self.config = config or PSMConfig()
        self.functional = functional
        cfg = self.config
        self.nvdimms = [
            BareNVDIMM(cfg.lines_per_dimm, cfg.layout,
                       timing=cfg.pram_timing, dimm_id=i)
            for i in range(cfg.dimms)
        ]
        move_fn = self._move_line if functional else None
        self.wear = StartGap(
            lines=cfg.total_lines - 1,  # one physical spare line
            threshold=cfg.wear_threshold,
            seed=cfg.wear_seed,
            move_fn=move_fn,
            rotate_seed_every=cfg.rotate_seed_every,
            randomize_unit=cfg.wear_randomize_unit,
        )
        self.xcc = XORCodec(half_bytes=_HALF)
        self.symbol_ecc = SymbolECC() if cfg.symbol_ecc else None
        self._buffers: dict[tuple[int, int], WriteAggregationBuffer] = {}
        #: randomize-unit -> randomized-unit memo for the extent flush.
        #: The Feistel result depends only on the randomizer instance (not
        #: on start/gap), so it survives gap moves — exactly what makes
        #: unique-address flush streams cheap: one network walk covers
        #: ``randomize_unit`` adjacent lines.
        self._unit_memo: dict[int, int] = {}
        self._unit_randomizer: Optional[object] = None
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
        if request.op is MemoryOp.FLUSH:
            return MemoryResponse(request, complete_time=self.flush(request.time))
        if request.op is MemoryOp.RESET:
            return MemoryResponse(request, complete_time=self.reset(request.time))
        if request.size > CACHELINE_BYTES:
            raise ValueError("PSM boundary is cacheline-granular")
        if request.is_write:
            return self._serve_write(request)
        return self._serve_read(request)

    def access_batch(self, requests: BatchRequests) -> BatchResponses:
        """Serve a whole window through the columnar PSM kernel.

        Value-identical to looping :meth:`access` (see
        :func:`~repro.ocpmem.columnar.psm_access_window`).  Functional
        mode, the strawman layout, request lists that are not
        window-shaped, and the configurations the kernel does not model
        — seed rotation, Start-Gap or per-die wear tracking — take the
        scalar loop.
        """
        window = requests if isinstance(requests, RequestWindow) \
            else RequestWindow.from_requests(requests)
        if (
            window is None
            or self.functional
            or self.config.layout != "dual_channel"
            or not self._plain_wear()
        ):
            return default_access_batch(self, requests)
        if window.size > CACHELINE_BYTES:
            raise ValueError("PSM boundary is cacheline-granular")
        return psm_access_window(self, window)

    def _plain_wear(self) -> bool:
        """No seed rotation and no wear tracing, Start-Gap or per-die:
        the only wear configuration the fast paths model."""
        return (
            self.config.rotate_seed_every is None
            and not self.wear.track_wear
            and not any(
                die.track_wear for dimm in self.nvdimms for die in dimm.dies
            )
        )

    def flush_extents(self, extents: list[Extent], time: float) -> FlushReport:
        """Drain dirty extents through the closed-form write fast path.

        The persistence cut's traffic is all-write, single issue time,
        runs of adjacent lines.  For the shipped configuration
        (aggregating dual-channel PSM, cacheline extents, no seed
        rotation or wear tracing) :meth:`_flush_extents_fast` serves it
        with the whole write pipeline — Start-Gap translation, backlog,
        row-buffer absorption, staggered page drains — inlined into one
        loop, the Feistel walk amortized per randomize unit, and stats
        landed via bulk records.  Other configurations lower onto
        :meth:`access_batch` (which routes the wear-tracing and
        seed-rotation sweeps on to the scalar loop); functional mode and
        the strawman layout keep the scalar loop.  All are
        value-identical.  Write-back only: the row buffers stay open and
        programming keeps running in the background; SnG's memory
        synchronization remains a separate :meth:`flush` call, exactly
        as on the scalar path.
        """
        cfg = self.config
        if self.functional or cfg.layout != "dual_channel" or not extents:
            return default_flush_extents(self, extents, time)
        if (
            cfg.write_aggregation
            and all(e.size == CACHELINE_BYTES for e in extents)
            and self._plain_wear()
        ):
            return self._flush_extents_fast(extents, time)
        return batched_flush_extents(self, extents, time)

    def _flush_extents_fast(self, extents: list[Extent], time: float) -> FlushReport:
        """One-pass extent drain with the write pipeline fully inlined.

        Value-identical to serving the expanded window through
        :meth:`access_batch` (and therefore to the scalar loop): the same
        float expressions run in the same order for translation, backlog
        stalls, buffer absorption and the staggered page drains
        (:meth:`_drain_page` / :meth:`_program_line` / ``PRAMDevice.write``
        unrolled for the data-less early-return case).  The wins over the
        batched path: no per-line request/response dispatch, the Feistel
        walk runs once per randomize unit and the Start-Gap offsets apply
        incrementally over each extent's run, row-buffer hits skip the
        buffer method calls, and the drain loop touches die state through
        locals.  Preconditions (checked by :meth:`flush_extents`):
        aggregating dual-channel timing mode, cacheline-sized extents, no
        seed rotation, no wear tracing.
        """
        cfg = self.config
        port_ns = cfg.port_ns
        buffer_ns = cfg.buffer_ns
        limit_ns = cfg.write_backlog_limit_ns
        wear = self.wear
        wear_lines = wear.lines
        threshold = wear.threshold
        unit_memo = self._unit_memo
        if wear._randomizer is not self._unit_randomizer:
            unit_memo.clear()
            self._unit_randomizer = wear._randomizer
        randomizer_apply = wear._randomizer.apply
        unit_size = wear.randomize_unit
        units = wear._units
        nvdimms = self.nvdimms
        n_dimms = len(nvdimms)
        dies_col = [dimm.dies for dimm in nvdimms]
        dimm_lines = nvdimms[0].lines
        lines_per_page = 4096 // CACHELINE_BYTES
        buffers = self._buffers
        pending = self._pending
        xcc_encode = self.xcc.encode
        ref_timing = nvdimms[0].dies[0].timing
        service_ns = ref_timing.write_service_ns
        cooling_ns = ref_timing.cooling_ns
        channel_col = [
            self._channel_busy.get(d.dimm_id, 0.0) for d in nvdimms
        ]
        drain_cache = [0.0] * n_dimms
        drain_dirty = [True] * n_dimms
        background_ns = self.background_ns
        write_stall_ns = self.write_stall_ns
        media_line_writes = self.media_line_writes
        buffer_hit_count = 0
        write_count = wear.write_count
        start_reg = wear.start
        gap = wear.gap
        tp = time + port_ns
        n = 0
        for extent in extents:
            n += extent.lines
        complete_col = [0.0] * n
        occupied_col = [0.0] * n
        blocked_col = [0.0] * n
        write_latencies = [0.0] * n
        done = time
        blocked_total = 0.0
        index = 0
        error: Optional[AddressSpaceError] = None
        for extent in extents:
            line = extent.start // CACHELINE_BYTES
            remaining = extent.lines
            while remaining:
                if line >= wear_lines:
                    address = extent.start + (
                        extent.lines - remaining
                    ) * CACHELINE_BYTES
                    error = AddressSpaceError(
                        f"address {address:#x} outside OC-PMEM capacity "
                        f"{wear_lines * CACHELINE_BYTES:#x}"
                    )
                    break
                # One Feistel evaluation covers the run of lines sharing
                # this randomize unit (the scalar loop re-walks it per
                # line); the tail past the permutation domain stays put.
                unit, offset = divmod(line, unit_size)
                if unit >= units:
                    rbase = line - offset
                    span = remaining
                else:
                    r = unit_memo.get(unit)
                    if r is None:
                        r = randomizer_apply(unit)
                        unit_memo[unit] = r
                    rbase = r * unit_size
                    span = unit_size - offset
                    if span > remaining:
                        span = remaining
                cap = wear_lines - line
                if span > cap:
                    span = cap
                for off in range(offset, offset + span):
                    physical = rbase + off + start_reg
                    if physical >= wear_lines:
                        physical -= wear_lines
                    if physical >= gap:
                        physical += 1
                    dimm_index = physical % n_dimms
                    local_line = physical // n_dimms
                    # StartGap.record_write inlined (no rotation, no wear
                    # tracing by precondition); a gap move re-bases the
                    # incremental mapping for the lines that follow it.
                    write_count += 1
                    if write_count % threshold == 0:
                        wear.write_count = write_count
                        background_ns += wear._move_gap()
                        start_reg = wear.start
                        gap = wear.gap
                    dies = dies_col[dimm_index]
                    group = local_line & 3
                    base = group + group
                    die0 = dies[base]
                    die1 = dies[base + 1]
                    b0 = die0.busy_until
                    b1 = die1.busy_until
                    group_max = b0 if b0 >= b1 else b1
                    t = tp
                    backlog = group_max - t
                    if backlog < 0.0:
                        backlog = 0.0
                    channel_wait = channel_col[dimm_index] - t
                    if channel_wait > backlog:
                        backlog = channel_wait
                    stall = backlog - limit_ns
                    if stall > 0.0:
                        t = t + stall
                    else:
                        stall = 0.0
                    write_stall_ns += stall
                    page, beat = divmod(local_line, lines_per_page)
                    buf = buffers.get((dimm_index, group))
                    if buf is None:
                        buf = self._buffer(dimm_index, group)
                    open_page = buf._open
                    if open_page is not None and open_page.page == page:
                        # Row-buffer absorption with the buffer write
                        # unrolled (same stats, same dirty-beat state).
                        open_page.dirty.add(beat)
                        stats = buf.stats
                        stats.total += 1
                        stats.hits += 1
                        buffer_hit_count += 1
                    else:
                        # Page transition: the buffer method handles the
                        # close/open bookkeeping (rare — once per page).
                        _absorbed, to_drain = buf.write(
                            t, local_line * CACHELINE_BYTES
                        )
                        if to_drain is not None:
                            # _drain_page/_program_line/PRAMDevice.write
                            # inlined for the staggered data-less case:
                            # the drained page's beats share one cooling
                            # row and this buffer's CE group.
                            dpage, beats = to_drain
                            td = t
                            dl_base = dpage * lines_per_page
                            row = dpage
                            for beat_i in sorted(beats):
                                dl = dl_base + beat_i
                                if dl >= dimm_lines:
                                    continue
                                media_line_writes += 1
                                if pending:
                                    data = pending.pop(
                                        dl * n_dimms + dimm_index, None
                                    )
                                    if data is not None:
                                        xcc_encode(
                                            data[:_HALF], data[_HALF:]
                                        )
                                        nvdimms[dimm_index].store_line(
                                            dl, data
                                        )
                                b = die0.busy_until
                                cooling = die0._cooling
                                cool = cooling.get(row, 0.0)
                                s = td if td >= b else b
                                if cool > s:
                                    s = cool
                                p0 = s + service_ns
                                die0.busy_until = p0
                                if len(cooling) > 64:
                                    cooling = {
                                        rr: tt for rr, tt in cooling.items()
                                        if tt > td
                                    }
                                    die0._cooling = cooling
                                cooling[row] = p0 + cooling_ns
                                die0.write_count += 1
                                # sibling die staggered: issues once the
                                # first pulse ends
                                b = die1.busy_until
                                cooling = die1._cooling
                                cool = cooling.get(row, 0.0)
                                s = p0 if p0 >= b else b
                                if cool > s:
                                    s = cool
                                p1 = s + service_ns
                                die1.busy_until = p1
                                if len(cooling) > 64:
                                    cooling = {
                                        rr: tt for rr, tt in cooling.items()
                                        if tt > p0
                                    }
                                    die1._cooling = cooling
                                cooling[row] = p1 + cooling_ns
                                die1.write_count += 1
                                td = p1 if p1 >= p0 else p0
                            drain_dirty[dimm_index] = True
                    if drain_dirty[dimm_index]:
                        dimm_max = 0.0
                        for die in dies:
                            if die.busy_until > dimm_max:
                                dimm_max = die.busy_until
                        drain_cache[dimm_index] = dimm_max
                        drain_dirty[dimm_index] = False
                    else:
                        dimm_max = drain_cache[dimm_index]
                    complete = t + buffer_ns + port_ns
                    write_latencies[index] = complete - time
                    complete_col[index] = complete
                    occupied_col[index] = (
                        complete if complete >= dimm_max else dimm_max
                    )
                    blocked_col[index] = stall
                    blocked_total += stall
                    if complete > done:
                        done = complete
                    index += 1
                line += span
                remaining -= span
            if error is not None:
                break
        wear.write_count = write_count
        channel_busy = self._channel_busy
        for dimm_index in range(n_dimms):
            channel_busy[dimm_index] = channel_col[dimm_index]
        self.background_ns = background_ns
        self.write_stall_ns = write_stall_ns
        self.media_line_writes = media_line_writes
        self.buffer_hits.record_many(buffer_hit_count, index)
        if index:
            self.write_latency.record_many(
                write_latencies if index == n else write_latencies[:index]
            )
        if error is not None:
            raise error
        window = window_from_extents(extents, time)
        assert window is not None
        return FlushReport(
            lines=n,
            extents=len(extents),
            start_ns=time,
            done_ns=done,
            blocked_ns=blocked_total,
            responses=ResponseWindow(
                window, complete_col, occupied_col, blocked_col
            ),
        )

    # -- write path --------------------------------------------------------------

    def _serve_write(self, request: MemoryRequest) -> MemoryResponse:
        cfg = self.config
        t = request.time + cfg.port_ns
        physical_line, dimm, local_line = self._translate(request.address)
        group = dimm.group_of(local_line)
        logical_line = request.address // CACHELINE_BYTES
        self.background_ns += self.wear.record_write(logical_line)

        # Backpressure: a DIMM whose channel/media backlog is too deep
        # stalls the port until programming catches up.
        backlog = max(
            self._group_backlog(dimm, group, t),
            self._channel_wait(dimm, t),
        )
        stall = max(0.0, backlog - cfg.write_backlog_limit_ns)
        t += stall
        self.write_stall_ns += stall

        if cfg.write_aggregation:
            # The row buffer absorbs the write at BRAM speed; the channel
            # is held only for the handshake, programming happens in the
            # background (early return).
            buf = self._buffer(dimm.dimm_id, group)
            local_address = local_line * CACHELINE_BYTES
            absorbed, to_drain = buf.write(t, local_address)
            if request.data is not None:
                self._pending[physical_line] = request.data
            if to_drain is not None:
                page, beats = to_drain
                self._drain_page(t, dimm, group, page, beats)
            complete = t + cfg.buffer_ns + cfg.port_ns
            self.buffer_hits.record(absorbed)
        else:
            # Conventional synchronous path: the write occupies the DIMM's
            # DDR channel.  With early return the channel frees after the
            # transfer+accept handshake; without it (LightPC-B) the channel
            # is held until the PRAM core finishes programming *and*
            # cooling — the head-of-line blocking the PSM exists to remove.
            start = max(t, self._channel_busy.get(dimm.dimm_id, 0.0))
            accept, pulse_end = self._program_line(
                start, dimm, local_line, physical_line,
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

    def _channel_wait(self, dimm: BareNVDIMM, time: float) -> float:
        return max(0.0, self._channel_busy.get(dimm.dimm_id, 0.0) - time)

    def _drain_page(
        self,
        time: float,
        dimm: BareNVDIMM,
        group: int,
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
                t, dimm, local_line, physical_line, data=data, staggered=True,
            )

    def _physical_of_local(self, dimm: BareNVDIMM, local_line: int) -> int:
        return local_line * len(self.nvdimms) + dimm.dimm_id

    def _program_line(
        self,
        time: float,
        dimm: BareNVDIMM,
        local_line: int,
        physical_line: int,
        data: Optional[bytes],
        staggered: bool,
    ) -> tuple[float, float]:
        """Program one cacheline onto its group's dies.

        Returns ``(accept_time, media_complete_time)``.  ``staggered``
        pipelines the per-die operations so at most one die of the group
        is programming at a time (LightPC row-buffer drains); the parallel
        variant is the conventional-controller behaviour of LightPC-B.
        """
        slots = dimm.slots_of(local_line)
        self.media_line_writes += 1
        if data is not None and dimm.layout == "dual_channel":
            half0, half1 = data[:_HALF], data[_HALF:]
            self.xcc.encode(half0, half1)  # one combinational cycle
            dimm.store_line(local_line, data)
        issue = time
        pulse_end = time
        accept = time
        for slot in slots:
            die = dimm.dies[slot.die]
            complete, _stable = die.write(
                issue, slot.address, size=_HALF * 2, early_return=True
            )
            accept = max(accept, complete)
            pulse_end = max(pulse_end, die.busy_until)
            if staggered:
                # next die starts once this pulse ends (cooling is
                # per-row and does not block the sibling's programming)
                issue = die.busy_until
        return accept, pulse_end

    def _group_backlog(self, dimm: BareNVDIMM, group: int, time: float) -> float:
        return max(
            0.0,
            max(d.busy_until for d in dimm.group_dies(group)) - time,
        )

    # -- read path ------------------------------------------------------------------

    def _serve_read(self, request: MemoryRequest) -> MemoryResponse:
        cfg = self.config
        t = request.time + cfg.port_ns
        physical_line, dimm, local_line = self._translate(request.address)
        group = dimm.group_of(local_line)

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
        channel_wait = self._channel_wait(dimm, t)
        if channel_wait > 0:
            self.read_blocked_ns += channel_wait
            t += channel_wait

        slots = dimm.slots_of(local_line)
        if cfg.layout == "dram_like":
            return self._read_dram_like(request, t, dimm, slots)

        die0 = dimm.dies[slots[0].die]
        die1 = dimm.dies[slots[1].die]
        corrupt0 = self.functional and dimm.is_corrupt(local_line, 0)
        corrupt1 = self.functional and dimm.is_corrupt(local_line, 1)
        busy0 = die0.is_busy(t, slots[0].address)
        busy1 = die1.is_busy(t, slots[1].address)

        if corrupt0 and corrupt1:
            return self._contained_error(request, t, dimm, local_line)

        if cfg.ecc_reconstruction and (busy0 or busy1 or corrupt0 or corrupt1):
            # Non-blocking service: read one die (its half + the co-located
            # parity regenerate the other half in one XOR cycle).  Queued
            # programming yields to reads; only the die's *active*
            # programming pulse cannot be preempted, so the worst wait is
            # bounded by the remaining pulse, approximated as half an
            # occupancy window.
            which = self._pick_survivor(
                die0.busy_wait(t, slots[0].address),
                die1.busy_wait(t, slots[1].address),
                corrupt0, corrupt1,
            )
            slot = slots[which]
            die = dimm.dies[slot.die]
            if cfg.write_aggregation:
                # Staggered drains keep at most one die of the group
                # actively programming; the survivor's backlog is queued
                # work that yields to reads.
                wait = 0.0
            else:
                wait = min(
                    die.busy_wait(t, slot.address),
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
            data = self._reconstruct_data(dimm, local_line, which)
            self.reconstructions += 1
            # the channel is held only for the pipelined data burst
            self._channel_busy[dimm.dimm_id] = t + 20.0
            self.read_latency.record(complete - request.time)
            return MemoryResponse(
                request, complete_time=complete, data=data, reconstructed=True
            )

        # Plain path: both halves in parallel; wait on busy dies — this is
        # the baseline's read-after-write head-of-line blocking.
        wait = max(
            die0.busy_wait(t, slots[0].address),
            die1.busy_wait(t, slots[1].address),
        )
        self.read_blocked_ns += wait
        c0, _ = die0.read(t, slots[0].address, _HALF)
        c1, _ = die1.read(t, slots[1].address, _HALF)
        complete = max(c0, c1) + cfg.port_ns
        # the channel is held only for the pipelined data burst
        self._channel_busy[dimm.dimm_id] = t + 20.0
        data: Optional[bytes] = None
        if self.functional:
            half0, parity0 = dimm.load_slot(local_line, 0)
            half1, _ = dimm.load_slot(local_line, 1)
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
        self, dimm: BareNVDIMM, local_line: int, survivor: int
    ) -> Optional[bytes]:
        if not self.functional:
            return None
        half, parity = dimm.load_slot(local_line, survivor)
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
        self, request: MemoryRequest, t: float, dimm: BareNVDIMM, slots
    ) -> MemoryResponse:
        """Strawman layout: every access enables all eight dies."""
        completes = []
        wait = 0.0
        for slot in slots:
            die = dimm.dies[slot.die]
            wait = max(wait, die.busy_wait(t, slot.address))
            c, _ = die.read(t, slot.address, _HALF)
            completes.append(c)
        self.read_blocked_ns += wait
        complete = max(completes) + self.config.port_ns
        self.read_latency.record(complete - request.time)
        return MemoryResponse(request, complete_time=complete, blocked_ns=wait)

    # -- flush & reset ports -------------------------------------------------------

    def flush(self, time: float) -> float:
        """Flush port: close all row buffers, drain all programming.

        This is the memory-synchronization interface SnG's Auto-Stop uses;
        after it returns there are no early-returned requests in flight.
        """
        t = time
        for (dimm_id, group), buf in self._buffers.items():
            closed = buf.flush()
            if closed is not None:
                page, beats = closed
                self._drain_page(t, self.nvdimms[dimm_id], group, page, beats)
        t = max([t] + [d.drain(t) for d in self.nvdimms])
        return t + self.config.port_ns

    def reset(self, time: float) -> float:
        """Reset port: wipe all media (MCE recovery / cold re-init)."""
        for dimm in self.nvdimms:
            dimm.wipe()
        self._pending.clear()
        self._buffers.clear()
        self._channel_busy.clear()
        self.wear = StartGap(
            lines=self.config.total_lines - 1,
            threshold=self.config.wear_threshold,
            seed=self.config.wear_seed,
            move_fn=self._move_line if self.functional else None,
            rotate_seed_every=self.config.rotate_seed_every,
            randomize_unit=self.config.wear_randomize_unit,
        )
        return time + 1_000.0  # bulk wipe handshake

    def drain(self, time: float) -> float:
        """Quiesce time without closing row buffers (fence semantics)."""
        return max([time] + [d.drain(time) for d in self.nvdimms])

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
        lost = len(self._pending)
        self._pending.clear()
        self._buffers.clear()
        self._channel_busy.clear()
        for dimm in self.nvdimms:
            dimm.power_cycle()
        self._lost_pending_lines = lost
        from repro.ocpmem.wear import WearRegisters

        self.wear.restore_registers(WearRegisters(
            start=0, gap=self.wear.lines, write_count=0,
            seed=self.config.wear_seed, gap_cycles=0,
        ))

    # -- EP-cut register capture -------------------------------------------

    def capture_registers(self) -> bytes:
        """Serialize the wear-leveler register file for the EP-cut."""
        import pickle

        return pickle.dumps(self.wear.registers())

    def restore_wear_registers(self, blob: bytes) -> None:
        """Restore the register file Go read back from the BCB."""
        import pickle

        if not blob:
            return
        self.wear.restore_registers(pickle.loads(blob))

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
