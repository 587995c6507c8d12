"""Numpy-columnar kernels for the conventional-PMEM exact batch path.

Same contract as :mod:`repro.memory.columnar`: observational identity
with looping scalar ``access`` — the same float expressions evaluated
in the same order, the same stats/state commits, the same error
ordering.

Two kernels, one per layer:

* :func:`pmem_controller_window` vectorizes the controller's
  scatter/gather — line decode, DIMM routing and both capacity checks
  are whole-column integer ops (the first failing element located with
  one ``argmax``, its error type picked by the scalar loop's check
  priority), each DIMM's sub-window is built zero-copy over fancy-index
  gathers, and the shifted completions scatter back through the index
  arrays instead of per-element appends.
* :func:`pmem_dimm_window` keeps the DIMM's irreducibly stateful
  lookup-hierarchy walk (LSQ combining and the two LRU levels are
  order-dependent caches) but leans it: frame/bank/slot columns are
  decoded vectorized up front, the per-bank die maxima seed from one
  grouped ``maximum.reduce`` over the die matrix, the LSQ/SRAM/DRAM
  dict operations are inlined (same state writes as the methods, hit
  counters in locals), and the latency column materializes at the end
  as one ``complete - time`` pass partitioned by the write mask into
  the bulk ``record_many`` sinks.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

import numpy as np

from repro.memory.batch import (
    RequestWindow,
    ResponseWindow,
    backend_access_batch,
)
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryResponse,
    PMEM_INTERNAL_BYTES,
    PRAM_DEVICE_BYTES,
)
from repro.pmem.lsq import LSQEntry

__all__ = ["pmem_controller_window", "pmem_dimm_window"]

_FIRST_TIME = attrgetter("first_time")


def pmem_controller_window(
    controller, window: RequestWindow
) -> ResponseWindow:
    """Scatter a window across the DIMMs with vectorized routing.

    Mirrors looping ``PMEMController.access`` exactly: errors — the
    controller's capacity check, the cacheline-granularity check, and
    the DIMM-local capacity check, in that per-element priority — stop
    the scatter at the first failing element, so precisely the scalar
    prefix of side effects lands before the raise.
    """
    dimms = controller.dimms
    n_dimms = len(dimms)
    request_ns = controller.ddrt.request_ns
    completion_ns = controller.ddrt.completion_ns
    capacity = controller.capacity
    size = window.size
    oversize = size > CACHELINE_BYTES

    w_all, addr_all, t_all = window.arrays()
    n = len(addr_all)
    line = addr_all // CACHELINE_BYTES
    dimm_col = line % n_dimms
    local_col = (line // n_dimms) * CACHELINE_BYTES \
        + addr_all % CACHELINE_BYTES

    err_cap = addr_all + size > capacity
    dimm_caps = np.fromiter(
        (d.capacity for d in dimms), dtype=np.int64, count=n_dimms
    )
    err_local = local_col + size > dimm_caps[dimm_col]
    served = n
    error: Optional[ValueError] = None
    if n and oversize:
        served = 0
        if bool(err_cap[0]):
            bad = int(addr_all[0])
            error = AddressSpaceError(
                f"address {bad:#x} outside PMEM capacity {capacity:#x}"
            )
        else:
            error = ValueError("PMEM DIMM boundary is cacheline-granular")
    else:
        err_any = err_cap | err_local
        if bool(err_any.any()):
            served = int(err_any.argmax())
            if bool(err_cap[served]):
                bad = int(addr_all[served])
                error = AddressSpaceError(
                    f"address {bad:#x} outside PMEM capacity {capacity:#x}"
                )
            else:
                bad = int(local_col[served])
                error = ValueError(
                    f"address {bad:#x} outside DIMM capacity"
                )

    complete_col = np.zeros(n, dtype=np.float64)
    occupied_col = np.zeros(n, dtype=np.float64)
    blocked_col = np.zeros(n, dtype=np.float64)
    overrides: dict[int, MemoryResponse] = {}
    dimm_served = dimm_col[:served]
    for dimm_index in range(n_dimms):
        indices = np.nonzero(dimm_served == dimm_index)[0]
        if not len(indices):
            continue
        sub_w = w_all[indices]
        sub_a = local_col[indices]
        sub_t = t_all[indices] + request_ns
        sub = RequestWindow._bare(
            sub_w, sub_a, sub_t, None, size,
            arrays=(sub_w, sub_a, sub_t),
        )
        responses = backend_access_batch(dimms[dimm_index], sub)
        if isinstance(responses, ResponseWindow):
            complete_col[indices] = \
                np.asarray(responses.complete) + completion_ns
            occupied_col[indices] = responses.occupied
            blocked_col[indices] = responses.blocked
        else:
            index_list = indices.tolist()
            for position, index in enumerate(index_list):
                response = responses[position]
                complete = response.complete_time + completion_ns
                complete_col[index] = complete
                occupied_col[index] = response.occupied_until
                blocked_col[index] = response.blocked_ns
                if response.data is not None:
                    overrides[index] = MemoryResponse(
                        window.request_at(index),
                        complete_time=complete,
                        occupied_until=response.occupied_until,
                        data=response.data,
                        blocked_ns=response.blocked_ns,
                    )
    if error is not None:
        raise error
    return ResponseWindow(
        window, complete_col, occupied_col, blocked_col,
        overrides=overrides if overrides else None,
    )


def pmem_dimm_window(dimm, window: RequestWindow) -> ResponseWindow:
    """Serve one window through the DIMM hierarchy, decode vectorized.

    Preconditions (checked by :meth:`PMEMDIMM.access_batch` before
    routing here): cacheline-granular window, no functional byte images,
    no per-die wear tracing.  The walk itself stays an exact Python loop
    over pre-decoded columns with the LSQ/SRAM/DRAM cache operations
    *and* the media frame pipeline inlined — the same float expressions,
    in the same order, as ``_media_read_frame``/``_media_write_frame``/
    ``PRAMDevice.read``/``write`` — so die state, cooling windows and
    media counters evolve identically to the scalar path.
    """
    timing = dimm.timing
    lsq_ns = timing.lsq_ns
    sram_lookup_ns = timing.sram_lookup_ns
    sram_access_ns = timing.sram_access_ns
    dram_lookup_ns = timing.dram_lookup_ns
    dram_access_ns = timing.dram_access_ns
    firmware_ns = timing.firmware_ns
    frame_transfer_ns = timing.frame_transfer_ns
    limit_ns = timing.write_backlog_limit_ns
    # Both scalar paths parenthesize these sums (``t += ait + firmware``
    # and the whole write pipeline), so pre-folding is exact.
    read_miss_extra_ns = timing.ait_ns + timing.firmware_ns
    write_pipeline_ns = (
        timing.sram_access_ns
        + timing.dram_lookup_ns
        + timing.dram_access_ns
        + timing.ait_ns
        + timing.firmware_ns
        + timing.frame_transfer_ns
    )
    ref_timing = dimm.dies[0].timing
    read_ns = ref_timing.read_ns
    service_ns = ref_timing.write_service_ns
    cooling_ns = ref_timing.cooling_ns
    capacity = dimm.capacity
    size = window.size
    banks = dimm.banks
    n_banks = dimm.media_banks
    media_reads = dimm.media_reads
    media_writes = dimm.media_writes
    rmw_count = dimm.rmw_count

    lsq = dimm.lsq
    lsq_entries = lsq._entries
    lsq_depth = lsq.depth
    lsq_combines = lsq.combines
    lsq_allocations = lsq.allocations
    lsq_evictions = lsq.evictions
    sram = dimm.sram
    sram_lru = sram._lru
    sram_frames = sram.frames
    sram_hits = sram.hits
    sram_misses = sram.misses
    dram = dimm.dram_buffer
    dram_lru = dram._lru
    dram_frames = dram.frames
    dram_hits = dram.hits
    dram_misses = dram.misses

    w_all, addr_all, t_all = window.arrays()
    n = len(addr_all)
    served = n
    error: Optional[ValueError] = None
    oob = addr_all + size > capacity
    if bool(oob.any()):
        served = int(oob.argmax())
        bad = int(addr_all[served])
        error = ValueError(f"address {bad:#x} outside DIMM capacity")

    addr = addr_all[:served]
    # Frame/bank/slot decode, one integer pass per column (the same
    # expressions as ``_frame_of``/``_bank_of``/``LSQ._slot_of``).
    frame_arr = addr - (addr % PMEM_INTERNAL_BYTES)
    frame_col = frame_arr.tolist()
    bank_col = ((frame_arr // PMEM_INTERNAL_BYTES) % n_banks).tolist()
    bit_col = np.left_shift(
        1, (addr % PMEM_INTERNAL_BYTES) // CACHELINE_BYTES
    ).tolist()
    dframe_col = (addr - (addr % 4096)).tolist()
    # Staged completion columns: each is the scalar path's chained adds
    # evaluated element-wise (one correctly-rounded binary64 add per
    # stage, so vectorizing preserves bit-identity with ``t += ...``).
    t0_arr = t_all[:served] + lsq_ns
    t0_col = t0_arr.tolist()
    w_col = w_all[:served].tolist()

    # Per-bank die maxima seed from one grouped reduce over the die
    # matrix (banks x dies-per-bank); both maxima are refreshed only
    # after a media frame operation actually moves a die (die
    # ``busy_until`` is monotonic, so the running maxima stay exact).
    busy_matrix = np.fromiter(
        (die.busy_until for die in dimm.dies),
        dtype=np.float64, count=len(dimm.dies),
    ).reshape(n_banks, -1)
    bank_max = np.maximum.reduce(busy_matrix, axis=1).tolist()
    dies_max = max(bank_max)

    def read_frame(issue, frame, bank):
        # _media_read_frame inlined: one bank's dies in parallel, each
        # die.read's start/busy updates replayed verbatim.
        nonlocal media_reads
        local = (frame // PMEM_INTERNAL_BYTES // n_banks) \
            * PRAM_DEVICE_BYTES
        row = local // 1024
        done = issue
        for die in bank:
            b = die.busy_until
            cool = die._cooling.get(row, 0.0)
            start = issue if issue >= b else b
            if cool > start:
                start = cool
            complete = start + read_ns
            die.busy_until = complete
            die.read_count += 1
            if complete > done:
                done = complete
        media_reads += 1
        return done + frame_transfer_ns

    # The two hot completions — unstalled write (whole pipeline) and
    # SRAM read hit — are prefilled vectorized, so the loop's fast paths
    # store nothing at all; every other outcome (stalled write, LSQ
    # forward, SRAM miss) is a rare deviation scattered back afterwards.
    complete_arr = np.zeros(n, dtype=np.float64)
    if served:
        complete_arr[:served] = \
            (t0_arr + sram_lookup_ns) + sram_access_ns
    blocked_arr = np.zeros(n, dtype=np.float64)
    dev_idx: list = []
    dev_val: list = []
    dev_append = dev_idx.append
    dev_store = dev_val.append
    # Writes visit every element of ``nonzero(w)`` in order, so their
    # complete/blocked outcomes append to dense lists and scatter back
    # in one fancy-index pass instead of per-element stores.
    w_complete: list = []
    w_blocked: list = []
    wc_append = w_complete.append
    wb_append = w_blocked.append
    # Write occupancy is the running ``dies_max``, which only moves at
    # media frame operations — record those change points and fill the
    # write rows by segment after the loop instead of storing per write.
    occ_idx = [-1]
    occ_val = [dies_max]

    missing = object()
    # MRU shortcut: a pop/reinsert of a dict's most-recent key is a
    # structural no-op, so tracking each LRU dict's MRU key lets runs of
    # same-frame traffic (sequential streams) skip both dict operations.
    sram_mru = next(reversed(sram_lru)) if sram_lru else missing
    dram_mru = next(reversed(dram_lru)) if dram_lru else missing
    for index, (is_w, frame, slot_bit) in enumerate(
        zip(w_col, frame_col, bit_col)
    ):
        if is_w:
            t = t0_col[index]
            backlog = bank_max[bank_col[index]] - t
            if backlog < 0.0:
                backlog = 0.0
            stall = backlog - limit_ns
            if stall > 0.0:
                t += stall
                wb_append(stall)
            else:
                wb_append(0.0)
            complete = t + write_pipeline_ns
            wc_append(complete)
            # LSQ push_write inlined: merge into a pending frame or
            # allocate, evicting the oldest entry when full.
            entry = lsq_entries.get(frame)
            evicted = None
            if entry is not None:
                entry.merged_writes += 1
                entry.last_time = t
                entry.coverage |= slot_bit
                lsq_combines += 1
            else:
                if len(lsq_entries) >= lsq_depth:
                    evicted = min(lsq_entries.values(), key=_FIRST_TIME)
                    del lsq_entries[evicted.frame]
                    lsq_evictions += 1
                lsq_entries[frame] = LSQEntry(
                    frame=frame, first_time=t, last_time=t,
                    coverage=slot_bit,
                )
                lsq_allocations += 1
            # SRAM + internal-DRAM fills inlined (LRU insert at MRU
            # end, evicting the LRU head when full; pop-with-sentinel
            # does the residency probe and the unlink in one operation).
            if frame != sram_mru:
                held = sram_lru.pop(frame, missing)
                if held is missing:
                    held = None
                    if len(sram_lru) >= sram_frames:
                        del sram_lru[next(iter(sram_lru))]
                sram_lru[frame] = held
                sram_mru = frame
            dframe = dframe_col[index]
            if dframe != dram_mru:
                held = dram_lru.pop(dframe, missing)
                if held is missing:
                    held = None
                    if len(dram_lru) >= dram_frames:
                        del dram_lru[next(iter(dram_lru))]
                dram_lru[dframe] = held
                dram_mru = dframe
            if evicted is not None:
                # _media_write_frame inlined: read-modify when the frame
                # is partially covered, then one staggered-free program
                # across the bank's dies (non-early-return die.write:
                # cooling prune keyed on the issue time, completion at
                # row-stable time).
                eframe = evicted.frame
                hot = (eframe // PMEM_INTERNAL_BYTES) % n_banks
                bank = banks[hot]
                issue = complete + firmware_ns
                if evicted.coverage != 0b1111:
                    issue = read_frame(issue, eframe, bank)
                    rmw_count += 1
                local = (eframe // PMEM_INTERNAL_BYTES // n_banks) \
                    * PRAM_DEVICE_BYTES
                row = local // 1024
                refreshed = 0.0
                for die in bank:
                    b = die.busy_until
                    cooling = die._cooling
                    cool = cooling.get(row, 0.0)
                    start = issue if issue >= b else b
                    if cool > start:
                        start = cool
                    pulse = start + service_ns
                    die.busy_until = pulse
                    if len(cooling) > 64:
                        cooling = {
                            rr: tt for rr, tt in cooling.items()
                            if tt > issue
                        }
                        die._cooling = cooling
                    cooling[row] = pulse + cooling_ns
                    die.write_count += 1
                    if pulse > refreshed:
                        refreshed = pulse
                media_writes += 1
                bank_max[hot] = refreshed
                if refreshed > dies_max:
                    dies_max = refreshed
                    occ_idx.append(index)
                    occ_val.append(refreshed)
            continue
        # -- read: LSQ forwarding, then the inclusive lookup hierarchy --
        entry = lsq_entries.get(frame)
        if entry is not None and entry.coverage & slot_bit:
            dev_append(index)
            dev_store(t0_col[index] + sram_access_ns)
            continue
        if frame == sram_mru:
            sram_hits += 1
            continue
        held = sram_lru.pop(frame, missing)
        if held is not missing:
            sram_lru[frame] = held
            sram_mru = frame
            sram_hits += 1
            continue
        sram_misses += 1
        t = (t0_col[index] + sram_lookup_ns) + dram_lookup_ns
        dframe = dframe_col[index]
        held = dram_lru.pop(dframe, missing)
        if held is not missing:
            dram_lru[dframe] = held
            dram_mru = dframe
            dram_hits += 1
            complete = t + dram_access_ns
            if len(sram_lru) >= sram_frames:
                del sram_lru[next(iter(sram_lru))]
            sram_lru[frame] = None
            sram_mru = frame
        else:
            dram_misses += 1
            bank_index = bank_col[index]
            complete = read_frame(
                t + read_miss_extra_ns, frame, banks[bank_index]
            )
            refreshed = max(
                die.busy_until for die in banks[bank_index]
            )
            bank_max[bank_index] = refreshed
            if refreshed > dies_max:
                dies_max = refreshed
                occ_idx.append(index)
                occ_val.append(refreshed)
            if len(sram_lru) >= sram_frames:
                del sram_lru[next(iter(sram_lru))]
            sram_lru[frame] = None
            sram_mru = frame
            if len(dram_lru) >= dram_frames:
                del dram_lru[next(iter(dram_lru))]
            dram_lru[dframe] = None
            dram_mru = dframe
        dev_append(index)
        dev_store(complete)

    # -- commit (same final state as the scalar path's live updates) --------
    lsq.combines = lsq_combines
    lsq.allocations = lsq_allocations
    lsq.evictions = lsq_evictions
    sram.hits = sram_hits
    sram.misses = sram_misses
    dram.hits = dram_hits
    dram.misses = dram_misses
    dimm.media_reads = media_reads
    dimm.media_writes = media_writes
    dimm.rmw_count = rmw_count
    if dev_idx:
        complete_arr[dev_idx] = dev_val
    # Reads carry no occupancy column of their own (the scalar response
    # clamps the default 0.0 up to the completion time), so occupancy is
    # the complete column with write rows overwritten by the recorded
    # ``dies_max`` segments (last change point at or before each write).
    occupied_arr = complete_arr.copy()
    if served:
        w_pos = np.nonzero(w_all[:served])[0]
        if len(w_pos):
            complete_arr[w_pos] = w_complete
            blocked_arr[w_pos] = w_blocked
            seg = np.searchsorted(
                np.asarray(occ_idx, dtype=np.int64), w_pos, side="right"
            ) - 1
            occupied_arr[w_pos] = np.asarray(
                occ_val, dtype=np.float64
            )[seg]
    if served:
        latency = complete_arr[:served] - t_all[:served]
        w_served = w_all[:served]
        read_lat = latency[~w_served]
        write_lat = latency[w_served]
        if len(read_lat):
            dimm.read_latency.record_many(read_lat)
        if len(write_lat):
            dimm.write_latency.record_many(write_lat)
    if error is not None:
        raise error
    return ResponseWindow(window, complete_arr, occupied_arr, blocked_arr)
