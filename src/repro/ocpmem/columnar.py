"""Numpy-columnar kernel for the PSM's exact batch path.

Same contract as :mod:`repro.memory.columnar`: observational identity
with looping scalar :meth:`PSM.access`, which the batch and extent
equivalence suites diff ``repr``-for-``repr``.

The PSM pipeline splits cleanly into a *translation* stage that is pure
arithmetic and a *service* stage that is an irreducibly stateful
recurrence over shared die/buffer/channel state:

* **Translation** runs fully vectorized: logical lines, randomize units
  and unit offsets are whole-column integer ops; the Feistel network
  evaluates via :meth:`FeistelPermutation.apply_many` (one ufunc pass
  per round, cycle-walk by mask) over the units not already cached in a
  per-randomizer lookup table; Start-Gap's ``(start, gap)`` offsets
  apply per *segment* — the window is split at gap-move boundaries
  (known in advance from the write ordinals, one ``cumsum``) and each
  boundary replays ``StartGap._move_gap`` so the registers and
  ``background_ns`` advance exactly as in the scalar loop.
* **Service** keeps an exact Python loop, but a lean one: the
  translated columns arrive as plain lists, the row-buffer hit paths
  and drain bookkeeping are inlined (same state writes as the buffer
  methods), and no per-element stats or latency appends remain.
* **Latencies** materialize at the end as one ``complete - time``
  column, partitioned by the write mask into the two bulk
  ``record_many`` sinks (array ordering equals append ordering because
  both follow arrival order).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memory.batch import RequestWindow, ResponseWindow
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryResponse,
)

__all__ = ["psm_access_window"]


def _translate_columns(psm, addr, w, served):
    """Vectorized logical->physical translation for the served prefix.

    Returns ``(dimm_col, local_col, bk_col, bk_arr, page_col,
    background_adds)`` where the columns are plain lists (``bk_col`` is
    the flattened ``dimm * 4 + group`` buffer/die-group key, ``page_col``
    the die-local page and cooling row), ``bk_arr`` the same key column
    as an ndarray (for first-touch buffer ordering), and
    ``background_adds`` is the number of gap moves replayed (their cost
    is already applied to the wear registers via ``_move_gap``).  Must
    be called *before* the service loop: it advances
    ``wear.write_count`` and replays every gap move that the window's
    writes trigger, in element order.
    """
    wear = psm.wear
    wear_lines = wear.lines
    unit_size = wear.randomize_unit
    units = wear._units
    randomizer = wear._randomizer
    # Per-randomizer unit lookup table (ndarray analogue of the extent
    # flush's ``_unit_memo`` dict); -1 marks an unevaluated unit.
    table = getattr(psm, "_unit_table", None)
    if table is None or psm._unit_table_randomizer is not randomizer \
            or len(table) != units:
        table = np.full(units, -1, dtype=np.int64)
        psm._unit_table = table
        psm._unit_table_randomizer = randomizer
    line = addr[:served] // CACHELINE_BYTES
    unit = line // unit_size
    offset = line - unit * unit_size
    in_domain = unit < units
    all_in_domain = bool(in_domain.all())
    domain_units = unit if all_in_domain else unit[in_domain]
    if len(domain_units):
        lookup = np.unique(domain_units)
        missing = lookup[table[lookup] < 0]
        if len(missing):
            table[missing] = randomizer.apply_many(missing)
    if all_in_domain:
        randomized = table[unit] * unit_size + offset
    else:
        randomized = np.where(
            in_domain,
            table[np.where(in_domain, unit, 0)] * unit_size + offset,
            line,
        )
    # Start-Gap offsets are segment-constant between gap moves; the
    # boundaries fall on the writes whose ordinal hits the threshold.
    w_served = w[:served]
    n_writes = int(w_served.sum())
    threshold = wear.threshold
    write_count = wear.write_count
    if n_writes:
        totals = np.cumsum(w_served) + write_count
        bound = w_served & (totals % threshold == 0)
        boundaries = np.nonzero(bound)[0].tolist() if bool(bound.any()) \
            else []
    else:
        boundaries = []
    physical = np.empty(served, dtype=np.int64)
    background_moves = 0
    seg_start = 0
    for boundary in boundaries:
        stop = boundary + 1  # the boundary write maps pre-move
        _apply_start_gap(
            physical, randomized, seg_start, stop,
            wear.start, wear.gap, wear_lines,
        )
        wear._move_gap()
        background_moves += 1
        seg_start = stop
    if seg_start < served:
        _apply_start_gap(
            physical, randomized, seg_start, served,
            wear.start, wear.gap, wear_lines,
        )
    wear.write_count = write_count + n_writes
    n_dimms = len(psm.nvdimms)
    dimm = physical % n_dimms
    local = physical // n_dimms
    # Flat (dimm, group) key: ``2 * bk`` indexes the group's first die in
    # the service loop's flattened die-state lists.
    bk = dimm * 4 + (local & 3)
    return (
        dimm.tolist(), local.tolist(), bk.tolist(), bk,
        (local >> 6).tolist(), background_moves,
    )


def _apply_start_gap(physical, randomized, lo, hi, start, gap, lines):
    segment = randomized[lo:hi] + start
    segment %= lines
    segment += segment >= gap
    physical[lo:hi] = segment


def psm_access_window(psm, window: RequestWindow) -> ResponseWindow:
    """Serve one window through the PSM, translation vectorized.

    Preconditions (checked by :meth:`PSM.access_batch` before routing
    here): timing-only mode, ``dual_channel`` layout, no seed rotation,
    no wear tracing (Start-Gap or per-die).  The service loop runs over
    plain-list columns with all die state held in flat local lists —
    ``busy``/``cooling``/op counters are committed back once per window
    — and the page-drain pipeline inlined (the same float expressions,
    in the same order, as ``_drain_page``/``_program_line``/
    ``PRAMDevice.write`` with ``early_return=True``).  Error ordering
    matches the scalar path: the served prefix's state and stats commit
    before the :class:`AddressSpaceError` is raised.
    """
    cfg = psm.config
    port_ns = cfg.port_ns
    buffer_ns = cfg.buffer_ns
    limit_ns = cfg.write_backlog_limit_ns
    xor_ns = cfg.xor_decode_ns
    extra_ns = cfg.reconstruct_extra_ns
    aggregation = cfg.write_aggregation
    early_return = cfg.early_return_writes
    reconstruction = cfg.ecc_reconstruction
    wear = psm.wear
    wear_lines = wear.lines
    nvdimms = psm.nvdimms
    n_dimms = len(nvdimms)
    pending = psm._pending
    xcc_encode = psm.xcc.encode
    ref_timing = nvdimms[0].dies[0].timing
    read_ns = ref_timing.read_ns
    service_ns = ref_timing.write_service_ns
    cooling_ns = ref_timing.cooling_ns
    accept_ns = ref_timing.accept_ns
    half_occupancy_ns = ref_timing.write_occupancy_ns / 2.0
    dimm_lines = nvdimms[0].lines

    # Flattened die state (dimm * 8 + die): attribute access leaves the
    # loop entirely; everything commits back once at the end.
    dies_flat = []
    for dimm in nvdimms:
        dies_flat.extend(dimm.dies)
    busy_flat = [die.busy_until for die in dies_flat]
    cool_flat = [die._cooling for die in dies_flat]
    rc_flat = [die.read_count for die in dies_flat]
    wc_flat = [die.write_count for die in dies_flat]
    # Flattened write-aggregation buffers (dimm * 4 + group), created
    # lazily through psm._buffer so psm._buffers stays authoritative.
    buffers_flat = [
        psm._buffers.get((dimm_index, group))
        for dimm_index in range(n_dimms) for group in range(4)
    ]

    channel_col = [psm._channel_busy.get(d.dimm_id, 0.0) for d in nvdimms]
    drain_cache = [0.0] * n_dimms
    drain_dirty = [True] * n_dimms
    write_stall_ns = psm.write_stall_ns
    read_blocked_ns = psm.read_blocked_ns
    media_line_writes = psm.media_line_writes
    buffer_hit_count = 0
    buffer_total = 0

    w_all, addr_all, t_all = window.arrays()
    n = len(addr_all)
    served = n
    error: Optional[AddressSpaceError] = None
    capacity = wear_lines * CACHELINE_BYTES
    if n and int(addr_all.max()) >= capacity:
        oob = addr_all // CACHELINE_BYTES >= wear_lines
        served = int(oob.argmax())
        bad = int(addr_all[served])
        error = AddressSpaceError(
            f"address {bad:#x} outside OC-PMEM capacity {capacity:#x}"
        )

    dimm_col, local_col, bk_col, bk_arr, page_col, background_moves = \
        _translate_columns(psm, addr_all, w_all, served)
    # ``background_ns += record_write(...)`` adds 0.0 per non-boundary
    # write; adding the non-zero move costs alone is bit-identical
    # because ``x + 0.0 == x`` for the non-negative accumulator.
    background_ns = psm.background_ns
    for _ in range(background_moves):
        background_ns += wear.GAP_MOVE_NS

    t_col = (t_all[:served] + port_ns).tolist()
    w_col = w_all[:served].tolist()

    # Flat mirrors of each touched buffer's open page (-2 = closed) and
    # its live dirty set: the hot read probe and write-absorb test become
    # two list loads instead of an object deref chain.  Every request
    # probes its own (dimm, group) buffer under write aggregation, so
    # creating the touched buffers up front — in first-touch order, so
    # ``psm._buffers`` insertion order matches the scalar path's lazy
    # creation — is state-identical to creating them inside the loop.
    # Absorb-path RatioStat increments are deferred per group (integer
    # adds commute) and committed with the rest of the stats.
    open_flat = [-2] * (n_dimms * 4)
    dirty_flat: list = [None] * (n_dimms * 4)
    absorb_flat = [0] * (n_dimms * 4)
    if aggregation and served:
        uniq, first = np.unique(bk_arr, return_index=True)
        for key in uniq[np.argsort(first)].tolist():
            buf = buffers_flat[key]
            if buf is None:
                buf = psm._buffer(key >> 2, key & 3)
                buffers_flat[key] = buf
            open_page = buf._open
            if open_page is not None:
                open_flat[key] = open_page.page
                dirty_flat[key] = open_page.dirty
        buffer_total += int(w_all[:served].sum())

    complete_col = [0.0] * n
    occupied_col = [0.0] * n
    blocked_col = [0.0] * n
    reconstructed: set[int] = set()
    recon_add = reconstructed.add
    overrides: Optional[dict[int, MemoryResponse]] = None

    # zip iteration loads all six columns per element in one tuple
    # unpack instead of six indexed reads; zip's shortest-input stop is
    # exactly ``served`` (every request column is the served prefix).
    for index, (t, is_w, dimm_index, local_line, bk, page) in enumerate(
        zip(t_col, w_col, dimm_col, local_col, bk_col, page_col)
    ):
        k0 = bk + bk
        k1 = k0 + 1
        if is_w:
            b0 = busy_flat[k0]
            b1 = busy_flat[k1]
            group_max = b0 if b0 >= b1 else b1
            backlog = group_max - t
            if backlog < 0.0:
                backlog = 0.0
            channel_wait = channel_col[dimm_index] - t
            if channel_wait < 0.0:
                channel_wait = 0.0
            if channel_wait > backlog:
                backlog = channel_wait
            stall = backlog - limit_ns
            if stall > 0.0:
                t = t + stall
            else:
                stall = 0.0
            write_stall_ns += stall
            if aggregation:
                if open_flat[bk] == page:
                    # Absorption inlined: same state writes as buf.write
                    # (the stats increments commit in bulk at the end).
                    dirty_flat[bk].add(local_line & 63)
                    absorb_flat[bk] += 1
                else:
                    buf = buffers_flat[bk]
                    _absorbed, to_drain = buf.write(
                        t, local_line * CACHELINE_BYTES
                    )
                    opened = buf._open
                    open_flat[bk] = opened.page
                    dirty_flat[bk] = opened.dirty
                    if to_drain is not None:
                        # _drain_page/_program_line/PRAMDevice.write
                        # inlined for the staggered early-return case:
                        # the drained page's beats share one cooling row
                        # and this buffer's die pair.
                        dpage, beats = to_drain
                        td = t
                        dl_base = dpage << 6
                        cool0 = cool_flat[k0]
                        cool1 = cool_flat[k1]
                        for beat in sorted(beats):
                            dl = dl_base + beat
                            if dl >= dimm_lines:
                                continue
                            media_line_writes += 1
                            if pending:
                                data = pending.pop(
                                    dl * n_dimms + dimm_index, None
                                )
                                if data is not None:
                                    xcc_encode(data[:32], data[32:])
                                    nvdimms[dimm_index].store_line(dl, data)
                            b = busy_flat[k0]
                            cool = cool0.get(dpage, 0.0)
                            s = td if td >= b else b
                            if cool > s:
                                s = cool
                            p0 = s + service_ns
                            busy_flat[k0] = p0
                            if len(cool0) > 64:
                                cool0 = {
                                    rr: tt for rr, tt in cool0.items()
                                    if tt > td
                                }
                                cool_flat[k0] = cool0
                            cool0[dpage] = p0 + cooling_ns
                            wc_flat[k0] += 1
                            # sibling die staggered: issues once the
                            # first pulse ends
                            b = busy_flat[k1]
                            cool = cool1.get(dpage, 0.0)
                            s = p0 if p0 >= b else b
                            if cool > s:
                                s = cool
                            p1 = s + service_ns
                            busy_flat[k1] = p1
                            if len(cool1) > 64:
                                cool1 = {
                                    rr: tt for rr, tt in cool1.items()
                                    if tt > p0
                                }
                                cool_flat[k1] = cool1
                            cool1[dpage] = p1 + cooling_ns
                            wc_flat[k1] += 1
                            td = p1 if p1 >= p0 else p0
                        drain_dirty[dimm_index] = True
                complete = t + buffer_ns + port_ns
            else:
                # Synchronous path: _program_line (staggered=False,
                # data-less) inlined; the channel holds to the accept
                # handshake (early return) or the pulse end (LightPC-B).
                channel = channel_col[dimm_index]
                start = t if t >= channel else channel
                media_line_writes += 1
                cool0 = cool_flat[k0]
                b = busy_flat[k0]
                cool = cool0.get(page, 0.0)
                s = start if start >= b else b
                if cool > s:
                    s = cool
                p0 = s + service_ns
                busy_flat[k0] = p0
                if len(cool0) > 64:
                    cool0 = {
                        rr: tt for rr, tt in cool0.items() if tt > start
                    }
                    cool_flat[k0] = cool0
                cool0[page] = p0 + cooling_ns
                wc_flat[k0] += 1
                cool1 = cool_flat[k1]
                b = busy_flat[k1]
                cool = cool1.get(page, 0.0)
                s = start if start >= b else b
                if cool > s:
                    s = cool
                p1 = s + service_ns
                busy_flat[k1] = p1
                if len(cool1) > 64:
                    cool1 = {
                        rr: tt for rr, tt in cool1.items() if tt > start
                    }
                    cool_flat[k1] = cool1
                cool1[page] = p1 + cooling_ns
                wc_flat[k1] += 1
                accept = start + accept_ns
                pulse_end = p0 if p0 >= p1 else p1
                channel_col[dimm_index] = (
                    accept if early_return else pulse_end
                )
                drain_dirty[dimm_index] = True
                complete = accept + port_ns
            if drain_dirty[dimm_index]:
                base = dimm_index << 3
                dimm_max = max(busy_flat[base:base + 8])
                if dimm_max < 0.0:
                    dimm_max = 0.0
                drain_cache[dimm_index] = dimm_max
                drain_dirty[dimm_index] = False
            else:
                dimm_max = drain_cache[dimm_index]
            complete_col[index] = complete
            occupied_col[index] = (
                complete if complete >= dimm_max else dimm_max
            )
            blocked_col[index] = stall
            continue
        # -- read --
        if aggregation and open_flat[bk] == page \
                and (local_line & 63) in dirty_flat[bk]:
            complete = t + buffer_ns + port_ns
            data = pending.get(local_line * n_dimms + dimm_index)
            if data is not None:
                if overrides is None:
                    overrides = {}
                overrides[index] = MemoryResponse(
                    window.request_at(index),
                    complete_time=complete,
                    data=data,
                )
            complete_col[index] = complete
            continue
        channel_wait = channel_col[dimm_index] - t
        if channel_wait > 0.0:
            read_blocked_ns += channel_wait
            t += channel_wait
        b0 = busy_flat[k0]
        b1 = busy_flat[k1]
        cool0 = cool_flat[k0].get(page, 0.0)
        cool1 = cool_flat[k1].get(page, 0.0)
        until0 = b0 if b0 >= cool0 else cool0
        until1 = b1 if b1 >= cool1 else cool1
        if reconstruction and (t < until0 or t < until1):
            if aggregation:
                # The clamped waits only pick the survivor die here, and
                # with at least one wait positive on this branch
                # ``max(x, 0) <= max(y, 0)`` iff ``x <= y``, so the
                # clamps fold away; the blocked wait itself is exactly
                # 0.0 (``+= 0.0`` / ``t + 0.0`` are bitwise identities
                # for the non-negative accumulator and t).
                survivor = k0 if until0 - t <= until1 - t else k1
                complete = t + read_ns + extra_ns + xor_ns + port_ns
            else:
                wait0 = until0 - t
                if wait0 < 0.0:
                    wait0 = 0.0
                wait1 = until1 - t
                if wait1 < 0.0:
                    wait1 = 0.0
                if wait0 <= wait1:
                    survivor = k0
                    survivor_wait = wait0
                else:
                    survivor = k1
                    survivor_wait = wait1
                wait = survivor_wait if survivor_wait <= \
                    half_occupancy_ns else half_occupancy_ns
                read_blocked_ns += wait
                complete = t + wait + read_ns + extra_ns + xor_ns + port_ns
            rc_flat[survivor] += 2
            channel_col[dimm_index] = t + 20.0
            recon_add(index)
            complete_col[index] = complete
            continue
        # ``until`` already folds busy/cooling, so the per-die start is
        # one compare and the blocked wait one monotonic subtraction —
        # bit-identical to the scalar clamp-each-then-max sequence.
        until = until0 if until0 >= until1 else until1
        wait = until - t
        if wait > 0.0:
            read_blocked_ns += wait
            blocked_col[index] = wait
        done0 = (t if t >= until0 else until0) + read_ns
        busy_flat[k0] = done0
        rc_flat[k0] += 1
        done1 = (t if t >= until1 else until1) + read_ns
        busy_flat[k1] = done1
        rc_flat[k1] += 1
        drain_dirty[dimm_index] = True
        done = done0 if done0 >= done1 else done1
        complete = done + port_ns
        channel_col[dimm_index] = t + 20.0
        complete_col[index] = complete

    # -- commit (same final state as the scalar path) ------------------------
    for k, die in enumerate(dies_flat):
        die.busy_until = busy_flat[k]
        die._cooling = cool_flat[k]
        die.read_count = rc_flat[k]
        die.write_count = wc_flat[k]
    channel_busy = psm._channel_busy
    for dimm_index in range(n_dimms):
        channel_busy[dimm_index] = channel_col[dimm_index]
    psm.background_ns = background_ns
    psm.write_stall_ns = write_stall_ns
    psm.read_blocked_ns = read_blocked_ns
    psm.media_line_writes = media_line_writes
    for key, absorbed in enumerate(absorb_flat):
        if absorbed:
            buffer_stats = buffers_flat[key].stats
            buffer_stats.total += absorbed
            buffer_stats.hits += absorbed
            buffer_hit_count += absorbed
    psm.buffer_hits.record_many(buffer_hit_count, buffer_total)
    # Every reconstruction added exactly one index to the set.
    psm.reconstructions += len(reconstructed)
    complete_arr = np.fromiter(complete_col, dtype=np.float64, count=n)
    # Reads occupy exactly until completion, so the loop only stores the
    # write rows' occupancy and the read rows merge in one where-pass.
    occupied_arr = np.where(
        w_all,
        np.fromiter(occupied_col, dtype=np.float64, count=n),
        complete_arr,
    )
    if served:
        w_served = w_all[:served]
        latency = complete_arr[:served] - t_all[:served]
        read_lat = latency[~w_served]
        write_lat = latency[w_served]
        if len(read_lat):
            psm.read_latency.record_many(read_lat)
        if len(write_lat):
            psm.write_latency.record_many(write_lat)
    if error is not None:
        raise error
    return ResponseWindow(
        window, complete_arr, occupied_arr, blocked_col,
        reconstructed=reconstructed if reconstructed else None,
        overrides=overrides,
    )
