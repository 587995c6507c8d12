"""Extent-coalesced dirty tracking and the closed-form flush fast path.

The persistence cut drains *dirty lines*, not a request stream: SnG's
Auto-Stop dumps every core's D$ and the periodic checkpoint modes dump
the bytes dirtied since the last cut (§IV, §VI).  That traffic is
maximally homogeneous — all writes, one issue time, runs of adjacent
lines — which is exactly the shape emerging-memory simulators aggregate
into analytically-timed extents instead of replaying line by line
(cf. arXiv:2502.10167, arXiv:2309.06565).  This module is that shape for
the :class:`repro.memory.port.MemoryBackend` surface:

* :class:`Extent` — a run of ``lines`` consecutive cachelines starting
  at a byte address; the unit the flush path reasons about.
* :class:`DirtyExtentMap` — records written lines at ``access``/
  ``access_batch`` time and coalesces them into sorted extents on
  demand.  :meth:`DirtyExtentMap.take` returns-and-clears, which is the
  delta-checkpoint contract: the next call only sees lines dirtied since
  this cut.
* :class:`FlushReport` — what draining a set of extents cost: line and
  extent counts, the completion horizon, accumulated backpressure, and
  the per-line responses (kept columnar so interposers above can account
  for the traffic exactly).
* :func:`default_flush_extents` — the correct-by-construction fallback:
  a scalar ``access`` loop over every line of every extent, mirroring
  :func:`repro.memory.batch.default_access_batch` (including the
  served-prefix handling on an injected power failure).  Native
  ``flush_extents`` implementations must be observationally identical to
  it — same responses, stats, wear registers and device state — which
  ``tests/test_extent_equivalence.py`` enforces.
* :func:`backend_flush_extents` — the dispatch helper callers use; any
  backend without a ``flush_extents`` attribute transparently gets the
  default loop, so scalar-only third-party backends keep working.

``flush_extents`` is write-back only: it pushes the dirty lines through
the port but does **not** invoke the backend's ``flush``/``drain``
lifecycle ports.  SnG's final memory synchronization stays a separate
``flush_port`` call, exactly as on the scalar path — which is what keeps
``StopReport`` byte-identical across the two implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.memory.batch import (
    BatchResponses,
    RequestWindow,
    ResponseWindow,
)
from repro.memory.request import (
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)
from repro.sim.stats import fold_left_sum

__all__ = [
    "DirtyExtentMap",
    "Extent",
    "FlushReport",
    "backend_flush_extents",
    "batched_flush_extents",
    "coalesce_lines",
    "default_flush_extents",
    "report_from_responses",
    "window_from_extents",
]

_WRITE = MemoryOp.WRITE


@dataclass(frozen=True)
class Extent:
    """A run of ``lines`` consecutive ``size``-byte lines from ``start``."""

    start: int
    lines: int
    size: int = CACHELINE_BYTES

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"negative extent start {self.start:#x}")
        if self.lines <= 0:
            raise ValueError(f"extent needs at least one line ({self.lines})")
        if self.size <= 0:
            raise ValueError(f"non-positive line size {self.size}")

    @property
    def end(self) -> int:
        """One past the last byte covered."""
        return self.start + self.lines * self.size

    def addresses(self) -> range:
        """The line base addresses the extent covers, ascending."""
        return range(self.start, self.end, self.size)


def coalesce_lines(
    addresses: Iterable[int], size: int = CACHELINE_BYTES
) -> list[Extent]:
    """Sort line base addresses and merge adjacent runs into extents.

    Input addresses are aligned down to ``size``; duplicates collapse.
    """
    lines = sorted({address // size for address in addresses})
    if not lines:
        return []
    out: list[Extent] = []
    run_start = lines[0]
    previous = lines[0]
    for line in lines[1:]:
        if line == previous + 1:
            previous = line
            continue
        out.append(Extent(run_start * size, previous - run_start + 1, size))
        run_start = previous = line
    out.append(Extent(run_start * size, previous - run_start + 1, size))
    return out


class DirtyExtentMap:
    """Written-line tracker that coalesces into extents on demand.

    The map records *lines* (a set of integer line indices), so repeated
    writes to the same line cost one entry, and :meth:`extents` sorts and
    merges adjacent lines into maximal runs.  ``take()`` is the
    delta-checkpoint primitive: it returns the coalesced extents and
    clears the map, so the next cut only pays for lines dirtied since.
    """

    __slots__ = ("size", "_lines")

    def __init__(self, size: int = CACHELINE_BYTES) -> None:
        if size <= 0:
            raise ValueError(f"non-positive line size {size}")
        self.size = size
        self._lines: set[int] = set()

    def __len__(self) -> int:
        return len(self._lines)

    def __bool__(self) -> bool:
        return bool(self._lines)

    @property
    def line_count(self) -> int:
        return len(self._lines)

    @property
    def dirty_bytes(self) -> int:
        return len(self._lines) * self.size

    def note_write(self, address: int) -> None:
        """Record one written byte address (aligned down to its line)."""
        self._lines.add(address // self.size)

    def note_lines(self, addresses: Iterable[int]) -> None:
        size = self.size
        self._lines.update(address // size for address in addresses)

    def note_window(self, window: RequestWindow) -> None:
        """Record every WRITE element of a request window."""
        size = self.size
        addresses = window.addresses
        self._lines.update(
            addresses[index] // size
            for index, is_write in enumerate(window.is_write)
            if is_write
        )

    def extents(self) -> list[Extent]:
        """The dirty set as sorted, maximally-coalesced extents."""
        size = self.size
        lines = sorted(self._lines)
        if not lines:
            return []
        out: list[Extent] = []
        run_start = lines[0]
        previous = lines[0]
        for line in lines[1:]:
            if line == previous + 1:
                previous = line
                continue
            out.append(
                Extent(run_start * size, previous - run_start + 1, size)
            )
            run_start = previous = line
        out.append(Extent(run_start * size, previous - run_start + 1, size))
        return out

    def take(self) -> list[Extent]:
        """Return the coalesced extents and clear the map (delta cut)."""
        out = self.extents()
        self._lines.clear()
        return out

    def clear(self) -> None:
        self._lines.clear()


@dataclass
class FlushReport:
    """What draining a set of extents through the port cost.

    ``done_ns`` is the horizon at which the last write-back *completes at
    the port* (the max of the per-line completion times, not the media
    drain — the flush/drain lifecycle ports remain separate calls).
    ``blocked_ns`` accumulates per-line backpressure in line order, so it
    is float-identical to summing the scalar loop's ``blocked_ns``
    fields.  ``responses`` carries the full per-line completion records
    (columnar on native paths) for interposers and equivalence checks.
    """

    lines: int
    extents: int
    start_ns: float
    done_ns: float
    blocked_ns: float
    responses: BatchResponses

    @property
    def elapsed_ns(self) -> float:
        return self.done_ns - self.start_ns

    def latencies(self) -> list[float]:
        if isinstance(self.responses, ResponseWindow):
            column = self.responses.latencies()
            # Fresh builtin list either way: the window caches its column
            # (possibly an ndarray) and callers may mutate our result.
            return column.tolist() if not isinstance(column, list) \
                else list(column)
        return [response.latency for response in self.responses]


def window_from_extents(
    extents: list[Extent], time: float
) -> Optional[RequestWindow]:
    """Expand extents into one all-write request window issued at ``time``.

    Returns ``None`` when there is nothing to expand or the extents mix
    line sizes (not window-shaped; callers fall back to the scalar loop).
    """
    if not extents:
        return None
    size = extents[0].size
    addresses: list[int] = []
    for extent in extents:
        if extent.size != size:
            return None
        addresses.extend(extent.addresses())
    n = len(addresses)
    return RequestWindow._bare(
        [True] * n, addresses, [time] * n, None, size
    )


def report_from_responses(
    extent_count: int, time: float, responses: BatchResponses
) -> FlushReport:
    """Fold per-line responses into a :class:`FlushReport`.

    The ``blocked_ns`` accumulation iterates the lines in order — the
    same float addition sequence as the scalar loop — never an analytic
    total, so reports match bit for bit across implementations.
    """
    done = time
    blocked = 0.0
    if isinstance(responses, ResponseWindow):
        overrides = responses.overrides
        if overrides:
            for index in range(len(responses)):
                response = overrides.get(index)
                if response is not None:
                    complete = response.complete_time
                    blocked += response.blocked_ns
                else:
                    complete = responses.complete[index]
                    blocked += responses.blocked[index]
                if complete > done:
                    done = complete
        elif len(responses):
            # max is order-insensitive and fold_left_sum replays the
            # scalar accumulation order, so this stays bit-identical.
            done = max(done, float(np.max(responses.complete)))
            blocked = fold_left_sum(blocked, responses.blocked)
    else:
        for response in responses:
            complete = response.complete_time
            if complete > done:
                done = complete
            blocked += response.blocked_ns
    return FlushReport(
        lines=len(responses),
        extents=extent_count,
        start_ns=time,
        done_ns=float(done),
        blocked_ns=float(blocked),
        responses=responses,
    )


def default_flush_extents(
    backend, extents: list[Extent], time: float
) -> FlushReport:
    """The reference flush implementation: a scalar WRITE loop per line.

    Native ``flush_extents`` implementations must match this
    observationally (responses, stats, wear registers, device state); it
    is also the fallback for backends without a fast path.  On an
    :class:`~repro.memory.port.InjectedPowerFailure` (recognized
    structurally via its list-typed ``completed`` attribute) the served
    prefix is prepended so interposers above account for it exactly —
    the same contract as ``default_access_batch``.
    """
    access = backend.access
    out: list[MemoryResponse] = []
    try:
        for extent in extents:
            size = extent.size
            for address in extent.addresses():
                out.append(
                    access(MemoryRequest(_WRITE, address, size=size,
                                         time=time))
                )
    except RuntimeError as failure:
        completed = getattr(failure, "completed", None)
        if isinstance(completed, list):
            failure.completed = out + completed
        raise
    return report_from_responses(len(extents), time, out)


def batched_flush_extents(
    backend, extents: list[Extent], time: float
) -> FlushReport:
    """Flush extents through the backend's ``access_batch`` fast path.

    The shared native implementation for backends whose columnar kernel
    already handles uniform write windows (DRAM, the PMEM controller,
    the PSM configurations its closed-form flush does not cover): one
    columnar window for all lines, one bulk stats record, one report.
    Falls back to the scalar loop for empty or mixed-size extent lists.
    """
    window = window_from_extents(extents, time)
    if window is None:
        return default_flush_extents(backend, extents, time)
    return report_from_responses(
        len(extents), time, backend.access_batch(window)
    )


def backend_flush_extents(
    backend, extents: list[Extent], time: float
) -> FlushReport:
    """Dispatch an extent flush, tolerating absent ``flush_extents``.

    Mirrors :func:`repro.memory.batch.backend_access_batch`: implementing
    the scalar protocol is enough — callers that flush extents route
    through here and get the default loop when no fast path exists.
    ``flush_extents`` is therefore deliberately NOT part of the
    ``assert_memory_backend`` surface.
    """
    flush_extents = getattr(backend, "flush_extents", None)
    if flush_extents is None:
        return default_flush_extents(backend, extents, time)
    return flush_extents(extents, time)
