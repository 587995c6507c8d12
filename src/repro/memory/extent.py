"""Extent-coalesced dirty tracking and the extent flush port.

The persistence cut drains *dirty lines*, not a request stream: SnG's
Auto-Stop dumps every core's D$ and the periodic checkpoint modes dump
the bytes dirtied since the last cut (§IV, §VI).  That traffic is all
writes, one issue time, runs of adjacent lines, so it travels through
the port as extents rather than as a request list:

* :class:`Extent` — a run of ``lines`` consecutive cachelines starting
  at a byte address; the unit the flush path reasons about.
* :class:`DirtyExtentMap` — records written lines at ``access``/
  ``access_batch`` time and coalesces them into sorted extents on
  demand.  :meth:`DirtyExtentMap.take` returns-and-clears, which is the
  delta-checkpoint contract: the next call only sees lines dirtied since
  this cut.
* :class:`FlushReport` — what draining a set of extents cost: line and
  extent counts, the completion horizon, accumulated backpressure, and
  the per-line responses (so interposers above can account for the
  traffic exactly).
* :func:`default_flush_extents` — what ``flush_extents`` means on a
  backend: a scalar ``access`` loop over every line of every extent,
  mirroring :func:`repro.memory.batch.default_access_batch` (including
  the served-prefix handling on an injected power failure).
* :func:`backend_flush_extents` — the dispatch helper callers use.
  Interposers define ``flush_extents`` to forward the extents through
  their chain; every other backend gets the default loop.

``flush_extents`` is write-back only: it pushes the dirty lines through
the port but does **not** invoke the backend's ``flush``/``drain``
lifecycle ports.  SnG's final memory synchronization stays a separate
``flush_port`` call, exactly as on the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.memory.batch import RequestWindow
from repro.memory.request import (
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)

__all__ = [
    "DirtyExtentMap",
    "Extent",
    "FlushReport",
    "backend_flush_extents",
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
    for interposers and equivalence checks.
    """

    lines: int
    extents: int
    start_ns: float
    done_ns: float
    blocked_ns: float
    responses: list[MemoryResponse]

    @property
    def elapsed_ns(self) -> float:
        return self.done_ns - self.start_ns

    def latencies(self) -> list[float]:
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
    extent_count: int, time: float, responses: list[MemoryResponse]
) -> FlushReport:
    """Fold per-line responses into a :class:`FlushReport`.

    The ``blocked_ns`` accumulation iterates the lines in order — the
    same float addition sequence as the scalar loop — so a report built
    from a window's responses matches the loop's bit for bit.
    """
    done = time
    blocked = 0.0
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
    """``flush_extents`` on a backend: a scalar WRITE loop per line.

    Interposers that cannot forward the extents whole (a customized
    scalar ``access``, write corruption) use it too.  On an
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


def backend_flush_extents(
    backend, extents: list[Extent], time: float
) -> FlushReport:
    """Dispatch an extent flush to ``backend``.

    Mirrors :func:`repro.memory.batch.backend_access_batch`: an
    interposer's ``flush_extents`` forwards the extents through its
    chain; a backend without one gets the default loop.  ``flush_extents``
    is therefore not part of the ``assert_memory_backend`` surface.
    """
    flush_extents = getattr(backend, "flush_extents", None)
    if flush_extents is None:
        return default_flush_extents(backend, extents, time)
    return flush_extents(extents, time)
