"""Extent-coalesced dirty tracking and the extent flush.

The persistence cut drains *dirty lines*, not a request stream: SnG's
Auto-Stop dumps every core's D$ and the periodic checkpoint modes dump
the bytes dirtied since the last cut (§IV, §VI).  That traffic is all
writes, one issue time, runs of adjacent lines:

* :class:`Extent` — a run of ``lines`` consecutive cachelines starting
  at a byte address; the unit the flush path reasons about.
* :class:`DirtyExtentMap` — records written lines at ``access`` time
  and coalesces them into sorted extents on demand.
  :meth:`DirtyExtentMap.take` returns-and-clears, which is the
  delta-checkpoint contract: the next call only sees lines dirtied
  since this cut.
* :class:`FlushReport` — what draining a set of extents cost: line and
  extent counts, the completion horizon, accumulated backpressure, and
  the per-line responses.
* :func:`default_flush_extents` — the flush itself: one scalar WRITE
  ``access`` per line of every extent, in order, folded into a
  :class:`FlushReport`.

The flush is write-back only: it pushes the dirty lines through the
port but does **not** invoke the backend's ``flush``/``drain``
lifecycle ports.  SnG's final memory synchronization stays a separate
``flush_port`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    "coalesce_lines",
    "default_flush_extents",
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


def _runs(lines: list[int], size: int) -> list[Extent]:
    """Merge sorted, distinct line indices into maximal extents."""
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


def coalesce_lines(
    addresses: Iterable[int], size: int = CACHELINE_BYTES
) -> list[Extent]:
    """Sort line base addresses and merge adjacent runs into extents.

    Input addresses are aligned down to ``size``; duplicates collapse.
    """
    return _runs(sorted({address // size for address in addresses}), size)


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

    def extents(self) -> list[Extent]:
        """The dirty set as sorted, maximally-coalesced extents."""
        return _runs(sorted(self._lines), self.size)

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
    is float-identical to summing the per-line ``blocked_ns`` fields.
    ``responses`` carries the full per-line completion records.
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


def default_flush_extents(
    backend, extents: list[Extent], time: float
) -> FlushReport:
    """Write every line of ``extents`` back through ``backend.access``.

    One WRITE per line, all issued at ``time``, extents and lines in
    order.  ``done_ns`` is the latest completion (never before
    ``time``) and ``blocked_ns`` sums the per-line backpressure in line
    order.  A failure propagates from the line that raised, after the
    lines before it were served.
    """
    access = backend.access
    responses: list[MemoryResponse] = []
    done = time
    blocked = 0.0
    for extent in extents:
        size = extent.size
        for address in extent.addresses():
            response = access(MemoryRequest(_WRITE, address, size=size,
                                            time=time))
            responses.append(response)
            complete = response.complete_time
            if complete > done:
                done = complete
            blocked += response.blocked_ns
    return FlushReport(
        lines=len(responses),
        extents=len(extents),
        start_ns=time,
        done_ns=float(done),
        blocked_ns=float(blocked),
        responses=responses,
    )
