"""The litmus-program IR and its port-operation timeline.

A litmus program is a short straight-line sequence over a tiny line
address space: stores (each carrying a unique version tag), loads, the
PSM flush port, a fence (port ``drain`` — ordering only, *no*
durability in the LightPC model), an SnG cut (write back every dirty
line, flush, capture the wear registers) and a checkpoint marker.

The timeline maps a program onto the exact sequence of
:class:`~repro.memory.port.FaultInjector` ticks its execution will
produce, *before* any execution happens: stores/loads/flushes tick
once, a fence ticks once (the litmus injector counts drains), and an
SnG cut ticks once per dirty-line writeback plus once for its flush.
Because writebacks and stores never depend on response data, the
timeline is a pure function of the program — crash-point enumeration
and prefix digests are computed from it without touching a backend.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.memory.request import CACHELINE_BYTES

__all__ = [
    "LitmusOp",
    "LitmusProgram",
    "OpKind",
    "TimelineEntry",
    "build_timeline",
    "crash_prefixes",
    "line_value",
    "prefix_digest",
    "prefix_events",
]


class OpKind(enum.Enum):
    """One litmus IR opcode."""

    STORE = "store"          # write line := version (1 tick)
    LOAD = "load"            # read line (1 tick)
    FLUSH = "flush"          # PSM flush port: global durability barrier
    FENCE = "fence"          # port drain: ordering only, NOT durable
    SNG_CUT = "sng_cut"      # dirty writeback + flush + register capture
    CHECKPOINT = "checkpoint"  # marker only; no port traffic


@dataclass(frozen=True)
class LitmusOp:
    """One IR operation; ``line``/``version`` are opcode-dependent."""

    kind: OpKind
    line: int = -1
    version: int = 0

    def render(self) -> str:
        if self.kind is OpKind.STORE:
            return f"store L{self.line}=v{self.version}"
        if self.kind in (OpKind.LOAD, OpKind.FLUSH):
            return f"{self.kind.value} L{self.line}"
        return self.kind.value


@dataclass(frozen=True)
class LitmusProgram:
    """A straight-line litmus test over ``lines`` cache lines.

    ``regions`` > 1 asks the harness for an
    :class:`~repro.memory.port.AddressRangePartition` topology with the
    line space split evenly across that many backends — the
    partition-straddle shapes place extents abutting exactly at the
    region boundary.
    """

    name: str
    ops: tuple[LitmusOp, ...]
    lines: int
    regions: int = 1

    def __post_init__(self) -> None:
        if self.lines < 1:
            raise ValueError(f"program needs >= 1 line, got {self.lines}")
        if not 1 <= self.regions <= self.lines:
            raise ValueError(
                f"regions must be in 1..{self.lines}, got {self.regions}")
        seen: set[int] = set()
        for op in self.ops:
            if op.kind in (OpKind.STORE, OpKind.LOAD, OpKind.FLUSH):
                if not 0 <= op.line < self.lines:
                    raise ValueError(
                        f"{op.render()} outside line space 0..{self.lines - 1}")
            if op.kind is OpKind.STORE:
                if not 1 <= op.version <= 0xFF:
                    raise ValueError(
                        f"store version {op.version} outside 1..255")
                if op.version in seen:
                    raise ValueError(
                        f"duplicate store version {op.version}")
                seen.add(op.version)

    def stored_lines(self) -> list[int]:
        """Lines the program ever stores to, ascending."""
        return sorted({op.line for op in self.ops
                       if op.kind is OpKind.STORE})

    def observe_lines(self) -> list[int]:
        """Lines the recovery check reads back: every stored line plus
        its immediate neighbours (to catch stray writes), ascending."""
        lines: set[int] = set()
        for line in self.stored_lines():
            for candidate in (line - 1, line, line + 1):
                if 0 <= candidate < self.lines:
                    lines.add(candidate)
        return sorted(lines) or [0]

    def render(self) -> str:
        body = "; ".join(op.render() for op in self.ops)
        extra = f", {self.regions} regions" if self.regions > 1 else ""
        return f"{self.name}[{self.lines} lines{extra}]: {body}"


def line_value(version: int) -> bytes:
    """The whole-line payload for a store version (torn-write detector)."""
    return bytes([version & 0xFF]) * CACHELINE_BYTES


@dataclass(frozen=True)
class TimelineEntry:
    """One timeline event; ``ticks`` is 0 or 1 FaultInjector ticks."""

    event: tuple
    ticks: int = 1
    #: index of the IR op this entry lowers (for counterexample traces)
    op_index: int = -1


def build_timeline(program: LitmusProgram) -> list[TimelineEntry]:
    """The per-tick event sequence the lowering of ``program`` produces.

    Events are tuples: ``('store', line, version)``, ``('load', line)``,
    ``('flush',)``, ``('fence',)``, ``('writeback', line)``,
    ``('commit',)`` (zero-tick: the wear registers were captured right
    after a cut's flush completed) and ``('checkpoint',)`` (zero-tick).
    """
    timeline: list[TimelineEntry] = []
    dirty: set[int] = set()
    for index, op in enumerate(program.ops):
        if op.kind is OpKind.STORE:
            dirty.add(op.line)
            timeline.append(TimelineEntry(
                ("store", op.line, op.version), op_index=index))
        elif op.kind is OpKind.LOAD:
            timeline.append(TimelineEntry(("load", op.line), op_index=index))
        elif op.kind is OpKind.FLUSH:
            timeline.append(TimelineEntry(("flush",), op_index=index))
        elif op.kind is OpKind.FENCE:
            timeline.append(TimelineEntry(("fence",), op_index=index))
        elif op.kind is OpKind.SNG_CUT:
            for line in sorted(dirty):
                timeline.append(TimelineEntry(
                    ("writeback", line), op_index=index))
            timeline.append(TimelineEntry(("flush",), op_index=index))
            timeline.append(TimelineEntry(
                ("commit",), ticks=0, op_index=index))
            dirty.clear()
        elif op.kind is OpKind.CHECKPOINT:
            timeline.append(TimelineEntry(
                ("checkpoint",), ticks=0, op_index=index))
    return timeline


def total_ticks(timeline: list[TimelineEntry]) -> int:
    return sum(entry.ticks for entry in timeline)


def prefix_events(timeline: list[TimelineEntry],
                  crash_at: Optional[int]) -> list[tuple]:
    """Events applied before a crash at tick index ``crash_at``.

    The injector raises *before* forwarding the scheduled op, so ticks
    ``0..crash_at - 1`` complete; zero-tick entries apply as soon as the
    walk reaches them.  ``crash_at=None`` means the program ran whole.
    """
    events: list[tuple] = []
    tick = 0
    for entry in timeline:
        if entry.ticks:
            if crash_at is not None and tick == crash_at:
                break
            tick += entry.ticks
        events.append(entry.event)
    return events


#: Events that can change durable/row-buffer state *or* the oracle's
#: allowed set.  Loads and checkpoint markers are pure on both axes in
#: this simulator (reads never evict, markers emit no traffic), so two
#: crash prefixes equal on this subsequence reach the same post-crash
#: state and the same verdict — under every rule configuration.  Fences
#: never move media state (``drain`` closes no row buffer) but *do*
#: move the allowed set under a broken ``fence_is_barrier`` model, so
#: they stay in the digest: dedup must never hide a rule violation.
_MUTATING = {"store", "writeback", "flush", "fence", "commit"}


def prefix_digest(timeline: list[TimelineEntry],
                  crash_at: Optional[int]) -> str:
    """SHA-256 over the state-mutating subsequence of a crash prefix."""
    digest = hashlib.sha256()
    for event in prefix_events(timeline, crash_at):
        if event[0] in _MUTATING:
            digest.update(repr(event).encode("ascii"))
            digest.update(b"\x00")
    return digest.hexdigest()


def crash_prefixes(timeline: list[TimelineEntry]
                   ) -> Iterator[tuple[Optional[int], str, list[tuple]]]:
    """``(crash_at, prefix_digest, prefix_events)`` of every crash point.

    The crash points come in :func:`iter_crash_points` order, the
    completion (``None``) last, and all of them from one walk over the
    timeline with one running hash of the same bytes
    :func:`prefix_digest` hashes.
    """
    digest = hashlib.sha256()
    events: list[tuple] = []
    tick = 0
    for entry in timeline:
        if entry.ticks:
            yield tick, digest.hexdigest(), events[:]
            tick += entry.ticks
        event = entry.event
        events.append(event)
        if event[0] in _MUTATING:
            digest.update(repr(event).encode("ascii"))
            digest.update(b"\x00")
    yield None, digest.hexdigest(), events


def iter_crash_points(timeline: list[TimelineEntry]) -> Iterator[Optional[int]]:
    """Every crash tick index, then ``None`` for the run-to-completion."""
    for crash_at in range(total_ticks(timeline)):
        yield crash_at
    yield None
