"""Crash-point enumeration: run litmus programs through the port stack.

:func:`drive_program` lowers a program into port traffic: one scalar
``access`` per store and per load, the ``flush``/``drain`` lifecycle
ports for FLUSH and FENCE, and for an SNG_CUT the dirty lines written
back through :func:`~repro.memory.extent.default_flush_extents`, then
a port flush and a wear-register capture.  Every port operation ticks
the :class:`~repro.memory.port.FaultInjector` once, in the order of the
program's timeline (:func:`~repro.litmus.ir.build_timeline`), so each
crash index names one timeline tick.  The program is executed once per
crash point with a fresh backend chain and an injector armed at that
index, and every recovered state is checked against the persistency
oracle.

Enumeration is pruned by the SHA-256 digest of the crash prefix's
state-mutating event subsequence (:func:`repro.litmus.ir.prefix_digest`):
crash points separated only by loads/fences/markers reach the same
post-crash state and are verified once.

The wear threshold is configured astronomically high so the Start-Gap
mapping never moves during a program: ``power_cycle`` resets the wear
registers, and with a moved gap an *uncommitted* crash would read
through a stale mapping — a real LightPC hazard, but one owned by the
SnG register capture (exercised here via ``capture_registers`` /
``restore_wear_registers`` round-trips), not by the per-store
durability rules this oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.litmus.ir import (
    LitmusProgram,
    OpKind,
    build_timeline,
    iter_crash_points,
    line_value,
    prefix_digest,
    prefix_events,
    total_ticks,
)
from repro.litmus.oracle import (
    Counterexample,
    PersistencyModel,
    allowed_after,
    check_observation,
)
from repro.memory.extent import DirtyExtentMap, default_flush_extents
from repro.memory.port import AddressRange, AddressRangePartition, \
    FaultInjector, InjectedPowerFailure, MemoryBackend
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM, PSMConfig

__all__ = [
    "DriveResult",
    "ProgramVerdict",
    "drive_program",
    "litmus_backend",
    "observe_state",
    "run_program",
]

#: Wear moves would entangle the oracle with Start-Gap remapping; park
#: the threshold far beyond any litmus program's store count.
_FROZEN_WEAR = 1 << 30


def _litmus_config() -> PSMConfig:
    return PSMConfig(dimms=2, lines_per_dimm=256,
                     wear_threshold=_FROZEN_WEAR)


def _make_inner(program: LitmusProgram) -> MemoryBackend:
    if program.regions == 1:
        return PSM(_litmus_config(), functional=True)
    span = -(-program.lines // program.regions)
    regions = []
    for index in range(program.regions):
        start = index * span * CACHELINE_BYTES
        end = min((index + 1) * span, program.lines) * CACHELINE_BYTES
        regions.append(AddressRange(
            start, end, PSM(_litmus_config(), functional=True)))
    return AddressRangePartition(regions)


def litmus_backend(program: LitmusProgram) -> MemoryBackend:
    """A fresh functional backend of the litmus topology for ``program``.

    Single-region programs get one frozen-wear functional PSM;
    multi-region programs an :class:`AddressRangePartition` over one PSM
    per region.  The compound-fault drills build their interposer chains
    on top of exactly this topology so drill and litmus verdicts are
    comparable.
    """
    return _make_inner(program)


@dataclass
class ProgramVerdict:
    """Everything one program's exhaustive enumeration established."""

    program: LitmusProgram
    #: injector ticks of one drive — the size of the crash space
    crash_points: int
    #: states actually executed (dedup survivors + the completion run)
    executed: int = 0
    #: crash points skipped because their mutating prefix was already seen
    deduped: int = 0
    violations: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class DriveResult:
    """What one drive of a program through a port established.

    ``committed`` is the wear blob captured at the last SNG_CUT that
    completed before any crash; ``crashed`` records whether an injector
    tripped mid-drive (the exception is absorbed so the caller can run
    its own recovery protocol — one-shot for litmus, the looping Go of
    the compound-fault drills).
    """

    committed: Optional[bytes] = None
    crashed: bool = False


def drive_program(port, program: LitmusProgram) -> DriveResult:
    """Issue ``program``'s port traffic through ``port``.

    Stores and loads are one scalar ``access`` each, 10 ns apart; FLUSH
    and FENCE are the ``flush`` and ``drain`` ports; an SNG_CUT writes
    the lines dirtied since the previous cut back at the current clock,
    flushes the port and captures the wear registers.  An injected power
    failure ends the drive with ``crashed`` set.
    """
    dirty = DirtyExtentMap(size=CACHELINE_BYTES)
    result = DriveResult()
    t = 0.0
    try:
        for op in program.ops:
            if op.kind is OpKind.STORE:
                address = op.line * CACHELINE_BYTES
                dirty.note_write(address)
                port.access(MemoryRequest(
                    MemoryOp.WRITE, address=address,
                    data=line_value(op.version), time=t))
                t += 10.0
            elif op.kind is OpKind.LOAD:
                port.access(MemoryRequest(
                    MemoryOp.READ, address=op.line * CACHELINE_BYTES, time=t))
                t += 10.0
            elif op.kind is OpKind.FLUSH:
                t = port.flush(t)
            elif op.kind is OpKind.FENCE:
                t = port.drain(t)
            elif op.kind is OpKind.SNG_CUT:
                default_flush_extents(port, dirty.take(), t)
                t = port.flush(t)
                result.committed = port.capture_registers()
            # CHECKPOINT: marker only, no port traffic
    except InjectedPowerFailure:
        result.crashed = True
    return result


def observe_state(port, program: LitmusProgram) -> dict[int, tuple[int, bool]]:
    """Read back every observe line: line -> (version byte, torn)."""
    observed: dict[int, tuple[int, bool]] = {}
    for line in program.observe_lines():
        response = port.access(MemoryRequest(
            MemoryOp.READ, address=line * CACHELINE_BYTES, time=0.0))
        data = response.data
        if not data or not any(data):
            observed[line] = (0, False)
        else:
            observed[line] = (data[0], len(set(data)) != 1)
    return observed


def _execute(program: LitmusProgram,
             crash_at: Optional[int]) -> dict[int, tuple[int, bool]]:
    """One run of ``program``, cut at ``crash_at`` ticks.

    Returns the post-run observation: line -> (version byte, torn),
    read back after ``power_fail`` + wear-register restore for crashed
    runs, or directly for the run to completion (``crash_at=None``).
    """
    port = FaultInjector(_make_inner(program), crash_at_op=crash_at,
                         count_drains=True)
    drive = drive_program(port, program)
    if drive.crashed:
        port.power_fail()
        if drive.committed is not None:
            port.restore_wear_registers(drive.committed)
    return observe_state(port, program)


def run_program(
    program: LitmusProgram,
    model: Optional[PersistencyModel] = None,
) -> ProgramVerdict:
    """Exhaustively enumerate every crash point of ``program``."""
    model = model or PersistencyModel()
    timeline = build_timeline(program)
    lines = program.observe_lines()
    verdict = ProgramVerdict(program, crash_points=total_ticks(timeline))
    rendered = program.render()
    seen: set[str] = set()
    for crash_at in iter_crash_points(timeline):
        if crash_at is not None:
            key = prefix_digest(timeline, crash_at)
            if key in seen:
                verdict.deduped += 1
                continue
            seen.add(key)
        observed = _execute(program, crash_at)
        verdict.executed += 1

        events = prefix_events(timeline, crash_at)
        allowed = allowed_after(events, lines, model)
        for line, version, ok_set, torn in check_observation(
                observed, allowed, model, final=crash_at is None):
            verdict.violations.append(Counterexample(
                program=rendered, crash_at=crash_at,
                line=line, observed=version, allowed=ok_set, torn=torn,
                trace=tuple(repr(event) for event in events),
            ))
    return verdict
