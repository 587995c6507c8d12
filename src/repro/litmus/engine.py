"""Crash-point enumeration: run litmus programs through the port stack.

:func:`drive_program` lowers a program into port traffic: one scalar
``access`` per store and per load, the ``flush``/``drain`` lifecycle
ports for FLUSH and FENCE, and for an SNG_CUT the dirty lines written
back through :func:`~repro.memory.extent.default_flush_extents`, then
a port flush and a wear-register capture.  Every port operation is one
tick of a :class:`~repro.memory.port.FaultInjector` with
``count_drains=True``, in the order of the program's timeline
(:func:`~repro.litmus.ir.build_timeline`), so each crash index names
one timeline tick.

:func:`run_program` drives each program once.  A power cut at tick
``i`` leaves the media the first ``i`` operations programmed and the
wear registers the last completed cut captured, so a counting
interposer reads that state back just before it forwards operation
``i``: a *survivor*, a second backend of the program's topology that
reads the driven chain's persistent media
(:meth:`~repro.ocpmem.psm.PSM.read_media_of`), is power-cycled, given
the committed register blob and read back.  The survivor only reads,
so the drive goes on as if no cut had been observed, and the run to
completion is read off the driven chain itself.  Every recovered state
is checked against the persistency oracle.

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
    crash_prefixes,
    line_value,
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
    InjectedPowerFailure, Interposer, MemoryBackend
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest, \
    MemoryResponse
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


def litmus_backend(program: LitmusProgram) -> MemoryBackend:
    """A fresh functional backend of the litmus topology for ``program``.

    Single-region programs get one frozen-wear functional PSM;
    multi-region programs an :class:`AddressRangePartition` over one PSM
    per region.  The compound-fault drills build their interposer chains
    on top of exactly this topology so drill and litmus verdicts are
    comparable.
    """
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


@dataclass
class ProgramVerdict:
    """Everything one program's exhaustive enumeration established."""

    program: LitmusProgram
    #: injector ticks of one drive — the size of the crash space
    crash_points: int
    #: states observed: one per crash point the dedup kept, plus the
    #: run to completion
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


def observe_state(port, program: LitmusProgram,
                  lines: Optional[list[int]] = None,
                  ) -> dict[int, tuple[int, bool]]:
    """Read back every observe line: line -> (version byte, torn).

    ``lines`` is ``program.observe_lines()``, for a caller that has it.
    """
    observed: dict[int, tuple[int, bool]] = {}
    for line in program.observe_lines() if lines is None else lines:
        response = port.access(MemoryRequest(
            MemoryOp.READ, address=line * CACHELINE_BYTES, time=0.0))
        data = response.data
        if not data or not any(data):
            observed[line] = (0, False)
        else:
            observed[line] = (data[0], len(set(data)) != 1)
    return observed


class _CrashObserver(Interposer):
    """Ticks like ``FaultInjector(count_drains=True)`` and, before it
    forwards the operation of each tick in ``crash_points``, records
    what a power cut at that tick leaves: ``survivor`` power-cycled,
    given the last captured register blob, and read back."""

    def __init__(self, inner: MemoryBackend, survivor: MemoryBackend,
                 program: LitmusProgram, lines: list[int],
                 crash_points: set[int]) -> None:
        super().__init__(inner)
        self.survivor = survivor
        self.program = program
        self.lines = lines
        self.crash_points = crash_points
        self.op_index = 0
        self.committed: Optional[bytes] = None
        #: crash tick -> the state read back after a cut there
        self.observed: dict[int, dict[int, tuple[int, bool]]] = {}

    def _tick(self) -> None:
        index = self.op_index
        if index in self.crash_points:
            survivor = self.survivor
            survivor.power_cycle()
            if self.committed is not None:
                survivor.restore_wear_registers(self.committed)
            self.observed[index] = observe_state(
                survivor, self.program, self.lines)
        self.op_index = index + 1

    def access(self, request: MemoryRequest) -> MemoryResponse:
        self._tick()
        return self.inner.access(request)

    def flush(self, time: float) -> float:
        self._tick()
        return self.inner.flush(time)

    def drain(self, time: float) -> float:
        self._tick()
        return self.inner.drain(time)

    def capture_registers(self) -> bytes:
        self.committed = self.inner.capture_registers()
        return self.committed


def run_program(
    program: LitmusProgram,
    model: Optional[PersistencyModel] = None,
) -> ProgramVerdict:
    """Exhaustively enumerate every crash point of ``program``."""
    model = model or PersistencyModel()
    timeline = build_timeline(program)
    lines = program.observe_lines()
    verdict = ProgramVerdict(program, crash_points=total_ticks(timeline))
    kept: list[tuple[Optional[int], list[tuple]]] = []
    seen: set[str] = set()
    for crash_at, key, events in crash_prefixes(timeline):
        if crash_at is not None:
            if key in seen:
                verdict.deduped += 1
                continue
            seen.add(key)
        kept.append((crash_at, events))

    driven = litmus_backend(program)
    survivor = litmus_backend(program)
    survivor.read_media_of(driven)
    port = _CrashObserver(driven, survivor, program, lines, {
        crash_at for crash_at, _ in kept if crash_at is not None})
    drive_program(port, program)
    observed = port.observed
    observed[None] = observe_state(driven, program, lines)

    verdict.executed = len(kept)
    rendered = program.render()
    for crash_at, events in kept:
        allowed = allowed_after(events, lines, model)
        for line, version, ok_set, torn in check_observation(
                observed[crash_at], allowed, model,
                final=crash_at is None):
            verdict.violations.append(Counterexample(
                program=rendered, crash_at=crash_at,
                line=line, observed=version, allowed=ok_set, torn=torn,
                trace=tuple(repr(event) for event in events),
            ))
    return verdict
