"""Crash-point enumeration: run litmus programs through the port stack.

Each program is lowered once per execution engine — ``scalar`` (one
``access`` per op), ``batch`` (the window engine: store/load runs
through ``access_batch``, the SnG writeback as one request window) and
``extent`` (the SnG writeback through ``flush_extents`` on coalesced
dirty extents).  The lowerings differ in how traffic crosses the
interposer chain — per request, as forwarded windows, or as forwarded
extents — while the backend at the bottom serves every line through
its scalar ``access``.  Every lowering is executed once per crash point
with a fresh backend chain and a
:class:`~repro.memory.port.FaultInjector` armed at that index.  The
lowerings themselves live on the engines
(:mod:`repro.engine.lowering`); :func:`drive_program` here is the
registry dispatch, so a newly registered engine is immediately
enumerable as a litmus path.

All lowerings produce the *same* injector tick sequence (a batch of n
requests ticks n times, an extent of n lines ticks n times), so the
crash-point space is shared and, because the interposers' window and
extent forwarding must match their scalar ``access``, every crash point
must recover to byte-identical state on all paths — the engine asserts
exactly that, besides checking each recovered state against the
persistency oracle.

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
from typing import Optional, Sequence

from repro.engine.base import canonical_engine_name, resolve_engine
from repro.engine.lowering import DriveResult
from repro.litmus.ir import (
    LitmusProgram,
    build_timeline,
    iter_crash_points,
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
from repro.memory.port import AddressRange, AddressRangePartition, \
    FaultInjector, MemoryBackend
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM, PSMConfig

__all__ = [
    "EXECUTION_PATHS",
    "DriveResult",
    "ProgramVerdict",
    "drive_program",
    "litmus_backend",
    "observe_state",
    "run_program",
]

EXECUTION_PATHS = ("scalar", "batch", "extent")

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
    #: injector ticks per lowering — the size of one path's crash space
    crash_points: int
    #: states actually executed (all paths, dedup survivors + completions)
    executed: int = 0
    #: crash points skipped because their mutating prefix was already seen
    deduped: int = 0
    violations: list[Counterexample] = field(default_factory=list)
    #: cross-path observational mismatches (scalar vs batch vs extent)
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences


def drive_program(port, program: LitmusProgram, path: str) -> DriveResult:
    """Issue ``program``'s port traffic through ``port`` via one engine.

    ``path`` is an execution-engine registry name (``batch`` resolves
    to the window engine by alias).  Every engine's lowering produces
    the identical injector tick sequence (see the module docstring), so
    any injector armed on ``port`` trips at the same global tick index
    regardless of ``path``.
    """
    return resolve_engine(path).drive_program(port, program)


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


def _execute(program: LitmusProgram, path: str,
             crash_at: Optional[int]) -> dict[int, tuple[int, bool]]:
    """One run of ``program`` via ``path``, cut at ``crash_at`` ticks.

    Returns the post-run observation: line -> (version byte, torn),
    read back after ``power_fail`` + wear-register restore for crashed
    runs, or directly for the run to completion (``crash_at=None``).
    """
    port = FaultInjector(_make_inner(program), crash_at_op=crash_at,
                         count_drains=True)
    drive = drive_program(port, program, path)
    if drive.crashed:
        port.power_fail()
        if drive.committed is not None:
            port.restore_wear_registers(drive.committed)
    return observe_state(port, program)


def run_program(
    program: LitmusProgram,
    model: Optional[PersistencyModel] = None,
    paths: Sequence[str] = EXECUTION_PATHS,
) -> ProgramVerdict:
    """Exhaustively enumerate every crash point of every lowering."""
    for path in paths:
        # Any registered engine is a valid path; unknown names raise
        # the registry's ValueError (listing what *is* available).
        canonical_engine_name(path)
    model = model or PersistencyModel()
    timeline = build_timeline(program)
    lines = program.observe_lines()
    verdict = ProgramVerdict(program, crash_points=total_ticks(timeline))
    rendered = program.render()
    #: digest -> {path: observed} for the cross-path identity check
    states_by_digest: dict[object, dict[str, dict]] = {}

    for path in paths:
        seen: set[str] = set()
        for crash_at in iter_crash_points(timeline):
            if crash_at is None:
                key: object = "final"
            else:
                key = prefix_digest(timeline, crash_at)
                if key in seen:
                    verdict.deduped += 1
                    continue
                seen.add(key)
            observed = _execute(program, path, crash_at)
            verdict.executed += 1
            states_by_digest.setdefault(key, {})[path] = observed

            events = prefix_events(timeline, crash_at)
            allowed = allowed_after(events, lines, model)
            for line, version, ok_set, torn in check_observation(
                    observed, allowed, model, final=crash_at is None):
                verdict.violations.append(Counterexample(
                    program=rendered, path=path, crash_at=crash_at,
                    line=line, observed=version, allowed=ok_set, torn=torn,
                    trace=tuple(repr(event) for event in events),
                ))

    for key, per_path in sorted(states_by_digest.items(), key=lambda kv: str(kv[0])):
        baseline_path = next(iter(per_path))
        baseline = per_path[baseline_path]
        for path, observed in per_path.items():
            if observed != baseline:
                verdict.divergences.append(
                    f"{rendered}: state {str(key)[:12]} diverges — "
                    f"{baseline_path} read {baseline}, {path} read {observed}")
    return verdict
