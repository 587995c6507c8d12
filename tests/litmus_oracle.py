"""Reference crash-point enumeration: one re-drive per crash point.

:func:`repro.litmus.engine.run_program` drives a program once and reads
every crash point's recovered state off a second backend that shares
the driven chain's persistent media.  This module keeps the formulation
it replaced, which is the simplest statement of what a crash point
means: for each crash index, build a fresh functional backend chain,
drive the program from its first op with a :class:`FaultInjector`
armed at that index, power-fail, restore the committed wear registers
and read the observe lines back.

The allowed states come from :func:`allowed_after`, the oracle fold as
it was before :func:`repro.litmus.oracle.allowed_prefixes` replaced it
with one fold per program, so the reference checks each crash point
with a fold of its own prefix.

``tests/test_litmus_lockstep.py`` demands the same verdicts, the same
wear registers and read responses at every crash point, the same
counterexamples and the same minimized programs from both.  No product path runs this module;
it lives beside ``psm_oracle.py`` and ``pecos_oracle.py`` as a
reference.  The bodies of :func:`_execute`, :func:`run_program` and
:func:`allowed_after` are verbatim, except that the backend chain comes
from :func:`~repro.litmus.engine.litmus_backend`, into which the private
helper they called was folded.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.litmus.engine import (
    ProgramVerdict,
    drive_program,
    litmus_backend,
    observe_state,
)
from repro.litmus.ir import (
    LitmusProgram,
    build_timeline,
    iter_crash_points,
    prefix_digest,
    prefix_events,
    total_ticks,
)
from repro.litmus.oracle import (
    AllowedState,
    Counterexample,
    PersistencyModel,
    check_observation,
)
from repro.memory.port import FaultInjector

__all__ = ["allowed_after", "run_program"]


def allowed_after(
    events: Iterable[tuple],
    lines: Iterable[int],
    model: Optional[PersistencyModel] = None,
) -> dict[int, AllowedState]:
    """Fold an applied-event prefix into per-line allowed outcomes."""
    model = model or PersistencyModel()
    events = list(events)
    states: dict[int, AllowedState] = {line: AllowedState() for line in lines}

    def barrier() -> None:
        for state in states.values():
            state.base = state.latest
            state.maybe.clear()

    for event in events:
        kind = event[0]
        if kind == "store":
            _, line, version = event
            state = states.setdefault(line, AllowedState())
            state.latest = version
            state.maybe.add(version)
        elif kind == "flush":
            if model.flush_is_barrier:
                barrier()
        elif kind == "fence":
            if model.fence_is_barrier:
                barrier()
        # loads, writebacks, commits and checkpoints never move the
        # allowed set: a writeback only re-dirties a row buffer (its
        # data is already in the maybe-set) and commit is about wear
        # registers, not data.
    if not model.recovery_is_idempotent:
        # Wrong-loose recoverable-state rule: fold every version a line
        # ever stored back into its maybe-set, as if repeated recovery
        # could legally resurrect (or lose) barrier-committed data.
        history: dict[int, set[int]] = {}
        for event in events:
            if event[0] == "store":
                history.setdefault(event[1], set()).add(event[2])
        for line, versions in history.items():
            states.setdefault(line, AllowedState()).maybe.update(versions)
    return states


def _execute(program: LitmusProgram,
             crash_at: Optional[int]) -> dict[int, tuple[int, bool]]:
    """One run of ``program``, cut at ``crash_at`` ticks.

    Returns the post-run observation: line -> (version byte, torn),
    read back after ``power_fail`` + wear-register restore for crashed
    runs, or directly for the run to completion (``crash_at=None``).
    """
    port = FaultInjector(litmus_backend(program), crash_at_op=crash_at,
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
