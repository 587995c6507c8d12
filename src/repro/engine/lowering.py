"""Litmus-program lowering: shared machinery behind ``drive_program``.

Every engine lowers a :class:`~repro.litmus.ir.LitmusProgram` into port
traffic through :func:`drive_lowered`; what differs per engine is (a)
whether store/load runs batch through ``access_batch`` and (b) how the
SNG_CUT writeback drains the dirty extents.  All lowerings produce the
*same* injector tick sequence (a batch of n requests ticks n times, an
extent of n lines ticks n times), so the crash-point space is shared
across engines and the litmus enumerator's cross-path identity check
stays meaningful — that contract used to live in
``litmus/engine.py``'s hand-rolled path branches and now lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.memory.batch import backend_access_batch
from repro.memory.extent import (
    DirtyExtentMap,
    Extent,
    backend_flush_extents,
    window_from_extents,
)
from repro.memory.port import InjectedPowerFailure
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.litmus.ir import LitmusProgram

__all__ = [
    "DriveResult",
    "batch_cut",
    "drive_lowered",
    "extent_cut",
    "scalar_cut",
]

#: How one engine drains the SNG_CUT's dirty extents: (port, extents, t).
CutFn = Callable[[object, Sequence[Extent], float], None]


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


def scalar_cut(port, extents: Sequence[Extent], t: float) -> None:
    """One ``access`` per dirty line — the scalar engine's writeback."""
    for extent in extents:
        for address in extent.addresses():
            port.access(MemoryRequest(
                MemoryOp.WRITE, address=address, time=t))


def batch_cut(port, extents: Sequence[Extent], t: float) -> None:
    """The dirty extents as one request window through ``access_batch``."""
    window = window_from_extents(extents, t)
    if window is not None:
        backend_access_batch(port, window)


def extent_cut(port, extents: Sequence[Extent], t: float) -> None:
    """Coalesced extents through the ``flush_extents`` port."""
    backend_flush_extents(port, extents, t)


def drive_lowered(
    port,
    program: "LitmusProgram",
    *,
    batch_runs: bool,
    cut: CutFn,
) -> DriveResult:
    """Issue ``program``'s port traffic through ``port``.

    ``batch_runs`` batches store/load runs through ``access_batch``
    (the window engine's lowering); ``cut`` drains the SNG_CUT
    writeback.  Any injector armed on ``port`` trips at the same global
    tick index regardless of either choice (see the module docstring).
    """
    # Imported at call time: the litmus package itself resolves engines
    # through this module, so a top-level import would be circular.
    from repro.litmus.ir import OpKind, line_value

    dirty = DirtyExtentMap(size=CACHELINE_BYTES)
    result = DriveResult()
    run: list[MemoryRequest] = []
    t = 0.0

    def submit_run() -> None:
        nonlocal t
        if not run:
            return
        batched, run[:] = list(run), []
        if len(batched) == 1:
            port.access(batched[0])
        else:
            backend_access_batch(port, batched)
        t += 10.0

    try:
        for op in program.ops:
            if op.kind is OpKind.STORE:
                request = MemoryRequest(
                    MemoryOp.WRITE, address=op.line * CACHELINE_BYTES,
                    data=line_value(op.version), time=t)
                dirty.note_write(request.address)
                if batch_runs:
                    run.append(request)
                else:
                    port.access(request)
                    t += 10.0
            elif op.kind is OpKind.LOAD:
                request = MemoryRequest(
                    MemoryOp.READ, address=op.line * CACHELINE_BYTES, time=t)
                if batch_runs:
                    run.append(request)
                else:
                    port.access(request)
                    t += 10.0
            elif op.kind is OpKind.FLUSH:
                submit_run()
                t = port.flush(t)
            elif op.kind is OpKind.FENCE:
                submit_run()
                t = port.drain(t)
            elif op.kind is OpKind.SNG_CUT:
                submit_run()
                cut(port, dirty.take(), t)
                t = port.flush(t)
                result.committed = port.capture_registers()
            # CHECKPOINT: marker only, no port traffic
        submit_run()
    except InjectedPowerFailure:
        result.crashed = True
    return result
