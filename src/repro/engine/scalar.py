"""Scalar engine: one ``access`` per record, per dirty line, per store.

The reference semantics every faster engine is measured against — no
windowing, no extent coalescing on the flush path's request shape (the
lines still coalesce for the report, but each drains as its own scalar
write).  Useful for bisecting equivalence failures and as the baseline
leg of the hot-path benchmarks.
"""

from __future__ import annotations

from repro.engine.base import register_engine
from repro.engine.lowering import DriveResult, drive_lowered, scalar_cut
from repro.memory.extent import coalesce_lines, default_flush_extents

__all__ = ["ScalarEngine"]


class ScalarEngine:
    """Exact per-record replay through the scalar port surface."""

    name = "scalar"

    def drain(self, core, records, thread_id: int = 0, *,
              source=None, consumed: int = 0) -> None:
        execute = core.execute
        for instructions, address, is_write in records:
            execute(instructions, address, is_write, thread_id)

    def flush_cache(self, core) -> tuple[int, list[int]]:
        dirty = core.cache.flush_dirty()
        if dirty:
            # One posted write per line at the same clock — the scalar
            # fallback loop the extent port would otherwise amortize.
            core.last_flush_report = default_flush_extents(
                core.backend, coalesce_lines(dirty), core.now
            )
        return len(dirty), dirty

    def drive_program(self, port, program) -> DriveResult:
        return drive_lowered(port, program, batch_runs=False, cut=scalar_cut)


register_engine("scalar", ScalarEngine)
