"""Scalar engine: one ``access`` per record and per dirty line.

The reference semantics every faster engine is measured against: no
windowing, one :meth:`~repro.cpu.core.Core.execute` per record.  A
persistence cut coalesces the dirty lines into extents for the report
and writes each line back through scalar ``access``.
"""

from __future__ import annotations

from repro.engine.base import register_engine
from repro.memory.extent import coalesce_lines, default_flush_extents

__all__ = ["ScalarEngine"]


class ScalarEngine:
    """Exact per-record replay through the scalar port surface."""

    name = "scalar"

    @property
    def params(self) -> dict:
        """Constructor keywords that build this engine afresh."""
        return {}

    def drain(self, core, records, thread_id: int = 0, *,
              source=None, consumed: int = 0) -> None:
        execute = core.execute
        for instructions, address, is_write in records:
            execute(instructions, address, is_write, thread_id)

    def flush_cache(self, core) -> tuple[int, list[int]]:
        dirty = core.cache.flush_dirty()
        if dirty:
            # One posted write per line, all at the same clock.
            core.last_flush_report = default_flush_extents(
                core.backend, coalesce_lines(dirty), core.now
            )
        return len(dirty), dirty


register_engine("scalar", ScalarEngine)
