"""Extent engine: windowed drain + extent-coalesced flush (PR 5).

The process default: byte-identical to the pipeline as it stood before
the engine layer existed — traces drain through the batched window
loop and persistence cuts coalesce dirty lines into sorted extents for
the port's ``flush_extents`` (the per-line ``access`` loop on a backend,
extent forwarding through interposers).
"""

from __future__ import annotations

from repro.engine.base import register_engine
from repro.engine.lowering import DriveResult, drive_lowered, extent_cut
from repro.engine.window import WindowEngine
from repro.memory.extent import backend_flush_extents, coalesce_lines

__all__ = ["ExtentEngine"]


class ExtentEngine(WindowEngine):
    """Exact replay; extent-coalesced persistence cuts."""

    name = "extent"

    def flush_cache(self, core) -> tuple[int, list[int]]:
        dirty = core.cache.flush_dirty()
        if dirty:
            # All write-backs issue at the same clock and coalesce into
            # sorted extents, which interposers forward whole.
            core.last_flush_report = backend_flush_extents(
                core.backend, coalesce_lines(dirty), core.now
            )
        return len(dirty), dirty

    def drive_program(self, port, program) -> DriveResult:
        return drive_lowered(port, program, batch_runs=False, cut=extent_cut)


register_engine("extent", ExtentEngine)
