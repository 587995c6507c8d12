"""Extent engine: the process default.

The windowed drain of :class:`~repro.engine.window.WindowEngine`; a
persistence cut coalesces the dirty lines into sorted extents and
writes each line back through scalar ``access``
(:func:`~repro.memory.extent.default_flush_extents`, inherited from the
scalar engine).
"""

from __future__ import annotations

from repro.engine.base import register_engine
from repro.engine.window import WindowEngine

__all__ = ["ExtentEngine"]


class ExtentEngine(WindowEngine):
    """Exact replay in windows; extent-coalesced persistence cuts."""

    name = "extent"


register_engine("extent", ExtentEngine)
