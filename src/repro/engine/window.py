"""Window engine: the PR 4 batched drain as a pluggable engine.

Observationally identical to scalar replay (the ``execute_window``
contract) with per-record dispatch overhead amortized over 4096-record
windows; the persistence cut drains as one request window through
``access_batch``, which interposers forward whole and a backend serves
with its scalar ``access`` loop.  Registered under its litmus path
alias ``batch`` so existing verdict labels and CI reports keep their
names.
"""

from __future__ import annotations

import itertools

from repro.engine.base import register_engine
from repro.engine.lowering import DriveResult, batch_cut, drive_lowered
from repro.memory.batch import backend_access_batch
from repro.memory.extent import (
    coalesce_lines,
    default_flush_extents,
    report_from_responses,
    window_from_extents,
)

__all__ = ["WINDOW_RECORDS", "WindowEngine"]

#: Drain window size — the PR 4 hot-path batch grain.
WINDOW_RECORDS = 4096


class WindowEngine:
    """Exact replay in batched windows."""

    name = "window"

    def __init__(self, window: int = WINDOW_RECORDS) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window

    def drain(self, core, records, thread_id: int = 0, *,
              source=None, consumed: int = 0) -> None:
        records = iter(records)
        while True:
            window = list(itertools.islice(records, self.window))
            if not window:
                break
            core.execute_window(window, thread_id)

    def flush_cache(self, core) -> tuple[int, list[int]]:
        dirty = core.cache.flush_dirty()
        if dirty:
            extents = coalesce_lines(dirty)
            window = window_from_extents(extents, core.now)
            if window is None:
                core.last_flush_report = default_flush_extents(
                    core.backend, extents, core.now
                )
            else:
                responses = backend_access_batch(core.backend, window)
                core.last_flush_report = report_from_responses(
                    len(extents), core.now, responses
                )
        return len(dirty), dirty

    def drive_program(self, port, program) -> DriveResult:
        return drive_lowered(port, program, batch_runs=True, cut=batch_cut)


register_engine("window", WindowEngine, aliases=("batch",))
