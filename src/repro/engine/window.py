"""Window engine: the scalar engine with a windowed drain.

Traces drain through :meth:`~repro.cpu.core.Core.execute_window` in
4096-record windows, which is observationally identical to one
:meth:`~repro.cpu.core.Core.execute` per record with the per-record
overhead amortized over the window.  Everything else — the persistence
cut's write-back through scalar ``access`` — is the scalar engine's.
Not registered under a name of its own: the registered ``extent``
engine is this drain.
"""

from __future__ import annotations

import itertools

from repro.engine.scalar import ScalarEngine

__all__ = ["WINDOW_RECORDS", "WindowEngine"]

#: Drain window size — the hot-path batch grain.
WINDOW_RECORDS = 4096


class WindowEngine(ScalarEngine):
    """Exact replay in windows of ``window`` records."""

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
