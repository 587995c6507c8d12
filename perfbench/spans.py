"""In-memory span recorder for the traced benchmark run.

Every span records its name, start, end, parent span and a work count
(requests, records, lines ...) in flat typed arrays, so a traced run of
a few million spans stays a few tens of MiB.  Spans are written out
once, when the run ends (:meth:`SpanRecorder.save`).

A span's *self time* is its duration minus the durations of its direct
child spans.  The simulator is single-threaded and every span is
opened and closed on the calling thread, so spans nest strictly
(:meth:`SpanRecorder.finish` refuses any other order) and the self
times of all spans sum to the summed duration of the root spans.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable

__all__ = ["SpanRecorder"]

#: the span columns, in file order
_COLUMNS = ("name", "parent", "start", "end", "work")


class SpanRecorder:
    """Append-only span table with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        #: indices of the spans open right now, innermost last
        self.open_spans: list[int] = []
        #: name ids of ``open_spans`` (with a -1 sentinel at the bottom)
        self.open_names: list[int] = [-1]

    def name_id(self, name: str) -> int:
        """The stable small-integer id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span of name id ``nid``; returns its index."""
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self.open_spans[-1] if self.open_spans else -1)
        self.end.append(0.0)
        self.work.append(0)
        self.open_spans.append(index)
        self.open_names.append(nid)
        self.start.append(self.clock())
        return index

    def finish(self, index: int, work: int = 0) -> None:
        """Close the innermost open span, ``index``, with its work count.

        Closing any other span breaks the strict nesting that self time
        relies on, and raises.
        """
        if not self.open_spans or self.open_spans[-1] != index:
            raise RuntimeError(f"span {index} closed while it is not the "
                               f"innermost open span")
        self.end[index] = self.clock()
        self.work[index] = work
        self.open_spans.pop()
        self.open_names.pop()

    def totals(self) -> tuple[dict[str, tuple[int, float]], float]:
        """``({name: (work count, self seconds)}, root seconds)``.

        Root seconds is the summed duration of the spans with no parent,
        which equals the summed self time of every span.
        """
        count = len(self.name)
        if self.open_spans:
            raise RuntimeError(f"{len(self.open_spans)} spans still open")
        durations = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        root_s = 0.0
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += durations[index]
            else:
                root_s += durations[index]
        work = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for index, nid in enumerate(self.name):
            work[nid] += self.work[index]
            self_s[nid] += durations[index] - children[index]
        return ({name: (work[nid], self_s[nid])
                 for nid, name in enumerate(self.names)}, root_s)

    def save(self, path: str | Path) -> Path:
        """Write every span: one JSON header line, then the raw columns."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.name),
                  "columns": list(_COLUMNS)}
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in _COLUMNS:
                getattr(self, column).tofile(handle)
        return path
