"""Columnar request/response windows for the batched memory fast path.

Per-access dispatch through the port costs more than the timing math it
wraps: a ``MemoryRequest`` construction, an ``access`` call, a
``MemoryResponse`` construction and a stats ``record`` per 64 B line.
Trace-driven simulators (gem5 atomic mode, DRAMsim batch frontends) avoid
this by pushing whole trace windows through the timing model at once;
this module is that shape for the :class:`repro.memory.port.MemoryBackend`
surface:

* :class:`RequestWindow` — a batch of READ/WRITE requests stored as
  parallel columns (flags, addresses, issue times) instead of request
  objects.  Backends with a native ``access_batch`` iterate the columns
  directly; request objects are materialized lazily and only on fallback
  paths.  The columns are mirrored as ndarrays
  (:meth:`RequestWindow.arrays`) so the columnar kernels in
  :mod:`repro.memory.columnar` evaluate whole windows per ufunc pass;
  :meth:`RequestWindow.from_arrays` builds a window directly over
  ndarrays (zero-copy from the v2 ``.coltrace`` memmap columns).
* :class:`ResponseWindow` — the columnar completion record.  It behaves
  like a sequence of :class:`MemoryResponse` but only builds a response
  object when an element is actually indexed; bulk consumers read the
  ``complete``/``occupied``/``blocked`` columns or :meth:`latencies`
  (which returns the cached latency *column* — list or ndarray — not a
  fresh copy; treat it as read-only).
* :func:`default_access_batch` — the correct-by-construction fallback:
  a loop over scalar ``access``.  Native implementations must be
  observationally identical to it (same responses, same stats, same
  device state), which ``tests/test_batch_equivalence.py`` enforces.
* :func:`backend_access_batch` — the dispatch helper callers use; any
  backend without an ``access_batch`` attribute (e.g. a third-party
  implementation of the protocol) transparently gets the default loop.

Zero-copy rules (pinned by ``tests/test_columnar_window.py``):
:meth:`RequestWindow.subwindow` slices ndarray columns into *views* — a
subwindow aliases its parent's memory.  Consumers must therefore never
mutate a column in place; rebasing replaces the column object via
:meth:`RequestWindow.replace_addresses`, which also keeps the cached
ndarray mirror coherent.  Plain-list columns fall back to a shallow
slice copy (Python lists have no view form).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.memory.request import (
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)

__all__ = [
    "BatchRequests",
    "RequestWindow",
    "ResponseWindow",
    "backend_access_batch",
    "default_access_batch",
]

_READ = MemoryOp.READ
_WRITE = MemoryOp.WRITE


class RequestWindow:
    """A window of uniform READ/WRITE requests as parallel columns.

    Every element shares ``size`` and carries no data payload — the shape
    of the timing fast path.  ``thread_ids`` may be ``None`` when the
    whole window belongs to thread 0.  Columns are plain lists when built
    through ``__init__``/``from_requests`` and ndarrays when built through
    :meth:`from_arrays`; either way :meth:`arrays` yields the (cached)
    ndarray mirror the columnar kernels consume.
    """

    __slots__ = ("is_write", "addresses", "times", "thread_ids", "size",
                 "_source", "_arrays")

    def __init__(
        self,
        is_write: Sequence[bool],
        addresses: Sequence[int],
        times: Sequence[float],
        thread_ids: Optional[Sequence[int]] = None,
        size: int = CACHELINE_BYTES,
    ) -> None:
        if not (len(is_write) == len(addresses) == len(times)):
            raise ValueError("window columns must have equal length")
        if thread_ids is not None and len(thread_ids) != len(addresses):
            raise ValueError("thread_ids column length mismatch")
        self.is_write = list(is_write)
        self.addresses = list(addresses)
        self.times = list(times)
        self.thread_ids = list(thread_ids) if thread_ids is not None else None
        self.size = size
        self._source: Optional[Sequence[MemoryRequest]] = None
        self._arrays = None

    @classmethod
    def _bare(
        cls,
        is_write,
        addresses,
        times,
        thread_ids,
        size: int,
        source=None,
        arrays=None,
    ) -> "RequestWindow":
        """Internal constructor: adopt columns as-is (no copies)."""
        window = cls.__new__(cls)
        window.is_write = is_write
        window.addresses = addresses
        window.times = times
        window.thread_ids = thread_ids
        window.size = size
        window._source = source
        window._arrays = arrays
        return window

    @classmethod
    def from_arrays(
        cls,
        is_write,
        addresses,
        times,
        thread_ids=None,
        size: int = CACHELINE_BYTES,
    ) -> "RequestWindow":
        """Build a window directly over ndarray columns (zero-copy).

        ``asarray`` adopts the buffers without copying when the dtypes
        already match (bool / int64 / float64) — the path the
        ``.coltrace`` memmap columns take.
        """
        w = np.asarray(is_write, dtype=np.bool_)
        a = np.asarray(addresses, dtype=np.int64)
        t = np.asarray(times, dtype=np.float64)
        if not (len(w) == len(a) == len(t)):
            raise ValueError("window columns must have equal length")
        if thread_ids is not None and len(thread_ids) != len(a):
            raise ValueError("thread_ids column length mismatch")
        return cls._bare(w, a, t, thread_ids, size, arrays=(w, a, t))

    @classmethod
    def from_requests(
        cls, requests: Sequence[MemoryRequest]
    ) -> Optional["RequestWindow"]:
        """Columnize a request list, or ``None`` if it is not window-shaped.

        Window shape means: every request is a READ or WRITE of one
        uniform size with no data payload.  Anything else (FLUSH/RESET
        ops, functional payloads, mixed sizes) belongs on the scalar
        path, so callers fall back to :func:`default_access_batch`.
        """
        if not requests:
            return None
        size = requests[0].size
        is_write: list[bool] = []
        addresses: list[int] = []
        times: list[float] = []
        thread_ids: list[int] = []
        for request in requests:
            op = request.op
            if op is _WRITE:
                is_write.append(True)
            elif op is _READ:
                is_write.append(False)
            else:
                return None
            if request.data is not None or request.size != size:
                return None
            addresses.append(request.address)
            times.append(request.time)
            thread_ids.append(request.thread_id)
        window = cls(is_write, addresses, times, thread_ids, size=size)
        window._source = requests
        return window

    def __len__(self) -> int:
        return len(self.addresses)

    def arrays(self):
        """The ``(is_write, addresses, times)`` columns as ndarrays.

        Cached after the first call; zero-copy when the window was built
        through :meth:`from_arrays`, one ``fromiter`` pass per column
        otherwise.
        """
        cached = self._arrays
        if cached is None:
            n = len(self.addresses)
            cached = (
                np.fromiter(self.is_write, dtype=np.bool_, count=n),
                np.fromiter(self.addresses, dtype=np.int64, count=n),
                np.fromiter(self.times, dtype=np.float64, count=n),
            )
            self._arrays = cached
        return cached

    def replace_addresses(self, addresses) -> None:
        """Swap the address column (rebasing), keeping caches coherent.

        The column object is *replaced*, never mutated in place — a
        subwindow's columns may alias its parent's memory (see module
        docstring), so rebasing must not write through the view.
        """
        self.addresses = addresses
        cached = self._arrays
        if cached is not None:
            self._arrays = (
                cached[0],
                np.asarray(addresses, dtype=np.int64),
                cached[2],
            )
        self._source = None  # source requests hold un-rebased addresses

    def request_at(self, index: int) -> MemoryRequest:
        """Materialize (or recover) the request object for one element.

        Column values are coerced to builtin scalars so materialized
        requests are identical whether the columns are lists or ndarrays.
        """
        if self._source is not None:
            return self._source[index]
        request = MemoryRequest.__new__(MemoryRequest)
        request.op = _WRITE if self.is_write[index] else _READ
        request.address = int(self.addresses[index])
        request.size = self.size
        request.time = float(self.times[index])
        request.data = None
        request.thread_id = (
            int(self.thread_ids[index]) if self.thread_ids is not None else 0
        )
        request.metadata = None
        return request

    def subwindow(self, start: int, stop: int) -> "RequestWindow":
        """A contiguous slice ``[start, stop)`` as its own window.

        Zero-copy wherever the columns allow it: ndarray columns (and
        the cached :meth:`arrays` mirror) slice into views, so the
        subwindow aliases this window's memory.  List columns fall back
        to a shallow slice copy.
        """
        cached = self._arrays
        return RequestWindow._bare(
            self.is_write[start:stop],
            self.addresses[start:stop],
            self.times[start:stop],
            (
                self.thread_ids[start:stop]
                if self.thread_ids is not None else None
            ),
            self.size,
            source=(
                list(self._source[start:stop]) if self._source is not None
                else None
            ),
            arrays=(
                tuple(column[start:stop] for column in cached)
                if cached is not None else None
            ),
        )

    def requests(self) -> list[MemoryRequest]:
        return [self.request_at(i) for i in range(len(self))]


class ResponseWindow:
    """Columnar completion records for one :class:`RequestWindow`.

    Indexing materializes a :class:`MemoryResponse` through the normal
    constructor, so the ``occupied_until`` clamp and ``latency`` property
    behave exactly as on the scalar path.  ``overrides`` carries the few
    elements a native batch path served through scalar fallback (they
    may hold data payloads or flag bits the columns do not model).  The
    ``complete``/``occupied``/``blocked`` columns are float64 ndarrays
    from the columnar kernels and lists from the PSM's closed-form
    extent flush; element access coerces to builtin floats either way.
    """

    __slots__ = ("window", "complete", "occupied", "blocked",
                 "reconstructed", "overrides", "_latencies")

    def __init__(
        self,
        window: RequestWindow,
        complete,
        occupied,
        blocked,
        reconstructed: Optional[set[int]] = None,
        overrides: Optional[dict[int, MemoryResponse]] = None,
    ) -> None:
        self.window = window
        self.complete = complete
        self.occupied = occupied
        self.blocked = blocked
        self.reconstructed = reconstructed
        self.overrides = overrides
        self._latencies = None

    def __len__(self) -> int:
        return len(self.complete)

    def __getitem__(self, index: int) -> MemoryResponse:
        size = len(self.complete)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("response window index out of range")
        if self.overrides is not None:
            override = self.overrides.get(index)
            if override is not None:
                return override
        return MemoryResponse(
            self.window.request_at(index),
            complete_time=float(self.complete[index]),
            occupied_until=float(self.occupied[index]),
            blocked_ns=float(self.blocked[index]),
            reconstructed=(
                self.reconstructed is not None
                and index in self.reconstructed
            ),
        )

    def __iter__(self) -> Iterator[MemoryResponse]:
        for index in range(len(self.complete)):
            yield self[index]

    def latencies(self):
        """``response.latency`` for each element, as the latency *column*.

        Computed once and cached; subsequent calls return the same
        object (an ndarray when the columns are ndarrays, a list
        otherwise).  Callers must treat it as read-only — it may share
        memory with the window columns.
        """
        cached = self._latencies
        if cached is not None:
            return cached
        complete = self.complete
        overrides = self.overrides
        if isinstance(complete, np.ndarray):
            out = complete - self.window.arrays()[2]
            if overrides:
                for index, response in overrides.items():
                    out[index] = response.latency
        else:
            times = self.window.times
            out = []
            for index, complete_value in enumerate(complete):
                if overrides is not None and index in overrides:
                    out.append(overrides[index].latency)
                else:
                    out.append(complete_value - times[index])
        self._latencies = out
        return out


#: What ``access_batch`` accepts: a columnar window or a plain request list.
BatchRequests = Union[RequestWindow, Sequence[MemoryRequest]]
#: What ``access_batch`` returns: a columnar window or a response list.
BatchResponses = Union[ResponseWindow, list[MemoryResponse]]


def default_access_batch(backend, requests: BatchRequests) -> list[MemoryResponse]:
    """The reference batch implementation: a loop over scalar ``access``.

    Native ``access_batch`` implementations must match this observationally
    (responses, stats, device state); it is also the fallback for backends
    and request shapes without a fast path.

    If the loop dies on an ``InjectedPowerFailure`` (recognized
    structurally by its ``completed`` attribute, to avoid importing the
    port layer), the responses served before the crash are prepended to
    the exception's ``completed`` prefix so upstream interposers can
    account for them.
    """
    access = backend.access
    out: list[MemoryResponse] = []
    try:
        if isinstance(requests, RequestWindow):
            for index in range(len(requests)):
                out.append(access(requests.request_at(index)))
        else:
            for request in requests:
                out.append(access(request))
    except RuntimeError as failure:
        completed = getattr(failure, "completed", None)
        if isinstance(completed, list):
            failure.completed = out + completed
        raise
    return out


def backend_access_batch(backend, requests: BatchRequests) -> BatchResponses:
    """Dispatch a batch to ``backend``, tolerating absent ``access_batch``.

    This is the fallback contract for third-party backends: implementing
    the scalar protocol is enough — callers that batch must route through
    here, and get the default loop when no native fast path exists.
    """
    access_batch = getattr(backend, "access_batch", None)
    if access_batch is None:
        return default_access_batch(backend, requests)
    return access_batch(requests)
