"""Columnar request windows and the batched ``access_batch`` loop.

Scalar ``access`` is every backend's one exact implementation.  A
request *window* is how the window engine, the litmus ``batch`` lowering
and the interposers move a run of uniform requests through the port in
one call:

* :class:`RequestWindow` — a batch of READ/WRITE requests stored as
  parallel list columns (flags, addresses, issue times) instead of
  request objects.  Interposers route, split and rebase the columns;
  request objects are materialized lazily, one element at a time, when
  the window reaches a backend.
* :func:`default_access_batch` — what ``access_batch`` means on a
  backend: a loop over scalar ``access``.
* :func:`backend_access_batch` — the dispatch helper callers use.
  Interposers define ``access_batch`` to forward a window whole; every
  other backend gets the default loop.

A subwindow shallow-copies its parent's columns, and rebasing replaces
the address column through :meth:`RequestWindow.replace_addresses`
rather than mutating it in place.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.memory.request import (
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
)

__all__ = [
    "BatchRequests",
    "RequestWindow",
    "backend_access_batch",
    "default_access_batch",
]

_READ = MemoryOp.READ
_WRITE = MemoryOp.WRITE


class RequestWindow:
    """A window of uniform READ/WRITE requests as parallel columns.

    Every element shares ``size`` and carries no data payload — the shape
    of the timing fast path.  ``thread_ids`` may be ``None`` when the
    whole window belongs to thread 0.
    """

    __slots__ = ("is_write", "addresses", "times", "thread_ids", "size",
                 "_source")

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

    @classmethod
    def _bare(
        cls,
        is_write,
        addresses,
        times,
        thread_ids,
        size: int,
        source=None,
    ) -> "RequestWindow":
        """Internal constructor: adopt columns as-is (no copies)."""
        window = cls.__new__(cls)
        window.is_write = is_write
        window.addresses = addresses
        window.times = times
        window.thread_ids = thread_ids
        window.size = size
        window._source = source
        return window

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

    def replace_addresses(self, addresses) -> None:
        """Swap in a new address column (rebasing).

        The column object is replaced, never mutated in place, and the
        source requests are dropped: they hold un-rebased addresses.
        """
        self.addresses = addresses
        self._source = None

    def request_at(self, index: int) -> MemoryRequest:
        """Materialize (or recover) the request object for one element.

        Column values are coerced to builtin ``int``/``float``, the
        types a request built on the scalar path carries.
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

        The columns (and any source requests) are shallow slice copies,
        so rebasing or mutating the subwindow never touches this window.
        """
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
        )

    def requests(self) -> list[MemoryRequest]:
        return [self.request_at(i) for i in range(len(self))]


#: What ``access_batch`` accepts: a columnar window or a plain request list.
BatchRequests = Union[RequestWindow, Sequence[MemoryRequest]]


def default_access_batch(backend, requests: BatchRequests) -> list[MemoryResponse]:
    """``access_batch`` on a backend: a loop over scalar ``access``.

    Interposers that cannot forward a window whole (a customized scalar
    ``access``, a request list that is not window-shaped) use it too.

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


def backend_access_batch(
    backend, requests: BatchRequests
) -> list[MemoryResponse]:
    """Dispatch a batch to ``backend``.

    An interposer's ``access_batch`` forwards the window through its
    chain; a backend without one (every memory tier, and any third-party
    implementation of the scalar protocol) gets the default loop.
    """
    access_batch = getattr(backend, "access_batch", None)
    if access_batch is None:
        return default_access_batch(backend, requests)
    return access_batch(requests)
