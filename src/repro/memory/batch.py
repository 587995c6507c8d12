"""``default_access_batch``: a request sequence served one ``access`` at a time.

Scalar ``access`` is the one way a request crosses the memory port, on
every backend and through every interposer.  This module keeps the
name a caller with a list of requests reaches for: a plain loop over
``access``, in order, returning the responses.  A failure (an injected
power cut, an out-of-range address) propagates from the element that
raised; the elements before it have already been served, exactly as if
the caller had written the loop.
"""

from __future__ import annotations

from typing import Sequence

from repro.memory.request import MemoryRequest, MemoryResponse

__all__ = ["default_access_batch"]


def default_access_batch(
    backend, requests: Sequence[MemoryRequest]
) -> list[MemoryResponse]:
    """Serve ``requests`` through ``backend.access`` in order."""
    access = backend.access
    return [access(request) for request in requests]
