"""Columnar epoch-summarization kernels (numpy).

The epoch engine decides whether a trace window belongs to the current
steady-state phase from a compact :class:`WindowSignature` — R/W mix,
compute density, unique-line pressure and row locality.  The request
and response window structs are already columnar, so the kernels here
vectorize straight over the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.memory.request import CACHELINE_BYTES

__all__ = [
    "ResponseSummary",
    "WindowSignature",
    "signature_of_columns",
    "signature_of_records",
    "signature_of_window",
    "summarize_responses",
]

#: DRAM/PSM row granularity assumed by the locality column (2 KiB).
_ROW_BYTES = 2048


@dataclass(frozen=True)
class WindowSignature:
    """Phase fingerprint of one trace/request window."""

    records: int
    writes: int
    instructions: int
    unique_lines: int
    #: fraction of accesses that stay in the previous access's row —
    #: the row-buffer-hit proxy the phase detector keys on
    row_locality: float

    @property
    def write_fraction(self) -> float:
        return self.writes / self.records if self.records else 0.0

    @property
    def instructions_per_record(self) -> float:
        return self.instructions / self.records if self.records else 0.0

    @property
    def line_pressure(self) -> float:
        """Unique lines touched per record (D$/bank pressure proxy)."""
        return self.unique_lines / self.records if self.records else 0.0

    def close_to(self, other: "WindowSignature", tolerance: float) -> bool:
        """Same phase?  All derived fractions within ``tolerance``."""
        if self.records == 0 or other.records == 0:
            return self.records == other.records
        return (
            abs(self.write_fraction - other.write_fraction) <= tolerance
            and abs(self.line_pressure - other.line_pressure) <= tolerance
            and abs(self.row_locality - other.row_locality) <= tolerance
            and _rel_close(self.instructions_per_record,
                           other.instructions_per_record, tolerance)
        )


@dataclass(frozen=True)
class ResponseSummary:
    """Bulk latency digest of one response window."""

    responses: int
    latency_total: float
    latency_min: float
    latency_max: float
    blocked_total: float

    @property
    def latency_mean(self) -> float:
        return self.latency_total / self.responses if self.responses else 0.0


def _rel_close(a: float, b: float, tolerance: float) -> bool:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale <= tolerance


def signature_of_columns(
    addresses: Sequence[int],
    is_write: Sequence[bool],
    instructions: Sequence[int],
) -> WindowSignature:
    """Summarize parallel columns (the shape ``RequestWindow`` keeps)."""
    count = len(addresses)
    if count == 0:
        return WindowSignature(0, 0, 0, 0, 0.0)
    lines = np.fromiter(
        addresses, dtype=np.int64, count=count
    ) // CACHELINE_BYTES
    rows = lines * CACHELINE_BYTES // _ROW_BYTES
    same_row = int((rows[1:] == rows[:-1]).sum())
    writes = int(np.count_nonzero(
        np.fromiter(is_write, dtype=bool, count=count)))
    instr = int(np.fromiter(
        instructions, dtype=np.int64, count=count).sum())
    unique = int(np.unique(lines).size)
    locality = same_row / (count - 1) if count > 1 else 1.0
    return WindowSignature(
        records=count,
        writes=writes,
        instructions=instr,
        unique_lines=unique,
        row_locality=locality,
    )


def signature_of_records(records: Sequence) -> WindowSignature:
    """Summarize a window of trace records (``TraceRecord``-shaped)."""
    return signature_of_columns(
        [record.address for record in records],
        [record.is_write for record in records],
        [record.instructions for record in records],
    )


def signature_of_window(window) -> WindowSignature:
    """Summarize a :class:`~repro.memory.batch.RequestWindow` in place —
    the struct is already columnar, so no per-record extraction runs."""
    return signature_of_columns(
        window.addresses, window.is_write, [0] * len(window.addresses)
    )


def summarize_responses(responses) -> ResponseSummary:
    """Digest a :class:`~repro.memory.batch.ResponseWindow` (or any
    sequence of responses with ``latency``/``blocked_ns``).

    A ``ResponseWindow`` is consumed columnwise (its ``latencies()``
    helper plus the ``blocked`` column); plain response sequences fall
    back to attribute extraction.
    """
    latencies: Iterable[float]
    if hasattr(responses, "latencies"):
        # The cached column is consumed as-is (ndarray or list); the
        # reductions below never mutate it, so no defensive copy.
        latencies = responses.latencies()
        blocked = responses.blocked
    else:
        latencies = [response.latency for response in responses]
        blocked = [response.blocked_ns for response in responses]
    if not len(latencies):
        return ResponseSummary(0, 0.0, 0.0, 0.0, 0.0)
    column = np.asarray(latencies, dtype=float)
    blocked_column = np.asarray(blocked, dtype=float)
    return ResponseSummary(
        responses=int(column.size),
        latency_total=float(column.sum()),
        latency_min=float(column.min()),
        latency_max=float(column.max()),
        blocked_total=float(blocked_column.sum()),
    )
