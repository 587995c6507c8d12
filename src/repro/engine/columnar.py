"""Columnar epoch-summarization kernels (numpy).

The epoch engine decides whether a trace window belongs to the current
steady-state phase from a compact :class:`WindowSignature` — R/W mix,
compute density, unique-line pressure and row locality — computed by
vectorizing over the window's address, write-flag and instruction
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.memory.request import CACHELINE_BYTES

__all__ = [
    "WindowSignature",
    "signature_of_columns",
    "signature_of_records",
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


def _rel_close(a: float, b: float, tolerance: float) -> bool:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale <= tolerance


def signature_of_columns(
    addresses: Sequence[int],
    is_write: Sequence[bool],
    instructions: Sequence[int],
) -> WindowSignature:
    """Summarize a window given as parallel address/flag/count columns."""
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
