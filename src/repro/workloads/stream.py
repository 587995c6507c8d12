"""STREAM sustainable-bandwidth benchmark (paper Fig. 17, [68]).

The four kernels walk arrays far larger than the cache, element by
element at 8 B granularity:

* ``copy``  — c[i] = a[i]            (1 read, 1 write per element)
* ``scale`` — b[i] = s * c[i]        (1 read, 1 write)
* ``add``   — c[i] = a[i] + b[i]     (2 reads, 1 write)
* ``triad`` — a[i] = b[i] + s * c[i] (2 reads, 1 write)

Add and Triad read two arrays per element, so their traffic is more
read-heavy — the paper's explanation for why they land closer to the
DRAM baseline on OC-PMEM.  Bandwidth is bytes-moved / wall-time as
measured by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.workloads.trace import TraceRecord

__all__ = ["STREAM_KERNELS", "StreamKernel", "stream_kernel"]

_WORD = 8

STREAM_KERNELS = ("copy", "scale", "add", "triad")

#: (source arrays, destination array) per kernel, as array indices 0..2
_KERNEL_SHAPES: dict[str, tuple[tuple[int, ...], int]] = {
    "copy": ((0,), 2),
    "scale": ((2,), 1),
    "add": ((0, 1), 2),
    "triad": ((1, 2), 0),
}

#: Compute instructions per element (loads/stores are separate records).
_KERNEL_FLOPS: dict[str, int] = {"copy": 1, "scale": 2, "add": 2, "triad": 3}


@dataclass(frozen=True)
class StreamKernel:
    """A re-iterable trace for one STREAM kernel over 3 arrays."""

    #: fixed per-element access pattern throughout — stationary by
    #: construction, so the epoch engine may skip its steady state
    #: (``refs`` is the matching trace length hint)
    stationary = True

    kernel: str
    elements: int
    array_bytes: int
    base_address: int = 0

    def __post_init__(self) -> None:
        if self.kernel not in _KERNEL_SHAPES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; expected {STREAM_KERNELS}"
            )
        if self.elements * _WORD > self.array_bytes:
            raise ValueError("array too small for element count")

    def _array_base(self, index: int) -> int:
        return self.base_address + index * self.array_bytes

    def __iter__(self) -> Iterator[TraceRecord]:
        sources, destination = _KERNEL_SHAPES[self.kernel]
        flops = _KERNEL_FLOPS[self.kernel]
        source_bases = [self._array_base(src) for src in sources]
        destination_base = self._array_base(destination)
        new_record = tuple.__new__
        for i in range(self.elements):
            offset = i * _WORD
            for source_base in source_bases:
                yield new_record(TraceRecord, (0, source_base + offset, False))
            yield new_record(
                TraceRecord, (flops, destination_base + offset, True)
            )

    @property
    def bytes_moved(self) -> int:
        """Bytes the kernel nominally transfers (STREAM's own accounting)."""
        sources, _ = _KERNEL_SHAPES[self.kernel]
        return self.elements * _WORD * (len(sources) + 1)

    @property
    def refs(self) -> int:
        sources, _ = _KERNEL_SHAPES[self.kernel]
        return self.elements * (len(sources) + 1)


def stream_kernel(
    kernel: str, elements: int = 32_768, array_bytes: int | None = None
) -> StreamKernel:
    """Build a kernel with arrays sized ~4x past the element span."""
    if array_bytes is None:
        array_bytes = elements * _WORD
    return StreamKernel(kernel=kernel, elements=elements, array_bytes=array_bytes)
