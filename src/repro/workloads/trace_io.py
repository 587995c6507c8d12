"""Trace persistence: save/load reference streams as compact binary.

Synthetic traces are regenerable from seeds, but artifact workflows want
them on disk: to diff runs across code versions, to hand a colleague the
exact stream behind a number, or to replay a captured trace from another
tool.  Two on-disk layouts share one magic:

* **v1 (row-major)** — ``header | record*`` where each record packs
  (instructions, address, flags) little-endian.  It streams from the
  start only, so campaigns window v2 files and refuse v1 ones.
* **v2 (columnar)** — ``header | instructions u32* | addresses u64* |
  flags u8*``, every column little-endian.  The three column blocks are
  fixed-offset, so a window ``[lo, hi)`` is a constant-time slice; the
  columns are ``memoryview`` casts of one read-only ``mmap`` of the
  file, shared across forked campaign workers (zero copies, zero
  re-parsing per trial).  A big-endian host writes byteswapped columns
  and refuses to map them.

:func:`load_trace` auto-detects the version; :func:`open_trace` returns
a random-access :class:`ColumnarTrace` handle (process-local handles are
cached so every trial in a worker shares one mapping).
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
from array import array
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.workloads.trace import TraceRecord

__all__ = [
    "ColumnarTrace",
    "TraceFormatError",
    "TraceWindow",
    "load_trace",
    "open_trace",
    "save_trace",
    "save_trace_columnar",
    "shared_trace",
    "trace_meta",
    "trace_stats",
]

_MAGIC = b"LPCTRACE"
_VERSION_ROW = 1
_VERSION_COLUMNAR = 2
_HEADER = struct.Struct("<8sHQ")          # magic, version, count
_RECORD = struct.Struct("<IQB")           # instructions, address, flags
_FLAG_WRITE = 0x1
#: ``is_write`` of every flag byte: bit 0, as a ``bool``
_IS_WRITE = tuple(bool(flags & _FLAG_WRITE) for flags in range(256))

_INSTR_BYTES = 4
_ADDR_BYTES = 8
_FLAG_BYTES = 1
#: records per bulk column conversion while iterating a range
_ITER_CHUNK = 4096


class TraceFormatError(ValueError):
    """Not a trace file, or an unsupported version."""


def save_trace(records: Iterable[TraceRecord],
               path: Union[str, Path]) -> int:
    """Write records to ``path`` in the v1 row format; record count."""
    path = Path(path)
    body = bytearray()
    count = 0
    for instructions, address, is_write in records:
        flags = _FLAG_WRITE if is_write else 0
        body += _RECORD.pack(instructions, address, flags)
        count += 1
    with path.open("wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION_ROW, count))
        handle.write(bytes(body))
    return count


def save_trace_columnar(records, path: Union[str, Path]) -> int:
    """Write records to ``path`` in the v2 columnar format; record count.

    ``records`` is any iterable of ``(instructions, address, is_write)``
    records (:class:`TraceRecord` or plain triples); sources that
    expose a ``columns()`` method (:class:`~repro.workloads.trace
    .TraceGenerator` views do) are consumed column-wise without ever
    materialising record objects.
    """
    path = Path(path)
    columns = getattr(records, "columns", None)
    if columns is not None:
        instructions, addresses, writes = columns()
    else:
        instructions, addresses, writes = [], [], []
        for instruction_count, address, is_write in records:
            instructions.append(instruction_count)
            addresses.append(address)
            writes.append(is_write)
    # ``array`` raises OverflowError on a value outside u32 / u64.
    instruction_column = array("I", instructions)
    address_column = array("Q", addresses)
    if sys.byteorder == "big":
        instruction_column.byteswap()
        address_column.byteswap()
    count = len(instruction_column)
    with path.open("wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION_COLUMNAR, count))
        handle.write(instruction_column)
        handle.write(address_column)
        handle.write(bytes(map(bool, writes)))
    return count


def _read_header(path: Path) -> tuple[int, int]:
    with path.open("rb") as handle:
        header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    magic, version, count = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise TraceFormatError(f"{path}: not a trace file")
    if version not in (_VERSION_ROW, _VERSION_COLUMNAR):
        raise TraceFormatError(
            f"{path}: version {version} unsupported "
            f"(want {_VERSION_ROW} or {_VERSION_COLUMNAR})")
    return version, count


class TraceWindow:
    """A ``[lo, hi)`` view into a :class:`ColumnarTrace` — no copies.

    Satisfies the engine layer's trace protocol: re-iterable, with the
    ``stationary`` marker and a ``count`` length hint, so it plugs into
    ``Machine.run`` / ``MultiCoreComplex.run_traces`` exactly like a
    generated stream.
    """

    #: windows of a Table II-calibrated trace keep one locality profile
    #: end to end, so the epoch engine may advance them analytically
    stationary = True

    def __init__(self, trace: "ColumnarTrace", lo: int, hi: int) -> None:
        if not (0 <= lo <= hi <= trace.count):
            raise IndexError(
                f"window [{lo}, {hi}) outside trace of {trace.count} records")
        self._trace = trace
        self.lo = lo
        self.hi = hi

    @property
    def count(self) -> int:
        return self.hi - self.lo

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._trace._iter_range(self.lo, self.hi)

    def columns(self):
        """``(instructions, addresses, flags)`` as ``memoryview`` slices
        of the mapped columns; ``is_write`` is bit 0 of each flag byte."""
        return self._trace._columns_range(self.lo, self.hi)


class ColumnarTrace:
    """Random-access handle over a v2 columnar trace file.

    The three columns are ``memoryview`` casts of one read-only ``mmap``
    of the file (one shared page-cache mapping per process, zero-copy
    windows).  :meth:`close` drops the handle's views, and the mapping
    goes with the last view; reading through a closed handle raises
    ``ValueError``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        version, count = _read_header(self.path)
        if version != _VERSION_COLUMNAR:
            raise TraceFormatError(
                f"{self.path}: v{version} traces have no columnar index; "
                f"re-save with save_trace_columnar()")
        if sys.byteorder != "little":
            raise TraceFormatError(
                f"{self.path}: columns are little-endian and this host is "
                f"{sys.byteorder}-endian")
        self.count = count
        body = count * (_INSTR_BYTES + _ADDR_BYTES + _FLAG_BYTES)
        if self.path.stat().st_size < _HEADER.size + body:
            raise TraceFormatError(f"{self.path}: truncated columns")
        instr_off = _HEADER.size
        addr_off = instr_off + count * _INSTR_BYTES
        flag_off = addr_off + count * _ADDR_BYTES
        with self.path.open("rb") as handle:
            view = memoryview(mmap.mmap(handle.fileno(), 0,
                                        access=mmap.ACCESS_READ))
        self._columns = (
            view[instr_off:addr_off].cast("I"),
            view[addr_off:flag_off].cast("Q"),
            view[flag_off:flag_off + count],
        )

    # -- views -------------------------------------------------------------

    def window(self, lo: int, hi: int) -> TraceWindow:
        """Constant-time ``[lo, hi)`` view (the zero-copy fast path)."""
        return TraceWindow(self, lo, hi)

    def records(self) -> Iterator[TraceRecord]:
        return self._iter_range(0, self.count)

    def _columns_range(self, lo: int, hi: int):
        if self._columns is None:
            raise ValueError(f"{self.path}: trace handle is closed")
        instructions, addresses, flags = self._columns
        return instructions[lo:hi], addresses[lo:hi], flags[lo:hi]

    def _iter_range(self, lo: int, hi: int) -> Iterator[TraceRecord]:
        # Columns convert to Python ints a chunk at a time: one C-level
        # call per column and chunk (indexing a view element by element
        # costs a Python-level call each), in memory bounded by the
        # chunk whatever the range.
        instructions, addresses, flags = self._columns_range(lo, hi)
        make = partial(tuple.__new__, TraceRecord)
        is_write = _IS_WRITE.__getitem__
        for start in range(0, hi - lo, _ITER_CHUNK):
            stop = start + _ITER_CHUNK
            yield from map(make, zip(instructions[start:stop].tolist(),
                                     addresses[start:stop].tolist(),
                                     map(is_write, flags[start:stop])))

    def close(self) -> None:
        """Drop the column views; a shared handle also leaves the
        per-process cache, so the next :func:`open_trace` maps afresh."""
        self._columns = None
        for key, handle in list(_SHARED_HANDLES.items()):
            if handle is self:
                del _SHARED_HANDLES[key]


#: process-local handle cache: every trial in a warm worker shares one
#: mapping of the campaign's trace file instead of reopening it
_SHARED_HANDLES: dict[str, ColumnarTrace] = {}


def open_trace(path: Union[str, Path], shared: bool = True) -> ColumnarTrace:
    """Open a v2 columnar trace for random access.

    ``shared=True`` (the default) caches the handle per process, which
    is what makes trace distribution zero-copy under a warm worker
    pool: the first trial maps the file, every later trial reuses the
    mapping.
    """
    if not shared:
        return ColumnarTrace(path)
    key = str(Path(path).resolve())
    handle = _SHARED_HANDLES.get(key)
    if handle is None:
        handle = ColumnarTrace(path)
        _SHARED_HANDLES[key] = handle
    return handle


def shared_trace(path: Union[str, Path]) -> Optional[ColumnarTrace]:
    """:func:`open_trace`'s process-shared handle of a columnar (v2)
    trace, or None for a row-format (v1) file.

    The handle is also cached under the absolute path as given, so a
    warm worker's later calls neither re-read the header nor resolve
    the path; the handle's :meth:`~ColumnarTrace.close` drops that
    entry too.
    """
    alias = os.path.abspath(path)
    handle = _SHARED_HANDLES.get(alias)
    if handle is None:
        if trace_meta(path)["version"] != _VERSION_COLUMNAR:
            return None
        handle = _SHARED_HANDLES[alias] = open_trace(path)
    return handle


def load_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records back from ``path`` (either version)."""
    path = Path(path)
    version, count = _read_header(path)
    if version == _VERSION_COLUMNAR:
        yield from ColumnarTrace(path).records()
        return
    with path.open("rb") as handle:
        handle.seek(_HEADER.size)
        for index in range(count):
            blob = handle.read(_RECORD.size)
            if len(blob) < _RECORD.size:
                raise TraceFormatError(
                    f"{path}: truncated at record {index}/{count}")
            instructions, address, flags = _RECORD.unpack(blob)
            yield TraceRecord(instructions, address,
                              bool(flags & _FLAG_WRITE))


def trace_meta(path: Union[str, Path]) -> dict[str, int]:
    """Header-only facts about a trace file: format version and count."""
    version, count = _read_header(Path(path))
    return {"version": version, "records": count}


def trace_stats(path: Union[str, Path]) -> dict[str, float]:
    """Quick summary of a trace file (counts, mix, footprint)."""
    reads = writes = instructions = 0
    lines: set[int] = set()
    for instruction_count, address, is_write in load_trace(path):
        if is_write:
            writes += 1
        else:
            reads += 1
        instructions += instruction_count
        lines.add(address // 64)
    total = reads + writes
    return {
        "records": total,
        "reads": reads,
        "writes": writes,
        "write_fraction": writes / total if total else 0.0,
        "instructions": instructions,
        "footprint_bytes": len(lines) * 64,
    }
