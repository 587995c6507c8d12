"""Raw memory device models: PRAM dies, DRAM banks, SRAM buffers.

These model the *media*: service latencies, occupancy windows, and (for
functional users) actual byte storage.  Scheduling policy — row buffers,
early-return writes, ECC reconstruction — lives in the subsystem layers
(:mod:`repro.memory.dram`, :mod:`repro.pmem.dimm`, :mod:`repro.ocpmem.psm`).

Timing constants follow the relations the paper states rather than any
datasheet: bare-metal PRAM reads are ~1.1x DRAM reads, PRAM writes are
~4.1x DRAM writes at the interface and occupy the die longer still because
the phase-change core must cool before the next access (§V-A, Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.request import AddressSpaceError

__all__ = [
    "DRAMDevice",
    "DRAMTiming",
    "DeviceBusyError",
    "PRAMDevice",
    "PRAMTiming",
    "SRAMBuffer",
]


#: storage block size (one cacheline)
_BLOCK_BYTES = 64


class DeviceBusyError(RuntimeError):
    """Raised when a non-blocking access is attempted on an occupied die."""


@dataclass(frozen=True)
class DRAMTiming:
    """DRAM bank timing in nanoseconds (row policy applied by the subsystem).

    Latencies are end-to-end at the subsystem boundary (controller +
    device), which is why a row hit is ~40 ns rather than a bare CAS.
    """

    row_hit_ns: float = 42.0
    row_miss_ns: float = 66.0
    write_ns: float = 38.0
    #: tREFI-style refresh interval and per-refresh stall (64 ms retention
    #: across 8192 rows ~= 7.8 us interval).
    refresh_interval_ns: float = 7_800.0
    refresh_ns: float = 350.0


@dataclass(frozen=True)
class PRAMTiming:
    """Bare-metal PRAM die timing in nanoseconds.

    ``write_service_ns`` is the programming pulse the interface observes;
    ``cooling_ns`` extends the die's occupancy window afterwards (thermal
    core cool-off, paper §V-A [56]).  A read arriving inside the occupancy
    window must either wait (LightPC-B) or be reconstructed from the other
    half + ECC (LightPC).
    """

    #: ~1.1x a DRAM access (paper Table I / Fig. 2b: bare PRAM reads are
    #: within 1.1% of DRAM).
    read_ns: float = 72.0
    #: 64 B (half + co-located parity) at the [61] PRAM's ~40 MB/s program
    #: bandwidth is ~1.6 us; the pulse/cooling split is internal.
    write_service_ns: float = 1_450.0
    cooling_ns: float = 1_100.0
    #: Latency for the interface to hand off an early-return write.
    accept_ns: float = 8.0

    @property
    def write_occupancy_ns(self) -> float:
        return self.write_service_ns + self.cooling_ns


class _Storage:
    """Sparse byte storage shared by the device models.

    Addresses are device-local.  Bytes live in 64 B blocks, each
    allocated on the first write that touches it; a byte never written
    reads as zero.  Only functional users (ECC recovery tests, PMDK
    pools, EP-cut replay) store real bytes; the temporal path never
    touches this, so the block map stays empty and costs nothing.  An
    empty map is how the device models tell that nothing was ever
    written.

    ``version`` counts the calls to :meth:`write` and :meth:`wipe`, so
    a reader that shares the store can tell whether its contents may
    have changed since it last looked without comparing them.

    The Bare-NVDIMM's functional line reads look a block up in
    ``_bytes`` in place rather than copying it out through :meth:`read`.
    """

    __slots__ = ("capacity", "_bytes", "version")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: block index -> the block's bytes
        self._bytes: dict[int, bytearray] = {}
        self.version = 0

    def check(self, address: int, size: int) -> None:
        if address < 0 or address + size > self.capacity:
            raise AddressSpaceError(
                f"access [{address:#x}, {address + size:#x}) outside "
                f"capacity {self.capacity:#x}"
            )

    def write(self, address: int, data: bytes) -> None:
        size = len(data)
        self.check(address, size)
        self.version += 1
        blocks = self._bytes
        block, offset = divmod(address, _BLOCK_BYTES)
        if offset == 0 and size == _BLOCK_BYTES:  # one whole block
            blocks[block] = bytearray(data)
            return
        done = 0
        while done < size:
            chunk = min(_BLOCK_BYTES - offset, size - done)
            stored = blocks.get(block)
            if stored is None:
                stored = blocks[block] = bytearray(_BLOCK_BYTES)
            stored[offset:offset + chunk] = data[done:done + chunk]
            done += chunk
            block += 1
            offset = 0

    def read(self, address: int, size: int) -> bytes:
        self.check(address, size)
        size = max(size, 0)  # a negative size reads nothing
        blocks = self._bytes
        block, offset = divmod(address, _BLOCK_BYTES)
        if offset + size <= _BLOCK_BYTES:
            stored = blocks.get(block)
            if stored is None:
                return bytes(size)
            return bytes(stored[offset:offset + size])
        out = bytearray()
        while size > 0:
            chunk = min(_BLOCK_BYTES - offset, size)
            stored = blocks.get(block)
            if stored is None:
                out += bytes(chunk)
            else:
                out += stored[offset:offset + chunk]
            size -= chunk
            block += 1
            offset = 0
        return bytes(out)

    def wipe(self) -> None:
        self._bytes.clear()
        self.version += 1


class PRAMDevice:
    """One bare-metal crosspoint PRAM die (32 B input granularity).

    Two timing facts drive everything built on top:

    * the die executes one operation at a time — programming *pulses* and
      reads queue on the ``busy_until`` timeline, so consecutive writes
      serialize at the pulse rate (this is the queueing the PSM's
      aggregation and the DIMM firmware's buffering both fight);
    * after a pulse, the written *row* must thermally cool before it can
      be accessed again (paper §V-A [56]) — cooling is per-row, so the
      die can program other rows meanwhile, but a read-after-write to the
      fresh row stalls for the whole service+cooling window unless the
      PSM reconstructs it from the sibling die.

    PRAM is non-volatile: :meth:`power_cycle` preserves contents but
    clears the (volatile) occupancy state.  Wear is counted per write for
    the Start-Gap wear-leveler and endurance analyses.
    """

    ROW_BYTES = 1024  # die-local row granularity for thermal cooling

    __slots__ = ("timing", "device_id", "storage", "busy_until", "_cooling",
                 "read_count", "write_count", "wear", "track_wear")

    def __init__(
        self,
        capacity: int,
        timing: Optional[PRAMTiming] = None,
        device_id: int = 0,
    ) -> None:
        self.timing = timing or PRAMTiming()
        self.device_id = device_id
        self.storage = _Storage(capacity)
        self.busy_until = 0.0
        #: per-row cooling deadlines (sparse; stale entries pruned lazily)
        self._cooling: dict[int, float] = {}
        self.read_count = 0
        self.write_count = 0
        #: per-address (32 B-granular, device-local) write counts; populated
        #: lazily so the temporal fast path can opt out via ``track_wear``.
        self.wear: dict[int, int] = {}
        self.track_wear = False

    @property
    def capacity(self) -> int:
        return self.storage.capacity

    def _row(self, address: int) -> int:
        return address // self.ROW_BYTES

    def cooling_until(self, address: int) -> float:
        return self._cooling.get(self._row(address), 0.0)

    def ready_at(self, address: int) -> float:
        """When an access to ``address`` can start: the later of the die
        going idle and the target row finishing its cooling window."""
        cooling = self._cooling.get(address // self.ROW_BYTES, 0.0)
        busy = self.busy_until
        return cooling if cooling > busy else busy

    def busy_wait(self, time: float, address: Optional[int] = None) -> float:
        """How long an arrival at ``time`` must wait to access the die
        (and, if given, the target row's cooling window)."""
        ready = self.busy_until if address is None else self.ready_at(address)
        return max(0.0, ready - time)

    def read(
        self, time: float, address: int, size: int, *, blocking: bool = True
    ) -> tuple[float, Optional[bytes]]:
        """Serve a read; returns (completion time, data or None).

        ``blocking=False`` raises :class:`DeviceBusyError` if the die or
        the target row is occupied — the PSM uses this to decide to
        reconstruct instead.
        """
        self.storage.check(address, size)
        ready = self.ready_at(address)
        if not blocking and time < ready:
            raise DeviceBusyError(
                f"PRAM die {self.device_id} busy until {self.busy_until}"
            )
        complete = self.occupy_read(time, ready)
        data = self.storage.read(address, size) if self.storage._bytes else None
        return complete, data

    def occupy_read(self, time: float, ready: float) -> float:
        """The timing half of :meth:`read`, for a caller that already holds
        the target's :meth:`ready_at` and knows the address is in range:
        occupy the die for one read and count it; returns its completion."""
        complete = (ready if ready > time else time) + self.timing.read_ns
        self.busy_until = complete
        self.read_count += 1
        return complete

    def peek(self, address: int, size: int) -> bytes:
        """Functional read with no timing side effects (used by ECC checks)."""
        return self.storage.read(address, size)

    def write(
        self,
        time: float,
        address: int,
        data: Optional[bytes] = None,
        size: int = 0,
        *,
        early_return: bool = False,
    ) -> tuple[float, float]:
        """Serve a write; returns (completion time, row-stable time).

        The programming pulse occupies the die for ``write_service_ns``;
        the written row then cools for ``cooling_ns`` more (returned as
        the second element — when the row is fully stable).  Back-to-back
        writes to *different* rows pipeline at the pulse rate.  An
        ``early_return`` write completes at the accept handshake and the
        die keeps working in the background.
        """
        length = len(data) if data is not None else size
        if length <= 0:
            raise ValueError("write needs data or a positive size")
        self.storage.check(address, length)
        stable = self.program(time, address) + self.timing.cooling_ns
        if data is not None:
            self.storage.write(address, data)
        if early_return:
            complete = time + self.timing.accept_ns
        else:
            complete = stable  # synchronous writes wait out stability
        return complete, stable

    def program(self, time: float, address: int) -> float:
        """The timing half of :meth:`write`, for a caller that knows the
        address is in range: one programming pulse issued at ``time``
        occupies the die, starts the row's cooling window and counts the
        write (and its wear); returns the pulse end."""
        start = self.ready_at(address)
        if time > start:
            start = time
        pulse_end = start + self.timing.write_service_ns
        self.busy_until = pulse_end
        if len(self._cooling) > 64:  # prune expired windows
            self._cooling = {
                row: t for row, t in self._cooling.items() if t > time
            }
        self._cooling[address // self.ROW_BYTES] = (
            pulse_end + self.timing.cooling_ns)
        self.write_count += 1
        if self.track_wear:
            block = address - (address % 32)
            self.wear[block] = self.wear.get(block, 0) + 1
        return pulse_end

    def drain(self, time: float) -> float:
        """Time at which all in-flight programming pulses have finished
        (data is durable after the pulse; cooling only gates re-access)."""
        return max(time, self.busy_until)

    def power_cycle(self) -> None:
        """Power loss + restore: contents persist, occupancy state does not."""
        self.busy_until = 0.0
        self._cooling.clear()

    def rewind(self) -> None:
        """Return to the state the constructor left, in place: stored
        bytes wiped (the store object stays, so a die sharing it still
        does; the wipe counts in its ``version``), the die idle, counts
        and wear zeroed, wear tracking off."""
        self.storage.wipe()
        self.power_cycle()
        self.read_count = 0
        self.write_count = 0
        self.wear.clear()
        self.track_wear = False

    def max_wear(self) -> int:
        return max(self.wear.values(), default=0)


class DRAMDevice:
    """One DRAM bank's media (8 B input granularity).

    Row-buffer policy lives in :class:`repro.memory.dram.DRAMSubsystem`;
    this model serves pre-classified row-hit/row-miss accesses and models
    volatility: :meth:`power_cycle` destroys contents.
    """

    def __init__(
        self,
        capacity: int,
        timing: Optional[DRAMTiming] = None,
        device_id: int = 0,
    ) -> None:
        self.timing = timing or DRAMTiming()
        self.device_id = device_id
        self.storage = _Storage(capacity)
        self.busy_until = 0.0
        self.read_count = 0
        self.write_count = 0

    @property
    def capacity(self) -> int:
        return self.storage.capacity

    def access(
        self,
        time: float,
        address: int,
        size: int,
        *,
        is_write: bool,
        row_hit: bool,
        data: Optional[bytes] = None,
    ) -> tuple[float, Optional[bytes]]:
        """Serve a read/write beat; returns (completion time, data or None)."""
        self.storage.check(address, size)
        start = max(time, self.busy_until)
        if is_write:
            latency = self.timing.write_ns
            if not row_hit:
                latency += self.timing.row_miss_ns - self.timing.row_hit_ns
            self.write_count += 1
        else:
            latency = self.timing.row_hit_ns if row_hit else self.timing.row_miss_ns
            self.read_count += 1
        complete = start + latency
        self.busy_until = complete
        out: Optional[bytes] = None
        if is_write:
            if data is not None:
                self.storage.write(address, data)
        elif self.storage._bytes:
            out = self.storage.read(address, size)
        return complete, out

    def refresh(self, time: float) -> float:
        """Stall the bank for one refresh burst; returns completion time."""
        start = max(time, self.busy_until)
        self.busy_until = start + self.timing.refresh_ns
        return self.busy_until

    def power_cycle(self) -> None:
        """DRAM is volatile: contents are lost across a power cycle."""
        self.storage.wipe()
        self.busy_until = 0.0


class SRAMBuffer:
    """Small fixed-latency SRAM used inside the PMEM DIMM (§II-A).

    Implements an LRU-evicting cache of 256 B frames keyed by frame base
    address.  Purely a hit/miss + latency model with optional byte contents.
    """

    def __init__(
        self, frames: int, frame_bytes: int = 256, access_ns: float = 5.0
    ) -> None:
        if frames <= 0:
            raise ValueError("SRAM needs at least one frame")
        self.frames = frames
        self.frame_bytes = frame_bytes
        self.access_ns = access_ns
        self._lru: dict[int, Optional[bytearray]] = {}
        self.hits = 0
        self.misses = 0

    def frame_of(self, address: int) -> int:
        return address - (address % self.frame_bytes)

    def lookup(self, address: int) -> bool:
        """Check residency and update LRU order."""
        frame = self.frame_of(address)
        if frame in self._lru:
            self._lru[frame] = self._lru.pop(frame)  # move to MRU end
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, address: int) -> Optional[int]:
        """Insert the frame containing ``address``; returns evicted frame."""
        frame = self.frame_of(address)
        evicted: Optional[int] = None
        if frame not in self._lru and len(self._lru) >= self.frames:
            evicted = next(iter(self._lru))
            del self._lru[evicted]
        self._lru[frame] = self._lru.pop(frame, None)
        return evicted

    def invalidate_all(self) -> None:
        self._lru.clear()

    @property
    def occupancy(self) -> int:
        return len(self._lru)
