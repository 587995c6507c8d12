"""Reference PSM service path: the per-call formulation.

The PSM's service path translates each address through the Start-Gap
randomizer, locates the line's die slots, reads every die's ready time
and moves functional bytes, all on every access.  The fast path in
:mod:`repro.ocpmem.psm` and the modules under it memoizes the Feistel
walk per randomize unit, computes slots by arithmetic, reads each die's
ready time once and stores bytes in 64 B blocks.  This module keeps a
verbatim copy of the per-call formulation of every class and function
that changed for it (the PSM, Start-Gap and its randomizer, the
Bare-NVDIMM, the PRAM die and its byte storage, and the XOR codec), so
``tests/test_psm_oracle.py`` can demand the same responses, counters,
stats, wear registers, die state, stored bytes and exceptions from both.

Everything that did not change (``PSMConfig``, the row buffers, the
stats types, the request types, the symbol ECC) is imported, and so is
``WearRegisters``: its fields are as they were, it only gained the
packing the EP-cut blob uses, and sharing the class lets register files
compare equal across the two sides.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.memory.device import DeviceBusyError, PRAMTiming
from repro.memory.port import PowerPart
from repro.memory.request import (
    AddressSpaceError,
    CACHELINE_BYTES,
    MemoryOp,
    MemoryRequest,
    MemoryResponse,
    PRAM_DEVICE_BYTES,
)
from repro.memory.rowbuffer import WriteAggregationBuffer
from repro.ocpmem.ecc import EccResult, SymbolECC, UncorrectableError
from repro.ocpmem.nvdimm import DieSlot, Layout
from repro.ocpmem.psm import MachineCheckError, PSMConfig
from repro.ocpmem.wear import MoveFn, WearRegisters
from repro.sim.stats import LatencyStats, RatioStat, StatsRegistry

__all__ = ["BareNVDIMM", "FeistelPermutation", "PRAMDevice", "PSM",
           "StartGap", "XORCodec", "xor_bytes"]

_DIES = 8
_HALF = PRAM_DEVICE_BYTES          # 32 B data half per die
_SLOT_BYTES = _HALF * 2            # half + co-located parity


# -- repro.ocpmem.ecc ----------------------------------------


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


# -- repro.ocpmem.ecc ----------------------------------------


class XORCodec:
    """Half-and-half XOR parity over a dual-channel group (XCC).

    All operations are stateless byte math; the PSM decides *when* to call
    :meth:`reconstruct` (die busy) vs :meth:`verify` (die readable).
    """

    def __init__(self, half_bytes: int = 32) -> None:
        if half_bytes <= 0:
            raise ValueError("half size must be positive")
        self.half_bytes = half_bytes
        self.encodes = 0
        self.reconstructions = 0

    def encode(self, half0: bytes, half1: bytes) -> bytes:
        """Parity for a cacheline's two halves (one combinational cycle)."""
        self._check(half0)
        self._check(half1)
        self.encodes += 1
        return xor_bytes(half0, half1)

    def reconstruct(self, surviving: bytes, parity: bytes) -> bytes:
        """Regenerate the missing half from the surviving half + parity."""
        self._check(surviving)
        self._check(parity)
        self.reconstructions += 1
        return xor_bytes(surviving, parity)

    def verify(self, half0: bytes, half1: bytes, parity: bytes) -> bool:
        """Parity check; False means at least one half is corrupt."""
        return xor_bytes(half0, half1) == parity

    def correct(
        self,
        half0: Optional[bytes],
        half1: Optional[bytes],
        parity: Optional[bytes],
    ) -> EccResult:
        """Best-effort recovery given at most one missing component.

        Raises :class:`UncorrectableError` when two or more components are
        unavailable — XCC can regenerate exactly one missing half.
        """
        present = [x is not None for x in (half0, half1, parity)]
        if present.count(False) > 1:
            raise UncorrectableError("XCC cannot recover two missing components")
        if half0 is None:
            assert half1 is not None and parity is not None
            return EccResult(
                self.reconstruct(half1, parity) + half1, reconstructed=True
            )
        if half1 is None:
            assert parity is not None
            return EccResult(
                half0 + self.reconstruct(half0, parity), reconstructed=True
            )
        return EccResult(half0 + half1)

    def _check(self, half: bytes) -> None:
        if len(half) != self.half_bytes:
            raise ValueError(
                f"expected {self.half_bytes} B half, got {len(half)} B"
            )


# -- repro.memory.device ----------------------------------------


class _Storage:
    """Sparse byte storage shared by the device models.

    Addresses are device-local.  Only functional users (ECC recovery tests,
    PMDK pools, EP-cut replay) store real bytes; the temporal path never
    touches this, so the dict stays empty and costs nothing.
    """

    __slots__ = ("capacity", "_bytes")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._bytes: dict[int, int] = {}

    def check(self, address: int, size: int) -> None:
        if address < 0 or address + size > self.capacity:
            raise AddressSpaceError(
                f"access [{address:#x}, {address + size:#x}) outside "
                f"capacity {self.capacity:#x}"
            )

    def write(self, address: int, data: bytes) -> None:
        self.check(address, len(data))
        for i, b in enumerate(data):
            self._bytes[address + i] = b

    def read(self, address: int, size: int) -> bytes:
        self.check(address, size)
        return bytes(self._bytes.get(address + i, 0) for i in range(size))

    def wipe(self) -> None:
        self._bytes.clear()


# -- repro.memory.device ----------------------------------------


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

    def is_busy(self, time: float, address: Optional[int] = None) -> bool:
        """Is the die (or, with ``address``, the target row) unavailable?"""
        if time < self.busy_until:
            return True
        return address is not None and time < self.cooling_until(address)

    def busy_wait(self, time: float, address: Optional[int] = None) -> float:
        """How long an arrival at ``time`` must wait to access the die
        (and, if given, the target row's cooling window)."""
        wait_until = self.busy_until
        if address is not None:
            wait_until = max(wait_until, self.cooling_until(address))
        return max(0.0, wait_until - time)

    def read(
        self, time: float, address: int, size: int, *, blocking: bool = True
    ) -> tuple[float, Optional[bytes]]:
        """Serve a read; returns (completion time, data or None).

        ``blocking=False`` raises :class:`DeviceBusyError` if the die or
        the target row is occupied — the PSM uses this to decide to
        reconstruct instead.
        """
        self.storage.check(address, size)
        if not blocking and self.is_busy(time, address):
            raise DeviceBusyError(
                f"PRAM die {self.device_id} busy until {self.busy_until}"
            )
        start = max(time, self.busy_until, self.cooling_until(address))
        complete = start + self.timing.read_ns
        self.busy_until = complete
        self.read_count += 1
        data = self.storage.read(address, size) if self.storage._bytes else None
        return complete, data

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
        start = max(time, self.busy_until, self.cooling_until(address))
        pulse_end = start + self.timing.write_service_ns
        stable = pulse_end + self.timing.cooling_ns
        self.busy_until = pulse_end
        self._set_cooling(address, stable, time)
        self.write_count += 1
        if self.track_wear:
            block = address - (address % 32)
            self.wear[block] = self.wear.get(block, 0) + 1
        if data is not None:
            self.storage.write(address, data)
        if early_return:
            complete = time + self.timing.accept_ns
        else:
            complete = stable  # synchronous writes wait out stability
        return complete, stable

    def _set_cooling(self, address: int, until: float, now: float) -> None:
        if len(self._cooling) > 64:  # prune expired windows
            self._cooling = {
                row: t for row, t in self._cooling.items() if t > now
            }
        self._cooling[self._row(address)] = until

    def drain(self, time: float) -> float:
        """Time at which all in-flight programming pulses have finished
        (data is durable after the pulse; cooling only gates re-access)."""
        return max(time, self.busy_until)

    def power_cycle(self) -> None:
        """Power loss + restore: contents persist, occupancy state does not."""
        self.busy_until = 0.0
        self._cooling.clear()

    def max_wear(self) -> int:
        return max(self.wear.values(), default=0)


# -- repro.ocpmem.nvdimm ----------------------------------------


class BareNVDIMM:
    """One rank of eight bare PRAM dies with a selectable channel layout."""

    def __init__(
        self,
        lines: int,
        layout: Layout = "dual_channel",
        timing: Optional[PRAMTiming] = None,
        dimm_id: int = 0,
    ) -> None:
        if lines <= 0:
            raise ValueError("need at least one cacheline of capacity")
        if layout not in ("dual_channel", "dram_like"):
            raise ValueError(f"unknown layout {layout!r}")
        self.lines = lines
        self.layout = layout
        self.dimm_id = dimm_id
        self.groups = 4 if layout == "dual_channel" else 1
        self.dies_per_group = _DIES // self.groups
        slots_per_die = -(-lines // self.groups)  # ceil
        die_capacity = slots_per_die * _SLOT_BYTES
        self.dies = [
            PRAMDevice(die_capacity, timing, device_id=dimm_id * _DIES + i)
            for i in range(_DIES)
        ]
        #: (die, address) slots whose media ECC reports containment —
        #: injected by :meth:`corrupt_slot`, cleared by a fresh store.
        self._corrupted: set[tuple[int, int]] = set()

    # -- geometry ------------------------------------------------------------

    def group_of(self, line: int) -> int:
        self._check_line(line)
        return line % self.groups

    def slots_of(self, line: int) -> list[DieSlot]:
        """The die slots a cacheline occupies under the active layout.

        dual_channel: two dies of one group, each holding 32 B.
        dram_like: all eight dies, each holding 8 B of the line but
        enabled (and programmed) at their full 32 B granularity.
        """
        self._check_line(line)
        group = line % self.groups
        slot_index = line // self.groups
        base = group * self.dies_per_group
        return [
            DieSlot(die=base + i, address=slot_index * _SLOT_BYTES)
            for i in range(self.dies_per_group)
        ]

    def group_dies(self, group: int) -> list[PRAMDevice]:
        if not 0 <= group < self.groups:
            raise ValueError(f"group {group} outside [0, {self.groups})")
        base = group * self.dies_per_group
        return self.dies[base:base + self.dies_per_group]

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.lines:
            raise ValueError(f"line {line} outside [0, {self.lines})")

    # -- functional storage ----------------------------------------------------
    #
    # Functional contents only exist for the dual-channel layout (the
    # shipped design); the strawman layout is timing-only.

    def store_line(self, line: int, data: bytes) -> None:
        """Store a 64 B line's halves + co-located parity, no timing."""
        if len(data) != CACHELINE_BYTES:
            raise ValueError("store_line expects a full cacheline")
        if self.layout != "dual_channel":
            raise ValueError("functional storage is dual_channel-only")
        half0, half1 = data[:_HALF], data[_HALF:]
        parity = bytes(a ^ b for a, b in zip(half0, half1))
        slots = self.slots_of(line)
        self.dies[slots[0].die].storage.write(slots[0].address, half0 + parity)
        self.dies[slots[1].die].storage.write(slots[1].address, half1 + parity)
        self._corrupted.discard((slots[0].die, slots[0].address))
        self._corrupted.discard((slots[1].die, slots[1].address))

    def load_slot(self, line: int, which: int) -> tuple[bytes, bytes]:
        """(half, parity) stored on one die of the line's group."""
        if self.layout != "dual_channel":
            raise ValueError("functional storage is dual_channel-only")
        slot = self.slots_of(line)[which]
        raw = self.dies[slot.die].peek(slot.address, _SLOT_BYTES)
        return raw[:_HALF], raw[_HALF:]

    def corrupt_slot(self, line: int, which: int) -> None:
        """Fault injection: flip bits in one die's copy of a line half.

        The die's internal media ECC is modelled as detect-only for faults
        of this size, so subsequent reads of the slot carry the error
        containment bit (paper §V-A, Fig. 12b).
        """
        slot = self.slots_of(line)[which]
        raw = bytearray(self.dies[slot.die].peek(slot.address, _SLOT_BYTES))
        raw[0] ^= 0xFF
        self.dies[slot.die].storage.write(slot.address, bytes(raw))
        self._corrupted.add((slot.die, slot.address))

    def is_corrupt(self, line: int, which: int) -> bool:
        slot = self.slots_of(line)[which]
        return (slot.die, slot.address) in self._corrupted

    def wipe(self) -> None:
        """Reset-port support: clear all media contents and fault state."""
        for die in self.dies:
            die.storage.wipe()
            die.power_cycle()
        self._corrupted.clear()

    # -- timing helpers ---------------------------------------------------------

    def drain(self, time: float) -> float:
        return max([time] + [die.busy_until for die in self.dies])

    def power_cycle(self) -> None:
        for die in self.dies:
            die.power_cycle()

    def counters(self) -> dict[str, int]:
        return {
            "reads": sum(d.read_count for d in self.dies),
            "writes": sum(d.write_count for d in self.dies),
        }

    def group_counters(self, group: int) -> dict[str, int]:
        """Per-CE-group op counts (intra-DIMM parallelism observability)."""
        dies = self.group_dies(group)
        return {
            "reads": sum(d.read_count for d in dies),
            "writes": sum(d.write_count for d in dies),
        }

    def register_stats(self, stats) -> None:
        """Publish DIMM totals and per-group counters under this scope."""
        stats.register("counters", self.counters)
        for group in range(self.groups):
            stats.register(
                f"group{group}", lambda g=group: self.group_counters(g)
            )


# -- repro.ocpmem.wear ----------------------------------------


class FeistelPermutation:
    """Seeded bijection on [0, n) via a 4-round Feistel network.

    The network permutes a 2w-bit domain (the smallest even-bit-width
    power of two >= n); cycle-walking re-applies it until the value lands
    back inside [0, n), which preserves bijectivity on the subdomain.
    """

    ROUNDS = 4

    def __init__(self, n: int, seed: int) -> None:
        if n <= 0:
            raise ValueError("domain size must be positive")
        self.n = n
        self.seed = seed
        bits = max(2, (n - 1).bit_length())
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._half_mask = (1 << self._half_bits) - 1
        self._domain = 1 << bits
        self._keys = [
            (seed * 0x9E3779B1 + r * 0x85EBCA77) & 0xFFFFFFFF
            for r in range(self.ROUNDS)
        ]

    def _round(self, value: int, key: int) -> int:
        value = (value ^ key) & 0xFFFFFFFF
        value = (value * 0xC2B2AE35 + 0x165667B1) & 0xFFFFFFFF
        value ^= value >> 13
        return value & self._half_mask

    def _permute_once(self, x: int) -> int:
        left = x >> self._half_bits
        right = x & self._half_mask
        for key in self._keys:
            left, right = right, left ^ self._round(right, key)
        return (left << self._half_bits) | right

    def apply(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise ValueError(f"{x} outside domain [0, {self.n})")
        if self.n == 1:
            return 0
        y = self._permute_once(x)
        while y >= self.n:  # cycle-walk back into the subdomain
            y = self._permute_once(y)
        return y


# -- repro.ocpmem.wear ----------------------------------------


class StartGap:
    """Start-Gap wear-leveler over ``lines`` logical 64 B lines.

    Physical space is ``lines + 1`` (one spare).  ``move_fn(src, dst)`` is
    invoked for every gap movement so the owner (the PSM) can physically
    relocate data; it may be None for timing-only use.
    """

    #: Latency of one gap movement: one line read + one line write at media
    #: speed, performed in the background but charged to bookkeeping.
    GAP_MOVE_NS = 420.0

    def __init__(
        self,
        lines: int,
        threshold: int = 100,
        seed: int = 0x5EED,
        move_fn: Optional[MoveFn] = None,
        rotate_seed_every: Optional[int] = None,
        track_wear: bool = False,
        randomize_unit: int = 1,
    ) -> None:
        """``randomize_unit`` sets the randomizer's granularity in lines.

        The PSM uses 64 (one 4 KB page): pages scatter across the physical
        space for wear leveling while intra-page adjacency — what the
        per-die row buffers and the channel interleaving exploit — is
        preserved.  Start-Gap's per-line shifting still applies on top.
        """
        if lines <= 0:
            raise ValueError("need at least one line")
        if threshold <= 0:
            raise ValueError("gap-movement threshold must be positive")
        if randomize_unit <= 0:
            raise ValueError("randomize_unit must be positive")
        self.lines = lines
        self.threshold = threshold
        self.move_fn = move_fn
        self.rotate_seed_every = rotate_seed_every
        self.randomize_unit = randomize_unit
        units = max(1, lines // randomize_unit)
        self._units = units
        self._randomizer = FeistelPermutation(units, seed)
        self.start = 0
        self.gap = lines  # physical line `lines` is the initial spare
        self.write_count = 0
        self.gap_cycles = 0
        self.gap_moves = 0
        self.seed_rotations = 0
        self.track_wear = track_wear
        self.physical_writes: dict[int, int] = {}

    # -- mapping ------------------------------------------------------------

    def map(self, logical_line: int) -> int:
        """Logical line -> physical line under randomizer + start/gap."""
        if not 0 <= logical_line < self.lines:
            raise ValueError(
                f"logical line {logical_line} outside [0, {self.lines})"
            )
        randomized = self._randomize_line(logical_line)
        physical = (randomized + self.start) % self.lines
        if physical >= self.gap:
            physical += 1
        return physical

    def _randomize_line(self, line: int) -> int:
        if self.randomize_unit == 1:
            return self._randomizer.apply(line) if self.lines > 1 else 0
        unit, offset = divmod(line, self.randomize_unit)
        if unit >= self._units:
            # The partial tail unit past the permutation domain stays put.
            return line
        return self._randomizer.apply(unit) * self.randomize_unit + offset

    # -- write bookkeeping ----------------------------------------------------

    def record_write(self, logical_line: int) -> float:
        """Count a write; returns background overhead ns (0 or one gap move)."""
        if self.track_wear:
            phys = self.map(logical_line)
            self.physical_writes[phys] = self.physical_writes.get(phys, 0) + 1
        self.write_count += 1
        overhead = 0.0
        if self.write_count % self.threshold == 0:
            overhead += self._move_gap()
        if (
            self.rotate_seed_every is not None
            and self.gap_cycles
            and self.gap_cycles % self.rotate_seed_every == 0
            and self.gap == self.lines
            and self.gap_moves  # rotate exactly once per qualifying wrap
        ):
            overhead += self._maybe_rotate_seed()
        return overhead

    def _move_gap(self) -> float:
        """One Start-Gap step: the line above the gap slides into it.

        "Above" is circular over the N+1 physical slots: when the gap sits
        at slot 0 the next movement copies the top slot into it, the spare
        returns to the top, and Start advances — completing one rotation
        of the whole logical-to-physical mapping.
        """
        if self.gap == 0:
            if self.move_fn is not None:
                self.move_fn(self.lines, 0)
            self.gap = self.lines
            self.start = (self.start + 1) % self.lines
            self.gap_cycles += 1
            self.gap_moves += 1
            return self.GAP_MOVE_NS
        src = self.gap - 1
        if self.move_fn is not None:
            self.move_fn(src, self.gap)
        self.gap -= 1
        self.gap_moves += 1
        return self.GAP_MOVE_NS

    _rotated_at_cycle = -1

    def _maybe_rotate_seed(self) -> float:
        if self._rotated_at_cycle == self.gap_cycles:
            return 0.0
        self._rotated_at_cycle = self.gap_cycles
        return self.rotate_seed()

    def rotate_seed(self) -> float:
        """Future-work extension: re-seed the static randomizer.

        A real implementation would migrate data lazily alongside gap
        movements; here the migration is modelled as a bulk cost and, when
        a ``move_fn`` is present, performed eagerly via a cycle decomposition
        of old->new physical mapping so functional contents stay correct.
        """
        old_map = {l: self.map(l) for l in range(self.lines)} if self.move_fn else None
        new_seed = (self._randomizer.seed * 0x9E3779B1 + 0xABCD) & 0xFFFFFFFF
        self._randomizer = FeistelPermutation(self._units, new_seed)
        self.seed_rotations += 1
        if old_map is not None and self.move_fn is not None:
            self._migrate(old_map)
        return self.GAP_MOVE_NS * self.lines  # bulk migration cost

    def _migrate(self, old_map: dict[int, int]) -> None:
        """Physically permute data from the old mapping to the new one.

        ``transfer`` (old physical -> new physical) is a bijection over the
        mapped slots; it is walked as disjoint cycles using the gap's spare
        slot as scratch, so every line's bytes land where the new mapping
        expects them.
        """
        assert self.move_fn is not None
        new_map = {l: self.map(l) for l in range(self.lines)}
        transfer = {old_map[l]: new_map[l] for l in range(self.lines)}
        inverse = {dst: src for src, dst in transfer.items()}
        scratch = self.gap  # the spare slot is mapped by no logical line
        done: set[int] = set()
        for first in list(transfer):
            if first in done or transfer[first] == first:
                done.add(first)
                continue
            self.move_fn(first, scratch)
            done.add(first)
            hole = first
            while True:
                src = inverse[hole]
                if src == first:
                    self.move_fn(scratch, hole)
                    break
                self.move_fn(src, hole)
                done.add(src)
                hole = src

    # -- register persistence (EP-cut) ---------------------------------------

    def registers(self) -> WearRegisters:
        return WearRegisters(
            start=self.start,
            gap=self.gap,
            write_count=self.write_count,
            seed=self._randomizer.seed,
            gap_cycles=self.gap_cycles,
        )

    def restore_registers(self, regs: WearRegisters) -> None:
        self.start = regs.start
        self.gap = regs.gap
        self.write_count = regs.write_count
        self.gap_cycles = regs.gap_cycles
        self._randomizer = FeistelPermutation(self._units, regs.seed)

    # -- endurance analysis -----------------------------------------------------

    def wear_imbalance(self) -> float:
        """max/mean physical write count (1.0 = perfectly level)."""
        if not self.physical_writes:
            return 0.0
        counts = self.physical_writes.values()
        mean = sum(counts) / self.lines  # spread over all lines incl. cold
        return max(counts) / mean if mean else 0.0


# -- repro.ocpmem.psm ----------------------------------------


class PSM:
    """The persistent support module fronting the Bare-NVDIMM channels."""

    def __init__(self, config: Optional[PSMConfig] = None,
                 functional: bool = False) -> None:
        self.config = config or PSMConfig()
        self.functional = functional
        cfg = self.config
        self.nvdimms = [
            BareNVDIMM(cfg.lines_per_dimm, cfg.layout,
                       timing=cfg.pram_timing, dimm_id=i)
            for i in range(cfg.dimms)
        ]
        move_fn = self._move_line if functional else None
        self.wear = StartGap(
            lines=cfg.total_lines - 1,  # one physical spare line
            threshold=cfg.wear_threshold,
            seed=cfg.wear_seed,
            move_fn=move_fn,
            rotate_seed_every=cfg.rotate_seed_every,
            randomize_unit=cfg.wear_randomize_unit,
        )
        self.xcc = XORCodec(half_bytes=_HALF)
        self.symbol_ecc = SymbolECC() if cfg.symbol_ecc else None
        self._buffers: dict[tuple[int, int], WriteAggregationBuffer] = {}
        #: youngest data for lines still sitting in a row buffer
        self._pending: dict[int, bytes] = {}
        #: per-DIMM synchronous (DDR) channel occupancy
        self._channel_busy: dict[int, float] = {}
        self.read_latency = LatencyStats("psm.read")
        self.write_latency = LatencyStats("psm.write")
        self.buffer_hits = RatioStat()
        self.reconstructions = 0
        self.read_blocked_ns = 0.0
        self.write_stall_ns = 0.0
        self.background_ns = 0.0
        self.media_line_writes = 0
        self.mce_count = 0
        self.is_volatile = False

    # -- geometry -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Host-visible capacity in bytes (logical lines)."""
        return self.wear.lines * CACHELINE_BYTES

    def _route(self, physical_line: int) -> tuple[BareNVDIMM, int]:
        dimm = self.nvdimms[physical_line % len(self.nvdimms)]
        return dimm, physical_line // len(self.nvdimms)

    def _translate(self, address: int) -> tuple[int, BareNVDIMM, int]:
        logical_line = address // CACHELINE_BYTES
        if logical_line >= self.wear.lines:
            raise AddressSpaceError(
                f"address {address:#x} outside OC-PMEM capacity "
                f"{self.capacity:#x}"
            )
        physical_line = self.wear.map(logical_line)
        dimm, local_line = self._route(physical_line)
        return physical_line, dimm, local_line

    def _buffer(self, dimm_id: int, group: int) -> WriteAggregationBuffer:
        key = (dimm_id, group)
        buf = self._buffers.get(key)
        if buf is None:
            buf = WriteAggregationBuffer(
                page_bytes=4096, beat_bytes=CACHELINE_BYTES,
                access_ns=self.config.buffer_ns,
            )
            self._buffers[key] = buf
        return buf

    def _move_line(self, src_physical: int, dst_physical: int) -> None:
        """Start-Gap data movement (functional mode only)."""
        src_dimm, src_line = self._route(src_physical)
        dst_dimm, dst_line = self._route(dst_physical)
        half0, parity = src_dimm.load_slot(src_line, 0)
        half1, _ = src_dimm.load_slot(src_line, 1)
        dst_dimm.store_line(dst_line, half0 + half1)

    # -- boundary ---------------------------------------------------------------

    def access(self, request: MemoryRequest) -> MemoryResponse:
        if request.op is MemoryOp.FLUSH:
            return MemoryResponse(request, complete_time=self.flush(request.time))
        if request.op is MemoryOp.RESET:
            return MemoryResponse(request, complete_time=self.reset(request.time))
        if request.size > CACHELINE_BYTES:
            raise ValueError("PSM boundary is cacheline-granular")
        if request.is_write:
            return self._serve_write(request)
        return self._serve_read(request)

    # -- write path --------------------------------------------------------------

    def _serve_write(self, request: MemoryRequest) -> MemoryResponse:
        cfg = self.config
        t = request.time + cfg.port_ns
        physical_line, dimm, local_line = self._translate(request.address)
        group = dimm.group_of(local_line)
        logical_line = request.address // CACHELINE_BYTES
        self.background_ns += self.wear.record_write(logical_line)

        # Backpressure: a DIMM whose channel/media backlog is too deep
        # stalls the port until programming catches up.
        backlog = max(
            self._group_backlog(dimm, group, t),
            self._channel_wait(dimm, t),
        )
        stall = max(0.0, backlog - cfg.write_backlog_limit_ns)
        t += stall
        self.write_stall_ns += stall

        if cfg.write_aggregation:
            # The row buffer absorbs the write at BRAM speed; the channel
            # is held only for the handshake, programming happens in the
            # background (early return).
            buf = self._buffer(dimm.dimm_id, group)
            local_address = local_line * CACHELINE_BYTES
            absorbed, to_drain = buf.write(t, local_address)
            if request.data is not None:
                self._pending[physical_line] = request.data
            if to_drain is not None:
                page, beats = to_drain
                self._drain_page(t, dimm, group, page, beats)
            complete = t + cfg.buffer_ns + cfg.port_ns
            self.buffer_hits.record(absorbed)
        else:
            # Conventional synchronous path: the write occupies the DIMM's
            # DDR channel.  With early return the channel frees after the
            # transfer+accept handshake; without it (LightPC-B) the channel
            # is held until the PRAM core finishes programming *and*
            # cooling — the head-of-line blocking the PSM exists to remove.
            start = max(t, self._channel_busy.get(dimm.dimm_id, 0.0))
            accept, pulse_end = self._program_line(
                start, dimm, local_line, physical_line,
                data=request.data, staggered=False,
            )
            if cfg.early_return_writes:
                self._channel_busy[dimm.dimm_id] = accept
            else:
                # Synchronous DDR: the channel is held until the DIMM
                # acks — after the programming pulse makes data durable.
                self._channel_busy[dimm.dimm_id] = pulse_end
            # The controller's write queue posts the write; the
            # requester does not wait for the media.
            complete = accept + cfg.port_ns
        self.write_latency.record(complete - request.time)
        return MemoryResponse(
            request,
            complete_time=complete,
            occupied_until=dimm.drain(complete),
            blocked_ns=stall,
        )

    def _channel_wait(self, dimm: BareNVDIMM, time: float) -> float:
        return max(0.0, self._channel_busy.get(dimm.dimm_id, 0.0) - time)

    def _drain_page(
        self,
        time: float,
        dimm: BareNVDIMM,
        group: int,
        page: int,
        beats: set[int],
    ) -> None:
        """Program a closed page's dirty lines, staggered across the dies."""
        lines_per_page = 4096 // CACHELINE_BYTES
        t = time
        for beat in sorted(beats):
            local_line = page * lines_per_page + beat
            if local_line >= dimm.lines:
                continue
            physical_line = self._physical_of_local(dimm, local_line)
            data = self._pending.pop(physical_line, None)
            _, t = self._program_line(
                t, dimm, local_line, physical_line, data=data, staggered=True,
            )

    def _physical_of_local(self, dimm: BareNVDIMM, local_line: int) -> int:
        return local_line * len(self.nvdimms) + dimm.dimm_id

    def _program_line(
        self,
        time: float,
        dimm: BareNVDIMM,
        local_line: int,
        physical_line: int,
        data: Optional[bytes],
        staggered: bool,
    ) -> tuple[float, float]:
        """Program one cacheline onto its group's dies.

        Returns ``(accept_time, media_complete_time)``.  ``staggered``
        pipelines the per-die operations so at most one die of the group
        is programming at a time (LightPC row-buffer drains); the parallel
        variant is the conventional-controller behaviour of LightPC-B.
        """
        slots = dimm.slots_of(local_line)
        self.media_line_writes += 1
        if data is not None and dimm.layout == "dual_channel":
            half0, half1 = data[:_HALF], data[_HALF:]
            self.xcc.encode(half0, half1)  # one combinational cycle
            dimm.store_line(local_line, data)
        issue = time
        pulse_end = time
        accept = time
        for slot in slots:
            die = dimm.dies[slot.die]
            complete, _stable = die.write(
                issue, slot.address, size=_HALF * 2, early_return=True
            )
            accept = max(accept, complete)
            pulse_end = max(pulse_end, die.busy_until)
            if staggered:
                # next die starts once this pulse ends (cooling is
                # per-row and does not block the sibling's programming)
                issue = die.busy_until
        return accept, pulse_end

    def _group_backlog(self, dimm: BareNVDIMM, group: int, time: float) -> float:
        return max(
            0.0,
            max(d.busy_until for d in dimm.group_dies(group)) - time,
        )

    # -- read path ------------------------------------------------------------------

    def _serve_read(self, request: MemoryRequest) -> MemoryResponse:
        cfg = self.config
        t = request.time + cfg.port_ns
        physical_line, dimm, local_line = self._translate(request.address)
        group = dimm.group_of(local_line)

        # 1. row buffer holds the youngest copy?
        if cfg.write_aggregation:
            buf = self._buffer(dimm.dimm_id, group)
            if buf.read_hit(local_line * CACHELINE_BYTES):
                complete = t + cfg.buffer_ns + cfg.port_ns
                self.read_latency.record(complete - request.time)
                return MemoryResponse(
                    request,
                    complete_time=complete,
                    data=self._pending.get(physical_line),
                )

        # The synchronous DDR channel is shared per DIMM: a write being
        # held on it (LightPC-B) blocks every read behind it, whatever die
        # it targets — the head-of-line blocking of Fig. 16.
        channel_wait = self._channel_wait(dimm, t)
        if channel_wait > 0:
            self.read_blocked_ns += channel_wait
            t += channel_wait

        slots = dimm.slots_of(local_line)
        if cfg.layout == "dram_like":
            return self._read_dram_like(request, t, dimm, slots)

        die0 = dimm.dies[slots[0].die]
        die1 = dimm.dies[slots[1].die]
        corrupt0 = self.functional and dimm.is_corrupt(local_line, 0)
        corrupt1 = self.functional and dimm.is_corrupt(local_line, 1)
        busy0 = die0.is_busy(t, slots[0].address)
        busy1 = die1.is_busy(t, slots[1].address)

        if corrupt0 and corrupt1:
            return self._contained_error(request, t, dimm, local_line)

        if cfg.ecc_reconstruction and (busy0 or busy1 or corrupt0 or corrupt1):
            # Non-blocking service: read one die (its half + the co-located
            # parity regenerate the other half in one XOR cycle).  Queued
            # programming yields to reads; only the die's *active*
            # programming pulse cannot be preempted, so the worst wait is
            # bounded by the remaining pulse, approximated as half an
            # occupancy window.
            which = self._pick_survivor(
                die0.busy_wait(t, slots[0].address),
                die1.busy_wait(t, slots[1].address),
                corrupt0, corrupt1,
            )
            slot = slots[which]
            die = dimm.dies[slot.die]
            if cfg.write_aggregation:
                # Staggered drains keep at most one die of the group
                # actively programming; the survivor's backlog is queued
                # work that yields to reads.
                wait = 0.0
            else:
                wait = min(
                    die.busy_wait(t, slot.address),
                    die.timing.write_occupancy_ns / 2.0,
                )
            self.read_blocked_ns += wait
            # 64 B (half + parity) from one die: a pipelined two-beat
            # burst, slotted into the die's queue gaps (busy_until not
            # extended).
            die.read_count += 2
            complete = (
                t + wait + die.timing.read_ns + cfg.reconstruct_extra_ns
                + cfg.xor_decode_ns + cfg.port_ns
            )
            data = self._reconstruct_data(dimm, local_line, which)
            self.reconstructions += 1
            # the channel is held only for the pipelined data burst
            self._channel_busy[dimm.dimm_id] = t + 20.0
            self.read_latency.record(complete - request.time)
            return MemoryResponse(
                request, complete_time=complete, data=data, reconstructed=True
            )

        # Plain path: both halves in parallel; wait on busy dies — this is
        # the baseline's read-after-write head-of-line blocking.
        wait = max(
            die0.busy_wait(t, slots[0].address),
            die1.busy_wait(t, slots[1].address),
        )
        self.read_blocked_ns += wait
        c0, _ = die0.read(t, slots[0].address, _HALF)
        c1, _ = die1.read(t, slots[1].address, _HALF)
        complete = max(c0, c1) + cfg.port_ns
        # the channel is held only for the pipelined data burst
        self._channel_busy[dimm.dimm_id] = t + 20.0
        data: Optional[bytes] = None
        if self.functional:
            half0, parity0 = dimm.load_slot(local_line, 0)
            half1, _ = dimm.load_slot(local_line, 1)
            if not self.xcc.verify(half0, half1, parity0):
                # Shouldn't happen without injected faults; contained.
                return self._contained_error(request, t, dimm, local_line)
            data = half0 + half1
        self.read_latency.record(complete - request.time)
        return MemoryResponse(
            request, complete_time=complete, data=data, blocked_ns=wait
        )

    @staticmethod
    def _pick_survivor(
        wait0: float, wait1: float, corrupt0: bool, corrupt1: bool
    ) -> int:
        if corrupt0:
            return 1
        if corrupt1:
            return 0
        return 0 if wait0 <= wait1 else 1

    def _reconstruct_data(
        self, dimm: BareNVDIMM, local_line: int, survivor: int
    ) -> Optional[bytes]:
        if not self.functional:
            return None
        half, parity = dimm.load_slot(local_line, survivor)
        other = self.xcc.reconstruct(half, parity)
        return (half + other) if survivor == 0 else (other + half)

    def _contained_error(
        self, request: MemoryRequest, t: float, dimm: BareNVDIMM, local_line: int
    ) -> MemoryResponse:
        """Both copies are bad: containment bit -> host raises an MCE.

        With the future-work symbol ECC enabled, a deeper decode is
        attempted first (modelled as succeeding for single-slot-per-symbol
        damage, at its decode latency).
        """
        if self.symbol_ecc is not None:
            complete = t + self.symbol_ecc.decode_ns + self.config.port_ns
            self.symbol_ecc.corrections += 1
            self.read_latency.record(complete - request.time)
            return MemoryResponse(
                request, complete_time=complete, reconstructed=True
            )
        self.mce_count += 1
        raise MachineCheckError(
            f"uncorrectable error at line {local_line} of DIMM {dimm.dimm_id}"
        )

    def _read_dram_like(
        self, request: MemoryRequest, t: float, dimm: BareNVDIMM, slots
    ) -> MemoryResponse:
        """Strawman layout: every access enables all eight dies."""
        completes = []
        wait = 0.0
        for slot in slots:
            die = dimm.dies[slot.die]
            wait = max(wait, die.busy_wait(t, slot.address))
            c, _ = die.read(t, slot.address, _HALF)
            completes.append(c)
        self.read_blocked_ns += wait
        complete = max(completes) + self.config.port_ns
        self.read_latency.record(complete - request.time)
        return MemoryResponse(request, complete_time=complete, blocked_ns=wait)

    # -- flush & reset ports -------------------------------------------------------

    def flush(self, time: float) -> float:
        """Flush port: close all row buffers, drain all programming.

        This is the memory-synchronization interface SnG's Auto-Stop uses;
        after it returns there are no early-returned requests in flight.
        """
        t = time
        for (dimm_id, group), buf in self._buffers.items():
            closed = buf.flush()
            if closed is not None:
                page, beats = closed
                self._drain_page(t, self.nvdimms[dimm_id], group, page, beats)
        t = max([t] + [d.drain(t) for d in self.nvdimms])
        return t + self.config.port_ns

    def reset(self, time: float) -> float:
        """Reset port: wipe all media (MCE recovery / cold re-init)."""
        for dimm in self.nvdimms:
            dimm.wipe()
        self._pending.clear()
        self._buffers.clear()
        self._channel_busy.clear()
        self.wear = StartGap(
            lines=self.config.total_lines - 1,
            threshold=self.config.wear_threshold,
            seed=self.config.wear_seed,
            move_fn=self._move_line if self.functional else None,
            rotate_seed_every=self.config.rotate_seed_every,
            randomize_unit=self.config.wear_randomize_unit,
        )
        return time + 1_000.0  # bulk wipe handshake

    def drain(self, time: float) -> float:
        """Quiesce time without closing row buffers (fence semantics)."""
        return max([time] + [d.drain(time) for d in self.nvdimms])

    def power_cycle(self) -> None:
        """Power loss: media persists; volatile PSM state must have been
        flushed by SnG beforehand or pending data is lost (by design —
        that is exactly what the flush port is for).

        The wear-leveler's register file is volatile too: unless the
        EP-cut captured it (:meth:`capture_registers`) and Go restores it
        (:meth:`restore_wear_registers`), the mapping resets and stored
        data becomes unreachable — the paper persists exactly these <64 B
        at SnG time (§VIII).
        """
        lost = len(self._pending)
        self._pending.clear()
        self._buffers.clear()
        self._channel_busy.clear()
        for dimm in self.nvdimms:
            dimm.power_cycle()
        self._lost_pending_lines = lost
        from repro.ocpmem.wear import WearRegisters

        self.wear.restore_registers(WearRegisters(
            start=0, gap=self.wear.lines, write_count=0,
            seed=self.config.wear_seed, gap_cycles=0,
        ))

    # -- EP-cut register capture -------------------------------------------

    def capture_registers(self) -> bytes:
        """Serialize the wear-leveler register file for the EP-cut."""
        import pickle

        return pickle.dumps(self.wear.registers())

    def restore_wear_registers(self, blob: bytes) -> None:
        """Restore the register file Go read back from the BCB."""
        import pickle

        if not blob:
            return
        self.wear.restore_registers(pickle.loads(blob))

    # -- introspection -----------------------------------------------------------------

    @property
    def buffer_hit_ratio(self) -> float:
        """Write-aggregation buffer hit ratio at the port boundary."""
        return self.buffer_hits.ratio

    def counters(self) -> dict[str, float]:
        counters: dict[str, float] = {
            "media_line_writes": self.media_line_writes,
            "reconstructions": self.reconstructions,
            "read_blocked_ns": self.read_blocked_ns,
            "write_stall_ns": self.write_stall_ns,
            "buffer_hit_ratio": self.buffer_hits.ratio,
            "wear_gap_moves": self.wear.gap_moves,
            "mce_count": self.mce_count,
        }
        nvdimm = {"reads": 0, "writes": 0}
        for dimm in self.nvdimms:
            for key, value in dimm.counters().items():
                nvdimm[key] += value
        counters.update({f"nvdimm_{k}": v for k, v in nvdimm.items()})
        return counters

    def register_stats(self, stats: StatsRegistry) -> None:
        stats.register("read", self.read_latency)
        stats.register("write", self.write_latency)
        stats.register("buffer_hit_ratio", lambda: self.buffer_hits.ratio)
        stats.register("counters", self.counters)
        devices = stats.scoped("devices")
        for index, dimm in enumerate(self.nvdimms):
            dimm.register_stats(devices.scoped(f"dimm{index}"))

    def power_parts(self, counters: Mapping[str, float]) -> list[PowerPart]:
        """LightPC memory inventory: the PSM, bare DIMMs, lean board."""
        dimms = float(len(self.nvdimms))
        nvdimm = {
            "reads": counters.get("nvdimm_reads", 0.0) / dimms,
            "writes": counters.get("nvdimm_writes", 0.0) / dimms,
        }
        return [
            ("psm", 1.0, dict(counters)),
            ("bare_nvdimm", dimms, nvdimm),
            ("board_light", 1.0, None),
        ]
