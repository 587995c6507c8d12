"""Bare-metal PRAM DIMM channels (paper §V-B, Fig. 13).

A Bare-NVDIMM is a rank of eight 32 B-granularity PRAM dies exposed to the
PSM without any DIMM-side firmware or volatile cache.  Two channel layouts
are modelled:

* ``dual_channel`` (the paper's design) — every two dies share a chip
  enable.  A 64 B cacheline is served by one group (2 x 32 B) while the
  other three groups stay available (*intra-DIMM parallelism*).
* ``dram_like`` (the strawman) — all eight dies share one CE, so the
  default access unit is 256 B: every cacheline access enables the whole
  rank, 64 B writes need read-modify of the 256 B unit, and requests
  serialize behind one another.

Data + parity co-location: each die slot stores a line's 32 B half
*and* the line's 32 B XOR parity (P = half0 ^ half1).  Reading either die
therefore yields enough to regenerate the other half in one combinational
XOR — the PSM's non-blocking read-after-write service — and is why the
Bare-NVDIMM provisions 2x capacity per line (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.memory.device import PRAMDevice, PRAMTiming
from repro.memory.request import CACHELINE_BYTES, PRAM_DEVICE_BYTES
from repro.ocpmem.ecc import xor_bytes

__all__ = ["BareNVDIMM", "DieSlot", "Layout"]

Layout = Literal["dual_channel", "dram_like"]

_DIES = 8
_HALF = PRAM_DEVICE_BYTES          # 32 B data half per die
_SLOT_BYTES = _HALF * 2            # half + co-located parity


@dataclass(frozen=True)
class DieSlot:
    """One die's share of a cacheline: (die index, die-local byte address)."""

    die: int
    address: int


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
        timing = timing or PRAMTiming()  # one record shared by the rank
        first_id = dimm_id * _DIES
        self.dies = [PRAMDevice(die_capacity, timing, device_id)
                     for device_id in range(first_id, first_id + _DIES)]
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
        _, first, address = self.slot_of(line)
        return [
            DieSlot(die=first + i, address=address)
            for i in range(self.dies_per_group)
        ]

    def slot_of(self, line: int) -> tuple[int, int, int]:
        """``(group, first die, die-local address)`` of an in-range line.

        The line's CE group is ``line % groups``; its slot sits at the
        same address on each of the group's ``dies_per_group``
        consecutive dies, starting at the first die.  Arithmetic only: no
        range check and nothing allocated but the tuple.
        """
        slot_index, group = divmod(line, self.groups)
        return group, group * self.dies_per_group, slot_index * _SLOT_BYTES

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
        parity = xor_bytes(half0, half1)
        self._check_line(line)
        _, first, address = self.slot_of(line)
        self.store_at(first, address, half0, half1, parity)

    def store_at(self, die: int, address: int, half0: bytes, half1: bytes,
                 parity: bytes) -> None:
        """Store a line's halves + parity at slot ``address`` of ``die``
        and its sibling (the line's dual-channel group), no timing."""
        dies = self.dies
        dies[die].storage.write(address, half0 + parity)
        dies[die + 1].storage.write(address, half1 + parity)
        corrupted = self._corrupted
        if corrupted:
            corrupted.discard((die, address))
            corrupted.discard((die + 1, address))

    def load_slot(self, line: int, which: int) -> tuple[bytes, bytes]:
        """(half, parity) stored on one die of the line's group."""
        if self.layout != "dual_channel":
            raise ValueError("functional storage is dual_channel-only")
        slot = self.slots_of(line)[which]
        return self.load_at(slot.die, slot.address)

    def load_at(self, die: int, address: int) -> tuple[bytes, bytes]:
        """(half, parity) stored at slot ``address`` of ``die``."""
        raw = self.dies[die].peek(address, _SLOT_BYTES)
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
        return self.is_corrupt_at(slot.die, slot.address)

    def is_corrupt_at(self, die: int, address: int) -> bool:
        """Does slot ``address`` of ``die`` carry the containment bit?"""
        return (die, address) in self._corrupted

    def read_media_of(self, other: "BareNVDIMM") -> None:
        """Share ``other``'s stored blocks and containment marks.

        Each die keeps its own timing state but reads (and would write)
        the same media as the matching die of ``other``.
        """
        if (other.lines, other.layout) != (self.lines, self.layout):
            raise ValueError("media of another geometry")
        for die, source in zip(self.dies, other.dies):
            die.storage = source.storage
        self._corrupted = other._corrupted

    def wipe(self) -> None:
        """Reset-port support: clear all media contents and fault state."""
        for die in self.dies:
            die.storage.wipe()
            die.power_cycle()
        self._corrupted.clear()

    # -- timing helpers ---------------------------------------------------------

    def drain(self, time: float) -> float:
        for die in self.dies:
            if die.busy_until > time:
                time = die.busy_until
        return time

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
