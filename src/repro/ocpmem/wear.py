"""Start-Gap wear leveling with a static address randomizer (§V-A, [53]).

Start-Gap avoids per-line mapping tables entirely: the memory keeps one
spare line and two registers.  Every ``threshold`` writes, the *gap* (the
spare) moves down by one line — the line above it is copied into it — and
when the gap has traversed the whole space the *start* register advances,
rotating the logical-to-physical mapping by one.  A static randomizer
(a seeded Feistel permutation here) spreads logically-adjacent hot lines
across the physical space so the rotation actually levels wear.

The whole metadata footprint is the start/gap offsets, the write counter,
and the randomizer seed — the <64 B register file the paper persists at
the EP-cut (§VIII); :meth:`StartGap.registers` /
:meth:`StartGap.restore_registers` round-trip it.

The future-work extension (periodic seed rotation to resist adversarial
single-address write streams) is implemented by :meth:`rotate_seed`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["FeistelPermutation", "StartGap", "WearRegisters"]

MoveFn = Callable[[int, int], None]


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


#: The register file as the EP-cut stores it: five signed 64-bit
#: little-endian words in field order, 40 B.
_REGISTER_FILE = struct.Struct("<5q")


@dataclass(frozen=True)
class WearRegisters:
    """The wear-leveler's persistent register file (fits in <64 B)."""

    start: int
    gap: int
    write_count: int
    seed: int
    gap_cycles: int

    def pack(self) -> bytes:
        """The fixed 40 B image the EP-cut persists."""
        return _REGISTER_FILE.pack(self.start, self.gap, self.write_count,
                                   self.seed, self.gap_cycles)

    @classmethod
    def unpack(cls, blob: bytes) -> "WearRegisters":
        """Inverse of :meth:`pack`; any other length is a ``ValueError``."""
        if len(blob) != _REGISTER_FILE.size:
            raise ValueError(
                f"wear register file is {_REGISTER_FILE.size} B, "
                f"got {len(blob)} B"
            )
        return cls(*_REGISTER_FILE.unpack(blob))


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
        self._units = max(1, lines // randomize_unit)
        self._reseed(seed)
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
        unit, offset = divmod(logical_line, self.randomize_unit)
        base = self._unit_memo.get(unit)
        if base is None:
            base = self._randomize_unit(unit)
        physical = (base + offset + self.start) % self.lines
        if physical >= self.gap:
            physical += 1
        return physical

    def _randomize_unit(self, unit: int) -> int:
        """First randomized line of randomize unit ``unit``, memoized.

        The Feistel walk depends only on the randomizer, not on
        start/gap, so the memo holds until :meth:`_reseed` replaces it.
        """
        if unit >= self._units:
            # The partial tail unit past the permutation domain stays put.
            base = unit * self.randomize_unit
        else:
            base = self._randomizer.apply(unit) * self.randomize_unit
        self._unit_memo[unit] = base
        return base

    def _reseed(self, seed: int) -> None:
        """Install the randomizer for ``seed`` and drop the old one's memo."""
        self._randomizer = FeistelPermutation(self._units, seed)
        self._unit_memo: dict[int, int] = {}

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
        self._reseed((self._randomizer.seed * 0x9E3779B1 + 0xABCD) & 0xFFFFFFFF)
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
        if regs.seed != self._randomizer.seed:
            self._reseed(regs.seed)

    # -- endurance analysis -----------------------------------------------------

    def wear_imbalance(self) -> float:
        """max/mean physical write count (1.0 = perfectly level)."""
        if not self.physical_writes:
            return 0.0
        counts = self.physical_writes.values()
        mean = sum(counts) / self.lines  # spread over all lines incl. cold
        return max(counts) / mean if mean else 0.0
