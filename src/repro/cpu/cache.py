"""Set-associative write-back data cache.

Table I configures 16 KB I$/D$ per core on the prototype's RV64 cores.
The D$ is modelled in full (it decides which accesses reach the memory
subsystem and, crucially for the paper, which dirty lines must be flushed
at the EP-cut).  Instruction fetch is folded into the core's base CPI —
the evaluation's memory behaviour is data-side.

Write policy is write-back/write-allocate: stores dirty a line, evicted
dirty lines become memory writes, and :meth:`flush_dirty` (SnG's cache
dump) returns every dirty line so the caller can charge per-line flush
costs and write them to OC-PMEM.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, compress
from operator import truth
from typing import Optional

from repro.memory.request import CACHELINE_BYTES
from repro.sim.stats import RatioStat, StatsRegistry

__all__ = ["Cache", "CacheConfig"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache."""

    size_bytes: int = 16 * 1024
    ways: int = 4
    line_bytes: int = CACHELINE_BYTES
    #: Hit service time in nanoseconds (L1 speed at the ASIC target).
    hit_ns: float = 1.25

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError("cache size must divide into ways * line size")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_bytes


class Cache:
    """One write-back cache with true-LRU replacement."""

    def __init__(self, config: Optional[CacheConfig] = None, name: str = "d$") -> None:
        self.config = config or CacheConfig()
        self.name = name
        # geometry read once here, not through the config's properties on
        # every access
        self._set_count = self.config.sets
        self._line_bytes = self.config.line_bytes
        self._assoc = self.config.ways
        # per-set OrderedDict: tag -> dirty flag, LRU at the front
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self._set_count)
        ]
        self.read_hits = RatioStat()
        self.write_hits = RatioStat()
        self.evictions = 0
        self.dirty_evictions = 0

    def access(self, address: int, is_write: bool) -> tuple[bool, Optional[int]]:
        """Look up (and allocate) a line.

        Returns ``(hit, victim_address)`` where ``victim_address`` is the
        base address of a dirty line evicted to make room, or None.
        """
        line = address // self._line_bytes
        set_count = self._set_count
        set_index = line % set_count
        tag = line // set_count
        ways = self._sets[set_index]
        stats = self.write_hits if is_write else self.read_hits
        stats.total += 1
        if tag in ways:
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            stats.hits += 1
            return True, None
        victim_address: Optional[int] = None
        if len(ways) >= self._assoc:
            victim_tag, victim_dirty = ways.popitem(last=False)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
                victim_line = victim_tag * set_count + set_index
                victim_address = victim_line * self._line_bytes
        ways[tag] = is_write
        return False, victim_address

    def _dirty_sets(self) -> list[tuple[int, "OrderedDict[int, bool]"]]:
        """(index, ways) of every set holding a dirty line: one C-level
        pass over the sets, so a dump costs what its dirty sets hold."""
        sets = self._sets
        return [(index, sets[index]) for index in compress(
            range(self._set_count), map(any, map(OrderedDict.values, sets)))]

    def _addresses(self, dirty_sets) -> list[int]:
        set_count = self._set_count
        line_bytes = self._line_bytes
        return [(tag * set_count + set_index) * line_bytes
                for set_index, ways in dirty_sets
                for tag, dirty in ways.items() if dirty]

    def dirty_lines(self) -> list[int]:
        """Base addresses of all dirty lines (what a cache dump must write)."""
        return self._addresses(self._dirty_sets())

    def flush_dirty(self) -> list[int]:
        """Write back every dirty line; returns their base addresses."""
        dirty_sets = self._dirty_sets()
        flushed = self._addresses(dirty_sets)
        for _, ways in dirty_sets:
            ways.update(dict.fromkeys(ways, False))
        return flushed

    def invalidate_all(self) -> None:
        for ways in filter(None, self._sets):  # the sets holding lines
            ways.clear()

    def reset(self) -> None:
        """Back to the just-built state: no lines, zeroed counters."""
        self.invalidate_all()
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/eviction counters (contents stay resident) —
        used to measure steady-state ratios after a warmup pass."""
        self.read_hits = RatioStat()
        self.write_hits = RatioStat()
        self.evictions = 0
        self.dirty_evictions = 0

    def dirty_count(self) -> int:
        return sum(map(truth, chain.from_iterable(
            map(OrderedDict.values, self._sets))))

    @property
    def occupancy(self) -> int:
        return sum(map(len, self._sets))

    @property
    def read_hit_ratio(self) -> float:
        return self.read_hits.ratio

    @property
    def write_hit_ratio(self) -> float:
        return self.write_hits.ratio

    def register_stats(self, stats: StatsRegistry) -> None:
        """Publish hit/eviction stats under this scope.

        Sources are lambdas (not the objects) because
        :meth:`reset_stats` replaces the accumulators wholesale.
        """
        stats.register("read_hits", lambda: self.read_hits)
        stats.register("write_hits", lambda: self.write_hits)
        stats.register("evictions", lambda: self.evictions)
        stats.register("dirty_evictions", lambda: self.dirty_evictions)
        stats.register("occupancy", lambda: self.occupancy)
