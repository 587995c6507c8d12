"""Multi-core complex: cores sharing one memory backend.

Concurrent execution is simulated by always advancing the core with the
smallest local clock, so backend contention (die occupancy, backpressure)
is observed in a globally consistent time order — the property the
OC-PMEM conflict experiments depend on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from repro.cpu.core import Core, CoreConfig, CoreStats
from repro.engine.base import EngineSpec, ExecutionEngine, resolve_engine
from repro.memory.port import MemoryBackend
from repro.pmem.modes import SoftwareOverhead
from repro.sim.stats import StatsRegistry

__all__ = ["ComplexResult", "MultiCoreComplex"]


@dataclass
class ComplexResult:
    """Aggregate outcome of running traces on the complex."""

    wall_ns: float
    per_core: list[CoreStats]
    frequency_ghz: float

    @property
    def wall_cycles(self) -> float:
        return self.wall_ns * self.frequency_ghz

    @property
    def instructions(self) -> int:
        return sum(stats.instructions for stats in self.per_core)

    @property
    def ipc(self) -> float:
        if self.wall_cycles <= 0:
            return 0.0
        return self.instructions / self.wall_cycles

    @property
    def read_stall_ns(self) -> float:
        return sum(stats.read_stall_ns for stats in self.per_core)

    @property
    def memory_stall_fraction(self) -> float:
        total = sum(stats.total_ns for stats in self.per_core)
        if total <= 0:
            return 0.0
        stalls = sum(
            stats.read_stall_ns + stats.write_stall_ns for stats in self.per_core
        )
        return stalls / total


class MultiCoreComplex:
    """N cores over a shared memory backend."""

    def __init__(
        self,
        backend: MemoryBackend,
        cores: int = 8,
        core_config: Optional[CoreConfig] = None,
        overhead: Optional[SoftwareOverhead] = None,
        engine: EngineSpec = None,
    ) -> None:
        if cores <= 0:
            raise ValueError("need at least one core")
        self.backend = backend
        self.core_config = core_config or CoreConfig()
        self.engine = resolve_engine(engine)
        self.cores = [
            Core(i, backend, self.core_config, overhead, engine=self.engine)
            for i in range(cores)
        ]

    def reset(self, backend: MemoryBackend, engine: ExecutionEngine) -> None:
        """Rewind every core in place to its just-built state over
        ``backend`` and ``engine`` (:meth:`Core.reset`)."""
        self.backend = backend
        self.engine = engine
        for core in self.cores:
            core.reset(backend, engine)

    def set_engine(self, engine: EngineSpec) -> ExecutionEngine:
        """Repoint every core at ``engine``; returns the resolved engine."""
        self.engine = resolve_engine(engine)
        for core in self.cores:
            core.engine = self.engine
        return self.engine

    # -- workload execution ------------------------------------------------------

    def run_traces(
        self,
        traces: Sequence[Iterable],
        start_ns: float = 0.0,
    ) -> ComplexResult:
        """Execute one trace per thread, threads round-robin over cores.

        Each trace yields ``(instructions, address, is_write)`` records
        (:class:`~repro.workloads.trace.TraceRecord` or any such triple).
        Cores advance in global-time order so shared-backend contention
        is causally consistent.
        """
        iterators: list[tuple[Core, int, Iterator]] = []
        for thread_id, trace in enumerate(traces):
            core = self.cores[thread_id % len(self.cores)]
            iterators.append((core, thread_id, iter(trace)))
        for core in self.cores:
            core.now = start_ns
        consumed = [0] * len(iterators)

        # (core-local time, sequence) heap keyed on the owning core's clock.
        heap: list[tuple[float, int]] = [
            (entry[0].now, idx) for idx, entry in enumerate(iterators)
        ]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        while heap:
            if len(heap) == 1:
                # Single survivor: no cross-core ordering left to respect,
                # so hand the tail to the execution engine — the exact
                # engines drain it in batched windows (identical
                # accounting, amortized dispatch); the epoch engine may
                # additionally skip steady-state windows analytically.
                _, idx = heap[0]
                core, thread_id, records = iterators[idx]
                core.engine.drain(
                    core, records, thread_id,
                    source=traces[idx], consumed=consumed[idx],
                )
                break
            # The earliest entry runs one record and is re-keyed in place:
            # (time, index) keys are unique, so replacing the top pops
            # entries in the order a pop-then-push would.
            idx = heap[0][1]
            core, thread_id, records = iterators[idx]
            record = next(records, None)
            if record is None:
                heappop(heap)
                continue
            consumed[idx] += 1
            instructions, address, is_write = record
            heapreplace(heap, (
                core.execute(instructions, address, is_write, thread_id),
                idx,
            ))

        wall = max((core.now for core in self.cores), default=start_ns)
        return ComplexResult(
            wall_ns=wall - start_ns,
            # copies: the cores count on, and a later run must not
            # rewrite this result
            per_core=[replace(core.stats) for core in self.cores],
            frequency_ghz=self.core_config.frequency_ghz,
        )

    # -- observability -----------------------------------------------------------

    def register_stats(self, stats: StatsRegistry) -> None:
        """Publish every core's stats as ``core<i>`` under this scope."""
        for core in self.cores:
            core.register_stats(stats.scoped(f"core{core.core_id}"))

    # -- SnG hooks ------------------------------------------------------------------

    def dirty_line_counts(self) -> list[int]:
        """Per-core dirty D$ lines (what an EP-cut cache dump must flush)."""
        return [core.cache.dirty_count() for core in self.cores]

    def flush_all_caches(self) -> int:
        """Dump every core's cache; returns total lines written back."""
        return sum(core.flush_cache()[0] for core in self.cores)

    def dump_caches(self) -> list[int]:
        """SnG's cache dump: count *and functionally write back* every
        core's dirty lines, so the EP-cut's memory image really contains
        them before the backend flush port runs.  Each core's dirty set
        coalesces into extents and is written back one scalar ``access``
        per line (``Core.flush_cache``); the per-core
        :class:`~repro.memory.extent.FlushReport` stays available as
        ``core.last_flush_report`` for audits.  A method of the complex,
        not of the machine, so the SnG holding it keeps no reference
        back to its machine."""
        counts = self.dirty_line_counts()
        self.flush_all_caches()
        return counts
