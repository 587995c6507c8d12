"""Core timing model: trace-driven execution with stall accounting.

The prototype CPU is an octa-core out-of-order RV64 (SonicBOOM) at
1.6 GHz (ASIC timing; 0.4 GHz on the FPGA).  The evaluation consumes
cycles, IPC, and memory-stall breakdowns — not pipeline detail — so the
core model is a calibrated accounting machine:

* non-memory work advances time at ``base_cpi`` cycles per instruction;
* D$ hits cost the cache hit time;
* read misses stall the core for the memory latency minus an
  out-of-order overlap window (MLP tolerance);
* write misses are mostly absorbed by the store buffer — only a fraction
  of the fill latency is exposed — and dirty evictions are posted writes
  that stall only on backpressure;
* the mode's software overhead (DAX/PMDK costs) is charged per access.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.cpu.cache import Cache, CacheConfig
from repro.engine.base import EngineSpec, resolve_engine
from repro.memory.extent import FlushReport
from repro.memory.port import MemoryBackend
from repro.memory.request import MemoryOp, RequestPool
from repro.pmem.modes import SoftwareOverhead
from repro.sim.stats import StatsRegistry

__all__ = ["Core", "CoreConfig", "CoreStats"]


@dataclass(frozen=True)
class CoreConfig:
    """Timing parameters of one core (Table I)."""

    frequency_ghz: float = 1.6
    #: CPI of non-memory work, I$ effects folded in.
    base_cpi: float = 1.25
    #: Miss latency the OoO window hides per read miss.
    overlap_ns: float = 14.0
    #: Fraction of a write-miss line fill exposed past the store buffer.
    write_miss_expose: float = 0.3
    cache: CacheConfig = CacheConfig()

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    def cycles(self, ns: float) -> float:
        return ns / self.cycle_ns


@dataclass
class CoreStats:
    """Cycle/stall accounting for one core."""

    instructions: int = 0
    reads: int = 0
    writes: int = 0
    compute_ns: float = 0.0
    read_stall_ns: float = 0.0
    write_stall_ns: float = 0.0
    software_ns: float = 0.0
    evictions: int = 0

    @property
    def total_ns(self) -> float:
        return (
            self.compute_ns + self.read_stall_ns + self.write_stall_ns
            + self.software_ns
        )

    def ipc(self, frequency_ghz: float) -> float:
        if self.total_ns <= 0:
            return 0.0
        cycles = self.total_ns * frequency_ghz
        return self.instructions / cycles

    def memory_stall_fraction(self) -> float:
        total = self.total_ns
        if total <= 0:
            return 0.0
        return (self.read_stall_ns + self.write_stall_ns) / total


class Core:
    """One core executing a memory-reference trace against a backend."""

    def __init__(
        self,
        core_id: int,
        backend: MemoryBackend,
        config: Optional[CoreConfig] = None,
        overhead: Optional[SoftwareOverhead] = None,
        engine: EngineSpec = None,
    ) -> None:
        self.core_id = core_id
        self.config = config or CoreConfig()
        self.backend = backend
        self.overhead = overhead or SoftwareOverhead()
        #: how this core drains traces and dumps its cache — see
        #: :mod:`repro.engine`; ``None`` selects the process default
        self.engine = resolve_engine(engine)
        self.cache = Cache(self.config.cache, name=f"core{core_id}.d$")
        # the config's ``cycle_ns`` property, read once
        self._cycle_ns = self.config.cycle_ns
        self.stats = CoreStats()
        self.now = 0.0
        self._flush_debt = 0.0
        self._pool = RequestPool()
        #: the last cache dump's :class:`FlushReport` (None before any)
        self.last_flush_report: Optional[FlushReport] = None

    @property
    def overhead(self) -> SoftwareOverhead:
        """The mode's per-access software costs (DAX/PMDK)."""
        return self._overhead

    @overhead.setter
    def overhead(self, overhead: SoftwareOverhead) -> None:
        self._overhead = overhead
        # the per-access charges, read once per assignment
        self._read_cost = overhead.read_cost()
        self._write_cost = overhead.write_cost()

    def execute(self, instructions: int, address: int, is_write: bool,
                thread_id: int = 0) -> float:
        """Run ``instructions`` of compute then one memory access.

        Returns the core-local time after the access completes.
        """
        cfg = self.config
        stats = self.stats
        now = self.now
        if instructions:
            compute = instructions * cfg.base_cpi * self._cycle_ns
            now += compute
            stats.compute_ns += compute
            stats.instructions += instructions
        stats.instructions += 1  # the memory instruction itself
        if is_write:
            stats.writes += 1
            cost = self._write_cost
        else:
            stats.reads += 1
            cost = self._read_cost
        if cost > 0:
            now += cost
            stats.software_ns += cost
        self.now = now

        if is_write and self._overhead.extra_flush_writes > 0:
            # pmem_persist-style flushes push the dirtied line straight to
            # the memory subsystem (trans-mode's durable stores).
            overhead = self._overhead
            self._flush_debt += (
                overhead.extra_flush_writes * overhead.coverage
            )
            while self._flush_debt >= 1.0:
                self._flush_debt -= 1.0
                self._write_back(address - address % 64, thread_id)
            now = self.now

        hit, victim = self.cache.access(address, is_write)
        if hit:
            now += cfg.cache.hit_ns
            self.now = now
            return now

        # Miss: line fill from the backend.  The request comes from the
        # pool and is recycled once the latency is read; on a backend
        # exception it stays referenced by the failure's response prefix.
        pool = self._pool
        request = pool.acquire(MemoryOp.READ, address, now, thread_id)
        response = self.backend.access(request)
        fill_latency = response.latency
        pool.release(request)
        if is_write:
            exposed = max(0.0, fill_latency - cfg.overlap_ns)
            stall = exposed * cfg.write_miss_expose
            stats.write_stall_ns += stall
        else:
            stall = max(cfg.cache.hit_ns, fill_latency - cfg.overlap_ns)
            stats.read_stall_ns += stall
        self.now = now + stall

        if victim is not None:
            self._write_back(victim, thread_id)
        return self.now

    def execute_window(self, records, thread_id: int = 0) -> float:
        """Execute a run of trace records with per-record overhead hoisted.

        Observationally identical to calling :meth:`execute` once per
        record — same clock arithmetic, same cache and backend side
        effects in the same order — but the config lookups, software-cost
        products, cache locate math and stats increments are amortized
        over the window.  Core timing is sequentially dependent (each
        stall moves ``now`` for the next access), so misses still reach
        the backend one at a time; the batch win here is pure dispatch
        overhead.  Clock and counters are written back even when the
        backend raises mid-window (power-failure injection), leaving
        exactly the scalar prefix state.
        """
        cfg = self.config
        base_cpi = cfg.base_cpi
        cycle_ns = self._cycle_ns
        overlap_ns = cfg.overlap_ns
        expose = cfg.write_miss_expose
        hit_ns = cfg.cache.hit_ns
        overhead = self.overhead
        read_cost = overhead.read_cost()
        write_cost = overhead.write_cost()
        extra_flush = overhead.extra_flush_writes
        flush_step = overhead.extra_flush_writes * overhead.coverage
        cache = self.cache
        cache_sets = cache._sets
        n_sets = cache._set_count
        line_bytes = cache._line_bytes
        assoc = cache._assoc
        backend_access = self.backend.access
        acquire = self._pool.acquire
        release = self._pool.release
        read_op = MemoryOp.READ
        write_op = MemoryOp.WRITE
        stats = self.stats
        now = self.now
        flush_debt = self._flush_debt
        compute_ns = stats.compute_ns
        software_ns = stats.software_ns
        read_stall_ns = stats.read_stall_ns
        write_stall_ns = stats.write_stall_ns
        instr_count = 0
        reads = 0
        writes = 0
        evictions = 0
        read_hit_hits = 0
        read_hit_total = 0
        write_hit_hits = 0
        write_hit_total = 0
        cache_evictions = 0
        cache_dirty_evictions = 0
        try:
            for instructions, address, is_write in records:
                if instructions:
                    compute = instructions * base_cpi * cycle_ns
                    now += compute
                    compute_ns += compute
                    instr_count += instructions
                instr_count += 1
                if is_write:
                    writes += 1
                    if write_cost > 0:
                        now += write_cost
                        software_ns += write_cost
                    if extra_flush > 0:
                        flush_debt += flush_step
                        while flush_debt >= 1.0:
                            flush_debt -= 1.0
                            evictions += 1
                            request = acquire(
                                write_op, address - address % 64, now,
                                thread_id,
                            )
                            response = backend_access(request)
                            release(request)
                            blocked = response.blocked_ns
                            if blocked > 0:
                                write_stall_ns += blocked
                                now += blocked
                else:
                    reads += 1
                    if read_cost > 0:
                        now += read_cost
                        software_ns += read_cost
                line = address // line_bytes
                set_index = line % n_sets
                ways = cache_sets[set_index]
                tag = line // n_sets
                if tag in ways:
                    ways.move_to_end(tag)
                    if is_write:
                        ways[tag] = True
                        write_hit_hits += 1
                        write_hit_total += 1
                    else:
                        read_hit_hits += 1
                        read_hit_total += 1
                    now += hit_ns
                    continue
                if is_write:
                    write_hit_total += 1
                else:
                    read_hit_total += 1
                victim_address = None
                if len(ways) >= assoc:
                    victim_tag, victim_dirty = ways.popitem(last=False)
                    cache_evictions += 1
                    if victim_dirty:
                        cache_dirty_evictions += 1
                        victim_address = (
                            victim_tag * n_sets + set_index
                        ) * line_bytes
                ways[tag] = is_write
                request = acquire(read_op, address, now, thread_id)
                response = backend_access(request)
                fill_latency = response.complete_time - now
                release(request)
                if is_write:
                    exposed = fill_latency - overlap_ns
                    if exposed < 0.0:
                        exposed = 0.0
                    stall = exposed * expose
                    write_stall_ns += stall
                else:
                    fill_stall = fill_latency - overlap_ns
                    stall = hit_ns if hit_ns >= fill_stall else fill_stall
                    read_stall_ns += stall
                now += stall
                if victim_address is not None:
                    evictions += 1
                    request = acquire(
                        write_op, victim_address, now, thread_id
                    )
                    response = backend_access(request)
                    release(request)
                    blocked = response.blocked_ns
                    if blocked > 0:
                        write_stall_ns += blocked
                        now += blocked
        finally:
            self.now = now
            self._flush_debt = flush_debt
            stats.compute_ns = compute_ns
            stats.software_ns = software_ns
            stats.read_stall_ns = read_stall_ns
            stats.write_stall_ns = write_stall_ns
            stats.instructions += instr_count
            stats.reads += reads
            stats.writes += writes
            stats.evictions += evictions
            cache.read_hits.record_many(read_hit_hits, read_hit_total)
            cache.write_hits.record_many(write_hit_hits, write_hit_total)
            cache.evictions += cache_evictions
            cache.dirty_evictions += cache_dirty_evictions
        return now

    def _write_back(self, address: int, thread_id: int) -> None:
        """Posted dirty-line write-back; stalls only on backpressure."""
        self.stats.evictions += 1
        request = self._pool.acquire(
            MemoryOp.WRITE, address, self.now, thread_id
        )
        response = self.backend.access(request)
        self._pool.release(request)
        if response.blocked_ns > 0:
            self.stats.write_stall_ns += response.blocked_ns
            self.now += response.blocked_ns

    def flush_cache(self) -> tuple[int, list[int]]:
        """Dump the D$: write back all dirty lines; returns (count, addrs).

        Every engine writes the lines back through scalar ``access``,
        all at the current clock (see :mod:`repro.engine`).
        """
        return self.engine.flush_cache(self)

    def register_stats(self, stats: StatsRegistry) -> None:
        """Publish execution counters and the D$ under this scope."""
        stats.register("exec", lambda: asdict(self.stats))
        self.cache.register_stats(stats.scoped("dcache"))
