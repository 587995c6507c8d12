"""Workload characterization — reproducing the paper's Table II method.

The paper profiles each ported workload's memory behaviour (read/write
counts and ratio, D$ hit ratios, row-buffer hits, threading) on the
prototype.  Here the same quantities are *measured back* from the
synthetic traces through the real cache and row-buffer models, so the
registry's calibration targets are verified by measurement rather than
asserted.

Ratios are steady-state: each thread's trace is replayed once to warm
its cache, counters are reset, and a second replay is measured — the
paper's long runs amortize cold misses the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.cache import Cache, CacheConfig
from repro.memory.rowbuffer import WriteAggregationBuffer
from repro.workloads.suites import Workload

__all__ = ["Characterization", "characterize"]


@dataclass(frozen=True)
class Characterization:
    """Measured Table II row for one workload."""

    workload: str
    reads: int
    writes: int
    rw_ratio: float
    read_hit: float
    write_hit: float
    #: PSM row-buffer hit ratio of the write stream
    rb_hit: float
    rb_hits: int
    threads: int


def characterize(workload: Workload, refs: int | None = None) -> Characterization:
    """Measure one workload's Table II quantities from its traces."""
    reads = writes = 0
    read_hits = read_total = 0
    write_hits = write_total = 0
    rb_hits = rb_total = 0

    for trace in workload.traces(refs):
        cache = Cache(CacheConfig())
        for _, address, is_write in trace:  # warmup pass
            cache.access(address, is_write)
        cache.reset_stats()
        buffer = WriteAggregationBuffer(beat_bytes=64)
        for _, address, is_write in trace:  # measured pass
            cache.access(address, is_write)
            if is_write:
                writes += 1
                absorbed, _ = buffer.write(0.0, address)
                rb_hits += absorbed
                rb_total += 1
            else:
                reads += 1
        read_hits += cache.read_hits.hits
        read_total += cache.read_hits.total
        write_hits += cache.write_hits.hits
        write_total += cache.write_hits.total

    return Characterization(
        workload=workload.name,
        reads=reads,
        writes=writes,
        rw_ratio=reads / max(writes, 1),
        read_hit=read_hits / max(read_total, 1),
        write_hit=write_hits / max(write_total, 1),
        rb_hit=rb_hits / max(rb_total, 1),
        rb_hits=rb_hits,
        threads=workload.threads,
    )
