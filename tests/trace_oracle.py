"""Reference trace generator: the stdlib-helper formulation.

:meth:`repro.workloads.trace.TraceGenerator.records` inlines the
``random.Random`` helpers it draws from (``randrange``, ``choice``,
``expovariate``) as the same arithmetic on ``random()`` and
``getrandbits()``.  This module keeps the same generator body written
with the helpers themselves, so the oracle test can demand an identical
stream — same records, same RNG consumption, same exception at the same
record — from the inlined version.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator

from repro.memory.request import CACHELINE_BYTES, ROW_BYTES
from repro.workloads.trace import LocalityProfile, TraceRecord

_WORD = 8


class ReferenceTraceGenerator:
    """Same constructor and ``records()`` contract as ``TraceGenerator``."""

    RECENT_WRITES = 64

    def __init__(
        self,
        profile: LocalityProfile,
        seed: int = 0,
        base_address: int = 0,
        footprint_limit: int | None = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.base_address = base_address
        self.footprint_limit = footprint_limit

    def records(self, count: int) -> Iterator[TraceRecord]:
        """Yield ``count`` trace records (regenerable: same seed, same trace)."""
        p = self.profile
        rng = random.Random((self.seed << 16) ^ 0x5CA1AB1E)
        ws_bytes = p.working_set_lines * CACHELINE_BYTES
        if self.footprint_limit is not None:
            ws_bytes = min(ws_bytes, self.footprint_limit)
        hot_bytes = min(p.hot_lines * CACHELINE_BYTES, ws_bytes)
        recent_writes: deque[int] = deque(maxlen=self.RECENT_WRITES)
        seq_pos = 0
        seq_left = 0
        write_page = 0
        continue_run = (
            1.0 - 1.0 / p.sequential_run if p.sequential_run > 1 else 0.0
        )

        for _ in range(count):
            gap = p.instructions_per_access
            instructions = int(rng.expovariate(1.0 / gap)) if gap > 0 else 0
            is_write = rng.random() < p.write_fraction

            if is_write:
                if recent_writes and rng.random() < p.write_line_reuse:
                    # store temporal locality: re-dirty a hot line
                    address = rng.choice(recent_writes) + rng.randrange(
                        0, CACHELINE_BYTES, _WORD
                    )
                elif rng.random() < p.write_page_locality:
                    address = write_page * ROW_BYTES + rng.randrange(
                        0, ROW_BYTES, _WORD
                    )
                else:
                    address = rng.randrange(0, ws_bytes, _WORD)
                    write_page = address // ROW_BYTES
                recent_writes.append(address - address % CACHELINE_BYTES)
            elif recent_writes and rng.random() < p.read_after_write:
                # Read-after-write traffic targets the *page* of a recent
                # store: sibling lines of a freshly-dirtied region (wrf's
                # forecast-history pattern).  The exact written line would
                # still be cached; its page neighbours reach memory and
                # collide with the in-flight programming.
                written = rng.choice(recent_writes)
                page_base = written - written % ROW_BYTES
                address = page_base + rng.randrange(0, ROW_BYTES, _WORD)
            elif seq_left > 0 or rng.random() < p.sequential_fraction:
                if seq_left <= 0:
                    # streams mostly revisit the hot region (loop bodies
                    # re-scanning resident arrays); cold streams are rare
                    span = hot_bytes if rng.random() < p.hot_fraction else ws_bytes
                    seq_pos = rng.randrange(0, span, _WORD)
                    seq_left = max(1, int(rng.expovariate(1.0 / p.sequential_run)))
                address = seq_pos
                seq_pos = (seq_pos + _WORD) % ws_bytes
                seq_left -= 1
                if rng.random() > continue_run:
                    seq_left = 0
            elif rng.random() < p.hot_fraction:
                address = rng.randrange(0, hot_bytes, _WORD)
            else:
                address = rng.randrange(0, ws_bytes, _WORD)

            yield TraceRecord(
                instructions=instructions,
                address=self.base_address + address,
                is_write=is_write,
            )
