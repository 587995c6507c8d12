"""Locality-controlled synthetic memory-reference traces.

The paper's 17 workloads were ported to RISC-V and run on the prototype;
here they are substituted by synthetic traces whose *measurable*
characteristics — read/write mix, D$ hit ratios, row-buffer locality,
read-after-write tendency — are controlled by a :class:`LocalityProfile`
and land near the paper's Table II when replayed through the real cache
model (the characterization experiment measures them back; see
``repro.analysis.experiments.table2``).

The generator composes four address streams:

* a **hot set** sized to (mostly) fit the 16 KB D$ — temporal reuse,
* **sequential runs** at 8 B stride — spatial locality within lines,
* a **cold working set** — capacity misses,
* a **recent-write window** — read-after-write traffic, the access
  pattern that provokes the head-of-line blocking LightPC's PSM removes.

Writes cluster in a slowly-rotating *write page* with configurable
probability, which is what produces PSM row-buffer hits and, in the
baseline, write bursts that serialize on the PRAM dies.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.memory.request import CACHELINE_BYTES, ROW_BYTES

__all__ = ["LocalityProfile", "TraceGenerator", "TraceRecord"]

_WORD = 8  # access granularity within a line

# ``randrange(0, n, _WORD)`` draws a word index below ``(n + _WORD - 1) //
# _WORD`` with ``bit_length()`` random bits per try; the two fixed spans:
_LINE_WORDS = (CACHELINE_BYTES + _WORD - 1) // _WORD
_LINE_BITS = _LINE_WORDS.bit_length()
_ROW_WORDS = (ROW_BYTES + _WORD - 1) // _WORD
_ROW_BITS = _ROW_WORDS.bit_length()
_EMPTY_RANGE = "empty range for randrange()"


class TraceRecord(NamedTuple):
    """One memory reference plus the compute preceding it.

    A plain ``(instructions, address, is_write)`` tuple: the per-record
    consumers unpack it positionally, so any such triple is a record.
    """

    instructions: int
    address: int
    is_write: bool


@dataclass(frozen=True)
class LocalityProfile:
    """Knobs controlling a synthetic workload's memory behaviour."""

    working_set_lines: int = 16_384
    hot_lines: int = 192
    hot_fraction: float = 0.9
    #: Expected length (in 8 B words) of a sequential run.
    sequential_run: float = 8.0
    #: Probability a reference enters/continues a sequential run.
    sequential_fraction: float = 0.2
    write_fraction: float = 0.2
    #: Probability a read targets the page of a recent write.  This is the
    #: *CPU-level* probability; keep it near the target miss rate so the
    #: D$ hit ratio survives — the share of *memory-level* reads that are
    #: read-after-write is then raw / miss-rate.
    read_after_write: float = 0.1
    #: Probability a write lands in the current write page.
    write_page_locality: float = 0.7
    #: Probability a write re-dirties a recently written line (store
    #: temporal locality; drives the D$ write-hit ratio).
    write_line_reuse: float = 0.0
    #: Mean compute instructions between memory references.
    instructions_per_access: float = 3.0

    def __post_init__(self) -> None:
        if self.hot_lines > self.working_set_lines:
            raise ValueError("hot set cannot exceed the working set")
        for name in ("hot_fraction", "sequential_fraction", "write_fraction",
                     "read_after_write", "write_page_locality",
                     "write_line_reuse"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


class TraceGenerator:
    """Deterministic, lazily-evaluated trace stream for one thread."""

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
        """Yield ``count`` trace records (regenerable: same seed, same trace).

        The draws are the ``random.Random`` helpers' own arithmetic on the
        bound ``random`` and ``getrandbits`` methods: ``randrange(0, n, 8)``
        is ``8 * r`` for ``r`` from the ``_randbelow_with_getrandbits``
        rejection loop over ``(n + 7) // 8`` words, ``choice(deque)`` is
        the same loop over ``len(deque)``, and ``expovariate(lambd)`` is
        ``-log(1.0 - random()) / lambd``.  So the stream, the generator
        state and the point where a degenerate profile raises are the
        helpers' (``tests/trace_oracle.py`` keeps the helper formulation
        as the reference).
        """
        p = self.profile
        rng = random.Random((self.seed << 16) ^ 0x5CA1AB1E)
        random_ = rng.random
        getrandbits = rng.getrandbits
        log = math.log
        new_record = tuple.__new__
        base = self.base_address
        ws_bytes = p.working_set_lines * CACHELINE_BYTES
        if self.footprint_limit is not None:
            ws_bytes = min(ws_bytes, self.footprint_limit)
        hot_bytes = min(p.hot_lines * CACHELINE_BYTES, ws_bytes)
        ws_words = (ws_bytes + _WORD - 1) // _WORD
        ws_bits = ws_words.bit_length()
        hot_words = (hot_bytes + _WORD - 1) // _WORD
        hot_bits = hot_words.bit_length()
        recent_writes: deque[int] = deque(maxlen=self.RECENT_WRITES)
        seq_pos = 0
        seq_left = 0
        write_page = 0
        continue_run = (
            1.0 - 1.0 / p.sequential_run if p.sequential_run > 1 else 0.0
        )
        gap = p.instructions_per_access
        gap_lambd = 1.0 / gap if gap > 0 else 0.0
        write_fraction = p.write_fraction
        write_line_reuse = p.write_line_reuse
        write_page_locality = p.write_page_locality
        read_after_write = p.read_after_write
        sequential_fraction = p.sequential_fraction
        hot_fraction = p.hot_fraction

        for _ in range(count):
            if gap > 0:  # expovariate(gap_lambd)
                instructions = int(-log(1.0 - random_()) / gap_lambd)
            else:
                instructions = 0
            is_write = random_() < write_fraction

            if is_write:
                if recent_writes and random_() < write_line_reuse:
                    # store temporal locality: re-dirty a hot line
                    n = len(recent_writes)  # choice(recent_writes)
                    k = n.bit_length()
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    written = recent_writes[r]
                    # + randrange(0, CACHELINE_BYTES, _WORD)
                    r = getrandbits(_LINE_BITS)
                    while r >= _LINE_WORDS:
                        r = getrandbits(_LINE_BITS)
                    address = written + _WORD * r
                elif random_() < write_page_locality:
                    # randrange(0, ROW_BYTES, _WORD)
                    r = getrandbits(_ROW_BITS)
                    while r >= _ROW_WORDS:
                        r = getrandbits(_ROW_BITS)
                    address = write_page * ROW_BYTES + _WORD * r
                else:
                    # randrange(0, ws_bytes, _WORD), which raises on an
                    # empty range where getrandbits(0) == 0 would spin
                    r = getrandbits(ws_bits)
                    while r >= ws_words:
                        if ws_words <= 0:
                            raise ValueError(_EMPTY_RANGE)
                        r = getrandbits(ws_bits)
                    address = _WORD * r
                    write_page = address // ROW_BYTES
                recent_writes.append(address - address % CACHELINE_BYTES)
            elif recent_writes and random_() < read_after_write:
                # Read-after-write traffic targets the *page* of a recent
                # store: sibling lines of a freshly-dirtied region (wrf's
                # forecast-history pattern).  The exact written line would
                # still be cached; its page neighbours reach memory and
                # collide with the in-flight programming.
                n = len(recent_writes)  # choice(recent_writes)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                written = recent_writes[r]
                page_base = written - written % ROW_BYTES
                # + randrange(0, ROW_BYTES, _WORD)
                r = getrandbits(_ROW_BITS)
                while r >= _ROW_WORDS:
                    r = getrandbits(_ROW_BITS)
                address = page_base + _WORD * r
            elif seq_left > 0 or random_() < sequential_fraction:
                if seq_left <= 0:
                    # streams mostly revisit the hot region (loop bodies
                    # re-scanning resident arrays); cold streams are rare
                    if random_() < hot_fraction:
                        n, k = hot_words, hot_bits
                    else:
                        n, k = ws_words, ws_bits
                    r = getrandbits(k)  # randrange(0, span, _WORD)
                    while r >= n:
                        if n <= 0:
                            raise ValueError(_EMPTY_RANGE)
                        r = getrandbits(k)
                    seq_pos = _WORD * r
                    # expovariate(1.0 / sequential_run): the rate is taken
                    # here, so a zero run length raises where it always did
                    lambd = 1.0 / p.sequential_run
                    seq_left = max(1, int(-log(1.0 - random_()) / lambd))
                address = seq_pos
                seq_pos = (seq_pos + _WORD) % ws_bytes
                seq_left -= 1
                if random_() > continue_run:
                    seq_left = 0
            else:
                if random_() < hot_fraction:
                    n, k = hot_words, hot_bits
                else:
                    n, k = ws_words, ws_bits
                r = getrandbits(k)  # randrange(0, n_bytes, _WORD)
                while r >= n:
                    if n <= 0:
                        raise ValueError(_EMPTY_RANGE)
                    r = getrandbits(k)
                address = _WORD * r

            yield new_record(TraceRecord, (instructions, base + address, is_write))

    def columns(self, count: int) -> tuple[list[int], list[int], list[bool]]:
        """The same trace as (instructions, addresses, is_write) columns.

        Same records in the same order as :meth:`records`, shaped for
        :func:`repro.workloads.trace_io.save_trace_columnar`.
        """
        instructions: list[int] = []
        addresses: list[int] = []
        writes: list[bool] = []
        for instruction_count, address, is_write in self.records(count):
            instructions.append(instruction_count)
            addresses.append(address)
            writes.append(is_write)
        return instructions, addresses, writes
