"""Seeded litmus-program generators: four classic shapes plus a fuzzer.

Every generator draws all randomness from the injected
``random.Random`` — never module state — so a program is a pure
function of ``(shape, rng)`` and campaigns replay byte-identically at
any parallelism (the :mod:`repro.orchestrate` determinism contract).

The shapes target the orderings the LightPC port stack has actually to
get right:

* ``store-store-reorder``   — two lines racing a barrier; a crash
  between their drains may expose either order, but never an unstored
  value and never a flushed store lost.
* ``flush-without-fence``   — stores after the last flush are
  speculative; the oracle must allow both their presence and absence.
* ``dirty-extent-straddle`` — a store run crossing a wear-randomizer
  unit boundary, cut by SnG mid-writeback.
* ``partition-straddle``    — extents abutting exactly at an
  ``AddressRangePartition`` region boundary, so the cut's write-back
  crosses the seam without dropping or doubling a line.
* ``fuzz``                  — weighted random mix of every opcode.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.litmus.ir import LitmusOp, LitmusProgram, OpKind

__all__ = ["SHAPES", "generate_program"]

#: wear_randomize_unit lines (PSMConfig default) — the straddle shape
#: crosses a multiple of this so its extent spans two randomizer units.
_RANDOMIZE_UNIT = 64


class _Builder:
    """Tiny helper threading unique store versions through a shape."""

    def __init__(self) -> None:
        self.ops: list[LitmusOp] = []
        self._version = 0

    def store(self, line: int) -> None:
        self._version += 1
        self.ops.append(LitmusOp(OpKind.STORE, line, self._version))

    def load(self, line: int) -> None:
        self.ops.append(LitmusOp(OpKind.LOAD, line))

    def flush(self, line: int = 0) -> None:
        self.ops.append(LitmusOp(OpKind.FLUSH, line))

    def fence(self) -> None:
        self.ops.append(LitmusOp(OpKind.FENCE))

    def cut(self) -> None:
        self.ops.append(LitmusOp(OpKind.SNG_CUT))

    def checkpoint(self) -> None:
        self.ops.append(LitmusOp(OpKind.CHECKPOINT))


def _store_store_reorder(rng: random.Random) -> LitmusProgram:
    lines = rng.randrange(4, 9)
    a, b = rng.sample(range(lines), 2)
    build = _Builder()
    build.store(a)
    build.store(b)
    build.flush(a)
    build.store(a)
    build.store(b)
    if rng.random() < 0.5:
        build.fence()
    build.load(b)
    build.load(a)
    return LitmusProgram("store-store-reorder", tuple(build.ops), lines)


def _flush_without_fence(rng: random.Random) -> LitmusProgram:
    lines = rng.randrange(3, 8)
    a = rng.randrange(lines)
    b = (a + 1 + rng.randrange(lines - 1)) % lines
    build = _Builder()
    build.store(a)
    build.flush(a)
    build.store(b)
    build.store(a)
    build.load(a)
    return LitmusProgram("flush-without-fence", tuple(build.ops), lines)


def _dirty_extent_straddle(rng: random.Random) -> LitmusProgram:
    # A run of stores crossing a randomizer-unit boundary, then an SnG
    # cut: the cut's writeback covers one coalesced extent straddling
    # the unit seam, and crash enumeration cuts inside the writeback.
    span = rng.randrange(3, 7)
    start = _RANDOMIZE_UNIT - rng.randrange(1, span)
    lines = _RANDOMIZE_UNIT + span + 2
    build = _Builder()
    for offset in range(span):
        build.store(start + offset)
    build.cut()
    build.store(start + rng.randrange(span))
    build.load(start)
    return LitmusProgram("dirty-extent-straddle", tuple(build.ops), lines)


def _partition_straddle(rng: random.Random) -> LitmusProgram:
    # Two regions split the line space at lines/2; the store run abuts
    # that seam from both sides so the cut's write-back crosses it.
    half = rng.randrange(4, 9)
    lines = 2 * half
    reach = rng.randrange(2, min(half, 4) + 1)
    build = _Builder()
    for line in range(half - reach, half + reach):
        build.store(line)
    build.cut()
    build.store(half - 1)
    build.store(half)
    if rng.random() < 0.5:
        build.flush(half)
    build.load(half - 1)
    return LitmusProgram("partition-straddle", tuple(build.ops), lines,
                         regions=2)


def _fuzz(rng: random.Random) -> LitmusProgram:
    lines = rng.randrange(2, 13)
    regions = 2 if lines >= 4 and rng.random() < 0.25 else 1
    count = rng.randrange(4, 13)
    build = _Builder()
    for _ in range(count):
        roll = rng.random()
        if roll < 0.50:
            build.store(rng.randrange(lines))
        elif roll < 0.65:
            build.load(rng.randrange(lines))
        elif roll < 0.75:
            build.flush(rng.randrange(lines))
        elif roll < 0.85:
            build.fence()
        elif roll < 0.95:
            build.cut()
        else:
            build.checkpoint()
    if not any(op.kind is OpKind.STORE for op in build.ops):
        build.store(rng.randrange(lines))
    return LitmusProgram("fuzz", tuple(build.ops), lines, regions=regions)


SHAPES: dict[str, Callable[[random.Random], LitmusProgram]] = {
    "store-store-reorder": _store_store_reorder,
    "flush-without-fence": _flush_without_fence,
    "dirty-extent-straddle": _dirty_extent_straddle,
    "partition-straddle": _partition_straddle,
    "fuzz": _fuzz,
}


def generate_program(rng: random.Random,
                     shape: Optional[str] = None) -> LitmusProgram:
    """One litmus program; ``shape=None``/``"all"`` picks per-trial."""
    if shape in (None, "all"):
        shape = rng.choice(sorted(SHAPES))
    try:
        generator = SHAPES[shape]
    except KeyError:
        raise ValueError(
            f"unknown litmus shape {shape!r}; "
            f"have {', '.join(sorted(SHAPES))}") from None
    return generator(rng)
