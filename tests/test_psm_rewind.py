"""``PSM.rewind()`` against a fresh build, and the litmus pair cache.

A rewind must leave a PSM as its constructor did.  Each case dirties a
PSM, or a litmus (driven, survivor) pair of one or two regions, with a
functional stream (writes, reads, flushes, drains, power cycles,
register restores, containment marks, resets and Start-Gap moves at
small thresholds), rewinds it, and demands:

- every field equal to a fresh build's, walked object by object;
- the same sharing: the survivor's dies still read the driven dies'
  byte stores and mark sets;
- the same outcome of every step of a follow-on stream, and the same
  fields once it has run.

Two fields are left out of the walk.  A wipe counts in the byte
store's ``version``, so a rewound store may read a higher one.  The
Start-Gap randomizer keeps its memo when a rewind keeps the
randomizer; the memo's entries are checked against a fresh
randomizer instead.
"""

from __future__ import annotations

import random
from dataclasses import replace
from types import FunctionType
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.litmus import engine, run_litmus
from repro.litmus.generate import SHAPES, generate_program
from repro.litmus.ir import LitmusOp, LitmusProgram, OpKind
from repro.memory.port import AddressRange, AddressRangePartition
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem import psm as psm_module
from repro.ocpmem.psm import PSM, PSMConfig
from repro.sim.stats import StatsRegistry
from tests.test_psm_oracle import CONFIGS, build, step, step_st

#: fields a rewind may leave apart from a fresh build (module docstring)
_UNWALKED = {"version", "_unit_memo"}


def _fields(value) -> list[str]:
    return [name for cls in type(value).__mro__
            for name in getattr(cls, "__slots__", ())] + \
        list(getattr(value, "__dict__", {}))


def first_difference(mine, theirs, path: str = "") -> Optional[str]:
    """Where two object graphs first differ, walked field by field, or
    None where they do not."""
    if type(mine) is not type(theirs):
        return f"{path}: {type(mine).__name__} != {type(theirs).__name__}"
    if isinstance(mine, FunctionType):  # Start-Gap's weak move_fn
        mine, theirs = mine.__qualname__, theirs.__qualname__
    if mine is None or isinstance(mine, (bool, int, float, str, bytes,
                                         bytearray, set, frozenset)):
        return None if mine == theirs else \
            f"{path}: {mine!r:.80} != {theirs!r:.80}"
    if isinstance(mine, dict):
        if mine.keys() != theirs.keys():
            return f"{path}: keys {sorted(mine.keys() ^ theirs.keys())!r:.80}"
        pairs = [(f"{path}[{key!r}]", mine[key], theirs[key]) for key in mine]
    elif isinstance(mine, (list, tuple)):
        if len(mine) != len(theirs):
            return f"{path}: {len(mine)} != {len(theirs)} items"
        pairs = [(f"{path}[{index}]", a, b)
                 for index, (a, b) in enumerate(zip(mine, theirs))]
    else:
        names = _fields(mine)
        if names != _fields(theirs):
            return f"{path}: fields {names} != {_fields(theirs)}"
        pairs = [(f"{path}.{name}", getattr(mine, name), getattr(theirs, name))
                 for name in names if name not in _UNWALKED]
    for where, a, b in pairs:
        difference = first_difference(a, b, where)
        if difference is not None:
            return difference
    return None


def psms_of(backend) -> list[PSM]:
    if isinstance(backend, AddressRangePartition):
        return [region.backend for region in backend.regions]
    return [backend]


def assert_as_built(rewound, fresh) -> None:
    """``rewound`` equals ``fresh`` field by field (module docstring)."""
    difference = first_difference(rewound, fresh)
    assert difference is None, difference
    for mine, theirs in zip(psms_of(rewound), psms_of(fresh)):
        for unit, base in mine.wear._unit_memo.items():
            assert base == theirs.wear._randomize_unit(unit)


def media_objects(psm: PSM) -> list:
    return [obj for dimm in psm.nvdimms
            for obj in [dimm._corrupted] + [die.storage for die in dimm.dies]]


def assert_survivor_reads_driven(driven: list[PSM],
                                 survivor: list[PSM]) -> None:
    for mine, theirs in zip(survivor, driven):
        assert all(a is b for a, b in zip(media_objects(mine),
                                           media_objects(theirs)))


# -- one PSM ------------------------------------------------------------------

def _run(psm, items) -> list:
    outcomes, clock = [], 0.0
    for item in items:
        try:
            outcome, clock = step(psm, False, clock, item)
        except Exception as exc:  # a failure is an outcome too
            outcome = ("raised", type(exc), str(exc))
        outcomes.append(outcome)
    return outcomes


def _tracked(psm, name):
    """The wear tracking :func:`tests.test_psm_oracle.build` switches on."""
    _, _, line_wear, die_wear = CONFIGS[name]
    psm.wear.track_wear = line_wear
    for dimm in psm.nvdimms:
        for die in dimm.dies:
            die.track_wear = die_wear
    return psm


#: a stored line with both slots marked, then read: a symbol-ECC
#: correction or a machine check
_BOTH_SLOTS_BAD = [("write", ("hot", 5), 64, True, 0.0, True, 7),
                   ("flush", ("hot", 0), 64, False, 0.0, True, 0),
                   ("corrupt", ("hot", 5), 64, False, 0.0, False, 0),
                   ("corrupt", ("hot", 5), 64, False, 0.0, False, 1),
                   ("read", ("hot", 5), 64, False, 10.0, True, 0)]

#: writes faster than the media drains them: a write stall where the
#: channel is held until programming ends
_WRITE_BURST = [("write", ("hot", n % 3), 64, True, 0.0, False, n)
                for n in range(16)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=12, deadline=None)
@given(dirty=st.lists(step_st, max_size=60),
       follow=st.lists(step_st, min_size=1, max_size=40))
@example(dirty=_BOTH_SLOTS_BAD, follow=_BOTH_SLOTS_BAD)
@example(dirty=_WRITE_BURST, follow=_WRITE_BURST)
def test_rewound_psm_is_a_fresh_build(name, dirty, follow):
    config, functional, _, _ = CONFIGS[name]
    psm = build(psm_module, name)
    registry = StatsRegistry()
    psm.register_stats(registry.scoped("memory"))
    _run(psm, dirty)
    psm.rewind()
    fresh = PSM(config, functional=functional)
    assert_as_built(psm, fresh)
    # registered before the rewind, still reading the live objects
    assert registry.flat() == _flat_stats(fresh)
    assert _run(_tracked(psm, name), follow) == \
        _run(_tracked(fresh, name), follow)
    assert_as_built(psm, fresh)


def _flat_stats(psm) -> dict:
    registry = StatsRegistry()
    psm.register_stats(registry.scoped("memory"))
    return registry.flat()


def test_rewind_keeps_a_rotated_randomizer_honest():
    """A seed rotation replaces the randomizer; the rewind puts the
    configured seed's back."""
    config, functional, _, _ = CONFIGS["rotate-functional"]
    psm = PSM(config, functional=functional)
    for n in range(40):
        psm.access(MemoryRequest(MemoryOp.WRITE, address=(n % 8) * 64,
                                 data=bytes([n]) * 64, time=10.0 * n))
    assert psm.wear.seed_rotations
    assert psm.wear.registers().seed != config.wear_seed
    psm.rewind()
    assert_as_built(psm, PSM(config, functional=functional))
    assert psm.wear.registers().seed == config.wear_seed


# -- litmus (driven, survivor) pairs -----------------------------------------

#: Start-Gap moving every 1-3 writes over lines small enough to reach
_PAIR_CONFIGS = [
    PSMConfig(dimms=2, lines_per_dimm=16, wear_threshold=threshold,
              wear_randomize_unit=1, **extra)
    for threshold in (1, 2, 3)
    for extra in ({}, {"write_aggregation": False,
                       "ecc_reconstruction": False})
]

#: (regions, lines): one PSM, or a partition of two over 8 lines
_TOPOLOGIES = [(1, 8), (2, 8)]


def new_pair(config, regions, lines):
    def backend():
        if regions == 1:
            return PSM(config, functional=True)
        half = lines // 2 * CACHELINE_BYTES
        return AddressRangePartition([
            AddressRange(0, half, PSM(config, functional=True)),
            AddressRange(half, lines * CACHELINE_BYTES,
                         PSM(config, functional=True))])

    driven, survivor = backend(), backend()
    survivor.read_media_of(driven)
    return driven, survivor


_PAIR_KINDS = ("write",) * 5 + ("read",) * 3 + (
    "flush", "drain", "reset", "cycle", "corrupt", "survivor-read",
    "survivor-cycle")

pair_step_st = st.tuples(st.sampled_from(_PAIR_KINDS), st.integers(0, 7),
                         st.integers(0, 255),
                         st.sampled_from((0.0, 10.0, 300.0, 3_000.0)))


def _psm_line(backend, line):
    """The PSM holding ``line`` of ``backend`` and the line within it."""
    if isinstance(backend, AddressRangePartition):
        address = line * CACHELINE_BYTES
        for region in backend.regions:
            if region.start <= address < region.end:
                return region.backend, (address - region.start) \
                    // CACHELINE_BYTES
    return backend, line


def pair_step(driven, survivor, clock, item):
    kind, line, tag, dt = item
    t = clock + dt
    address = line * CACHELINE_BYTES
    if kind in ("write", "read", "reset", "survivor-read"):
        op = {"write": MemoryOp.WRITE, "reset": MemoryOp.RESET}.get(
            kind, MemoryOp.READ)
        port = survivor if kind == "survivor-read" else driven
        response = port.access(MemoryRequest(
            op, address=address, time=t,
            data=bytes([tag]) * 64 if op is MemoryOp.WRITE else None))
        return (response.complete_time, response.occupied_until,
                response.data, response.reconstructed, response.blocked_ns,
                response.error_contained), response.complete_time
    if kind == "flush":
        done = driven.flush(t)
        return done, done
    if kind == "drain":
        done = driven.drain(t)
        return done, done
    if kind in ("cycle", "survivor-cycle"):
        blob = driven.capture_registers()
        port = survivor if kind == "survivor-cycle" else driven
        port.power_cycle()
        port.restore_wear_registers(blob if tag % 3 else b"")
        return blob, t
    assert kind == "corrupt"
    psm, local = _psm_line(driven, line)
    _, dimm, slot_line = psm._translate(local * CACHELINE_BYTES)
    dimm.corrupt_slot(slot_line, tag % 2)
    return None, t


def _run_pair(pair, items) -> list:
    outcomes, clock = [], 0.0
    for item in items:
        try:
            outcome, clock = pair_step(*pair, clock, item)
        except Exception as exc:
            outcome = ("raised", type(exc), str(exc))
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("regions, lines", _TOPOLOGIES,
                         ids=[f"{r}-regions" for r, _ in _TOPOLOGIES])
@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from(_PAIR_CONFIGS),
       dirty=st.lists(pair_step_st, max_size=80),
       follow=st.lists(pair_step_st, min_size=1, max_size=60))
def test_rewound_pair_is_a_fresh_pair(regions, lines, config, dirty, follow):
    pair = new_pair(config, regions, lines)
    _run_pair(pair, dirty)
    for backend in pair:
        for psm in psms_of(backend):
            psm.rewind()
    fresh = new_pair(config, regions, lines)
    for rewound, built in zip(pair, fresh):
        assert_as_built(rewound, built)
    assert_survivor_reads_driven(*map(psms_of, pair))
    assert _run_pair(pair, follow) == _run_pair(fresh, follow)
    for rewound, built in zip(pair, fresh):
        assert_as_built(rewound, built)


def test_the_streams_reach_gap_moves_marks_and_reconstructions():
    pair = new_pair(_PAIR_CONFIGS[0], 2, 8)
    rng = random.Random(0)
    reached = set()
    for _ in range(300):
        item = (rng.choice(_PAIR_KINDS), rng.randrange(8), rng.randrange(256),
                rng.choice((0.0, 10.0, 300.0)))
        _run_pair(pair, [item])
        counters = pair[0].counters()
        for name in ("wear_gap_moves", "reconstructions"):
            if counters[f"region0_{name}"] or counters[f"region1_{name}"]:
                reached.add(name)
        if any(dimm._corrupted for psm in psms_of(pair[0])
               for dimm in psm.nvdimms):
            reached.add("marks")
    assert reached == {"wear_gap_moves", "reconstructions", "marks"}


# -- the engine's pair cache --------------------------------------------------

class TestPairCache:
    def test_one_pair_per_key_rewound_for_each_program(self, monkeypatch):
        monkeypatch.setattr(engine, "_PAIRS", type(engine._PAIRS)())
        programs = [generate_program(random.Random(seed), shape)
                    for shape in sorted(SHAPES) for seed in range(6)]
        pairs = {}
        for program in programs:
            verdict = engine.run_program(program)
            assert verdict.ok
            key = (program.regions, engine._litmus_config())
            pair = engine._PAIRS[key]
            assert pairs.setdefault(key, pair) is pair
            assert [len(psms) for psms in pair] == [program.regions] * 2
            assert_survivor_reads_driven(*pair)
        assert set(pairs) == set(engine._PAIRS) == {
            (regions, engine._litmus_config()) for regions in (1, 2)}

    def test_the_key_holds_the_config(self, monkeypatch):
        monkeypatch.setattr(engine, "_PAIRS", type(engine._PAIRS)())
        program = generate_program(random.Random(0), "partition-straddle")
        engine.run_program(program)
        config = replace(engine._litmus_config(), wear_threshold=2)
        monkeypatch.setattr(engine, "_litmus_config", lambda: config)
        engine.run_program(program)
        assert {key[1] for key in engine._PAIRS} == {
            config, replace(config, wear_threshold=engine._FROZEN_WEAR)}
        driven, survivor = engine._PAIRS[(2, config)]
        assert all(psm.config == config for psm in driven + survivor)

    def test_the_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine, "_PAIRS", type(engine._PAIRS)())
        program = LitmusProgram("t", (LitmusOp(OpKind.STORE, 0, 1),), 2)
        thresholds = range(1, engine._PAIRS_KEPT + 5)
        for threshold in thresholds:
            config = replace(engine._litmus_config(),
                             wear_threshold=threshold)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_litmus_config", lambda: config)
                engine.run_program(program)
        # the least recently used went first
        assert [config.wear_threshold for _, config in engine._PAIRS] == \
            list(thresholds)[-engine._PAIRS_KEPT:]

    def test_a_serial_campaign_builds_one_pair_per_topology(
            self, monkeypatch):
        monkeypatch.setattr(engine, "_PAIRS", type(engine._PAIRS)())
        built = []
        init = PSM.__init__

        def counting_init(psm, *args, **kwargs):
            built.append(psm)
            init(psm, *args, **kwargs)

        monkeypatch.setattr(PSM, "__init__", counting_init)
        report = run_litmus(trials=200, seed=0)
        assert report.ok and report.programs == 200
        # one region and two: a pair of one PSM each, and of two each
        assert [regions for regions, _ in engine._PAIRS] in ([1, 2], [2, 1])
        assert len(built) == 2 * 1 + 2 * 2
