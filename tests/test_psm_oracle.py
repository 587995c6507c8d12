"""The PSM service path against its per-call reference.

:mod:`tests.psm_oracle` keeps the PSM, Start-Gap, Bare-NVDIMM, PRAM die,
byte storage and XOR codec as they were before the service path was made
lean.  Every stream here drives the reference and :class:`repro.ocpmem.PSM`
in lockstep through the same accesses, flushes, drains, power cycles and
injected faults, and demands the same outcome of every step (response
fields with their types, returned times, exception type and message) and
the same state at the end: counters, the stats tree, the wear registers
and maps, and every die's timing, counts, wear and stored bytes.

A write whose data is not a whole 64 B line is the one step the two no
longer share: the reference accepted it and failed when the line was
programmed, the PSM refuses it before any state changes.  Such a step
is checked against that contract instead and not fed to the reference.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.device import PRAMDevice, PRAMTiming
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem import psm as psm_module
from repro.ocpmem.psm import PSM, PSMConfig
from repro.ocpmem.wear import WearRegisters
from repro.sim.stats import StatsRegistry
from tests import psm_oracle

_SMALL = dict(dimms=2, lines_per_dimm=256)
_ROTATE = dict(dimms=2, lines_per_dimm=16, rotate_seed_every=1,
               wear_threshold=1)
_TIMING = PRAMTiming(read_ns=55.0, write_service_ns=900.0, cooling_ns=350.0,
                     accept_ns=6.0)

#: name -> (config, functional, Start-Gap track_wear, die track_wear)
CONFIGS = {
    "lightpc": (PSMConfig.lightpc(**_SMALL), False, False, False),
    "lightpc-functional": (PSMConfig.lightpc(**_SMALL), True, False, False),
    "lightpc_b": (PSMConfig.lightpc_b(**_SMALL), False, False, False),
    "lightpc_b-functional": (PSMConfig.lightpc_b(**_SMALL), True, False,
                             False),
    "dram_like": (PSMConfig.lightpc(layout="dram_like", **_SMALL), False,
                  False, False),
    "dram_like-functional": (PSMConfig.lightpc(layout="dram_like",
                                               wear_threshold=7, **_SMALL),
                             True, False, False),
    "dram_like-b": (PSMConfig.lightpc_b(layout="dram_like", **_SMALL), False,
                    False, False),
    "wear-tracking": (PSMConfig.lightpc(wear_threshold=5, **_SMALL), True,
                      True, True),
    "wear-tracking-b": (PSMConfig.lightpc_b(wear_threshold=5, **_SMALL),
                        False, True, True),
    "rotate": (PSMConfig.lightpc(wear_randomize_unit=1, **_ROTATE), False,
               True, True),
    "rotate-functional": (PSMConfig.lightpc(wear_randomize_unit=1, **_ROTATE),
                          True, True, False),
    "rotate-unit-b": (PSMConfig.lightpc_b(wear_randomize_unit=4, **_ROTATE),
                      True, False, True),
    "symbol-ecc": (PSMConfig.lightpc(symbol_ecc=True, **_SMALL), True, False,
                   False),
    "symbol-ecc-b": (PSMConfig.lightpc_b(symbol_ecc=True, **_SMALL), True,
                     False, False),
    "pram-timing": (PSMConfig.lightpc(pram_timing=_TIMING, **_SMALL), True,
                    False, False),
    "pram-timing-b": (PSMConfig.lightpc_b(pram_timing=_TIMING, **_SMALL),
                      False, False, True),
    "tail-unit": (PSMConfig.lightpc(dimms=3, lines_per_dimm=100,
                                    wear_threshold=3), True, True, False),
}

#: hot lines: two pages of one DIMM's row buffer and their neighbours
_HOT = tuple(range(0, 8)) + tuple(range(126, 134)) + (255, 256, 300, 301)

_KINDS = (("read",) * 5 + ("write",) * 6
          + ("flush-op", "reset-op", "flush", "drain", "cycle", "corrupt"))

_target = st.one_of(
    st.sampled_from(_HOT).map(lambda line: ("hot", line)),
    st.sampled_from(_HOT).map(lambda line: ("hot", line)),
    st.integers(0, 1 << 20).map(lambda n: ("any", n)),
    st.integers(0, 40).map(lambda n: ("past", n)),
)

step_st = st.tuples(
    st.sampled_from(_KINDS),
    _target,
    st.sampled_from((64,) * 8 + (32, 8, 128)),
    st.booleans(),
    st.sampled_from((0.0, 0.0, 1.0, 12.5, 150.0, 1_000.0, 2_600.0, 7_000.0,
                     -400.0, -3_000.0)),
    st.booleans(),
    st.integers(0, 255),
)
streams = st.lists(step_st, min_size=1, max_size=70)


def build(module, name):
    config, functional, line_wear, die_wear = CONFIGS[name]
    psm = module.PSM(config, functional=functional)
    psm.wear.track_wear = line_wear
    for dimm in psm.nvdimms:
        for die in dimm.dies:
            die.track_wear = die_wear
    return psm


def _typed(values):
    return tuple((type(v), v) for v in values)


def _line(target, lines: int) -> int:
    kind, n = target
    if kind == "past":
        return lines + n  # past the host-visible capacity
    return n % lines


def _payload(size: int, tag: int) -> bytes:
    return bytes((tag + 37 * i) & 0xFF for i in range(size))


def _registers_of(blob: bytes, reference: bool):
    if not blob:
        return None
    return pickle.loads(blob) if reference else WearRegisters.unpack(blob)


def step(psm, reference: bool, clock: float, item):
    """Apply one stream item; returns (outcome, next clock)."""
    kind, target, size, with_data, dt, advance, tag = item
    t = max(0.0, clock + dt)
    line = _line(target, psm.wear.lines)
    address = line * CACHELINE_BYTES + (tag & 8)
    if kind in ("read", "write", "flush-op", "reset-op"):
        op = {"read": MemoryOp.READ, "write": MemoryOp.WRITE,
              "flush-op": MemoryOp.FLUSH, "reset-op": MemoryOp.RESET}[kind]
        data = _payload(size, tag) if with_data and op is not MemoryOp.FLUSH \
            else None
        request = MemoryRequest(op, address=address, size=size, time=t,
                                data=data)
        response = psm.access(request)
        outcome = _typed((
            response.complete_time, response.occupied_until, response.data,
            response.reconstructed, response.blocked_ns,
            response.error_contained, response.request is request,
        ))
        return outcome, response.complete_time if advance else t
    if kind == "flush":
        done = psm.flush(t)
        return _typed((done,)), done if advance else t
    if kind == "drain":
        done = psm.drain(t)
        return _typed((done,)), done if advance else t
    if kind == "cycle":
        blob = psm.capture_registers()
        captured = _registers_of(blob, reference)
        psm.power_cycle()
        psm.restore_wear_registers(blob if tag % 4 else b"")
        return (captured, psm.wear.registers()), t
    assert kind == "corrupt"
    _, dimm, local = psm._translate(address)
    dimm.corrupt_slot(local, tag % 2)
    return None, t


def _cooling(die, rows) -> tuple:
    return tuple(die.cooling_until(row * die.ROW_BYTES) for row in rows)


def _stored(storage, blocks) -> tuple:
    return tuple(storage.read(block * CACHELINE_BYTES, CACHELINE_BYTES)
                 for block in blocks)


def state_of(psm, rows_touched, blocks_written):
    """Everything observable about a PSM once a stream has run."""
    registry = StatsRegistry()
    psm.register_stats(registry.scoped("memory"))
    wear = psm.wear
    dies = [die for dimm in psm.nvdimms for die in dimm.dies]
    return {
        "counters": _typed(x for item in psm.counters().items() for x in item),
        "stats": registry.flat(),
        "scalars": _typed((
            psm.background_ns, psm.mce_count, psm.xcc.encodes,
            psm.xcc.reconstructions,
            None if psm.symbol_ecc is None else psm.symbol_ecc.corrections,
        )),
        "registers": wear.registers(),
        "wear": (wear.physical_writes, wear.seed_rotations, wear.gap_moves),
        "dies": [
            (die.busy_until, _cooling(die, rows_touched[i]), die.read_count,
             die.write_count, die.wear, bool(die.storage._bytes),
             _stored(die.storage, blocks_written[i]))
            for i, die in enumerate(dies)
        ],
        "corrupted": [sorted(dimm._corrupted) for dimm in psm.nvdimms],
    }


def _touched(reference_psm, psm):
    """Rows with a cooling window and 64 B blocks holding bytes, per die,
    on either side (a row or block only one side knows still counts)."""
    ref_dies = [d for dimm in reference_psm.nvdimms for d in dimm.dies]
    dies = [d for dimm in psm.nvdimms for d in dimm.dies]
    rows = [sorted(set(a._cooling) | set(b._cooling))
            for a, b in zip(ref_dies, dies)]
    blocks = [sorted({addr // CACHELINE_BYTES for addr in a.storage._bytes}
                     | set(b.storage._bytes))
              for a, b in zip(ref_dies, dies)]
    return rows, blocks


def _sub_line_write(item) -> bool:
    kind, _, size, with_data = item[:4]
    return kind == "write" and with_data and size < CACHELINE_BYTES


def run_lockstep(name, items):
    reference = build(psm_oracle, name)
    psm = build(psm_module, name)
    ref_clock = clock = 0.0
    for index, item in enumerate(items):
        if _sub_line_write(item):
            # The reference accepted a partial line and failed later;
            # the PSM now refuses it up front and changes nothing.
            rows, blocks = _touched(reference, psm)
            before = state_of(psm, rows, blocks), dict(psm._pending)
            with pytest.raises(ValueError, match="whole 64 B lines"):
                step(psm, False, clock, item)
            assert (state_of(psm, rows, blocks), dict(psm._pending)) == \
                before, (name, index, item)
            continue
        try:
            expected, ref_clock = step(reference, True, ref_clock, item)
        except Exception as exc:  # the reference's failures are outcomes
            expected = ("raised", type(exc), str(exc))
        try:
            got, clock = step(psm, False, clock, item)
        except Exception as exc:
            got = ("raised", type(exc), str(exc))
        assert got == expected, (name, index, item)
        assert clock == ref_clock
    rows, blocks = _touched(reference, psm)
    assert state_of(psm, rows, blocks) == state_of(reference, rows, blocks)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=30, deadline=None)
@given(items=streams)
def test_streams_match_reference(name, items):
    run_lockstep(name, items)


@pytest.mark.parametrize("name", ["lightpc-functional",
                                  "lightpc_b-functional", "symbol-ecc-b",
                                  "rotate-functional"])
@settings(max_examples=15, deadline=None)
@given(items=st.lists(step_st, min_size=100, max_size=300))
def test_long_streams_match_reference(name, items):
    run_lockstep(name, items)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_page_sweep_matches_reference(name):
    """Fixed stream: write every line in page order twice with data,
    read it all back, flush, cycle power restoring the registers, read
    it all again, then cycle power with nothing captured (the mapping
    falls back to the configured seed) and read it all once more."""
    lines = CONFIGS[name][0].total_lines - 1
    items = []
    for tag in (3, 4):
        items += [("write", ("any", n), 64, True, 30.0, False, tag + n)
                  for n in range(lines)]
    items += [("read", ("any", n), 64, False, 10.0, True, 0)
              for n in range(lines)]
    items += [("flush", ("any", 0), 64, False, 0.0, True, 0),
              ("corrupt", ("hot", 5), 64, False, 0.0, False, 0),
              ("corrupt", ("hot", 6), 64, False, 0.0, False, 1),
              ("corrupt", ("hot", 6), 64, False, 0.0, False, 0),
              ("cycle", ("any", 0), 64, False, 0.0, False, 1)]
    items += [("read", ("any", n), 64, False, 10.0, True, 0)
              for n in range(lines)]
    items += [("cycle", ("any", 0), 64, False, 0.0, False, 0)]
    items += [("read", ("any", n), 64, False, 10.0, True, 0)
              for n in range(lines)]
    run_lockstep(name, items)


def test_default_die_timing_is_shared_and_equal():
    """Dies share one timing record per PSM; it equals a fresh default."""
    psm = PSM(PSMConfig(dimms=2, lines_per_dimm=64))
    timings = {id(die.timing) for dimm in psm.nvdimms for die in dimm.dies}
    assert len(timings) == 1
    assert psm.nvdimms[0].dies[0].timing == PRAMTiming()
    assert PRAMDevice(64).timing == PRAMTiming()
