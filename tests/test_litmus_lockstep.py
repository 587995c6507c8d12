"""The one-drive crash-point enumeration against the re-drive reference.

:func:`repro.litmus.engine.run_program` drives each program once and
reads crash points off a survivor backend that shares the driven
chain's media, reusing the last read-back while neither the media nor
the committed registers changed; ``tests/litmus_oracle.py`` re-drives a
fresh chain per crash point and reads every one back.  Both must reach
the same verdict and record the same state at every crash point, every
read-back the engine does make must equal the reference's at that crash
point, and both must report the same counterexamples and minimize a
violating program to the same program.

A read-back is compared whole, not only by its version bytes:
- the wear registers it reads through.  A Start-Gap move copies a line
  and leaves the old slot's bytes in place, so a read-back through the
  registers of the wrong cut mostly reads the right bytes anyway;
- every response (completion time, occupancy, data, reconstruction and
  containment bits).  A survivor that is not power-cycled before a
  read-back serves it from busy dies, which changes the timing and the
  read path long before it changes any byte.
"""

from __future__ import annotations

import random
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.litmus import engine, minimize
from repro.litmus.generate import SHAPES, generate_program
from repro.litmus.minimize import minimize_counterexample
from repro.litmus.oracle import PersistencyModel
from repro.memory.port import Interposer
from tests import litmus_oracle

#: the true model, then each rule flipped on its own
MODELS = [PersistencyModel()] + [
    PersistencyModel(**{rule.name: not rule.default})
    for rule in fields(PersistencyModel)
]
MODEL_IDS = ["true"] + [f"flipped-{rule.name}"
                        for rule in fields(PersistencyModel)]


class _ResponseTap(Interposer):
    """Forwards reads unchanged and keeps every response's fields."""

    def __init__(self, inner):
        super().__init__(inner)
        self.responses: list[tuple] = []

    def access(self, request):
        response = self.inner.access(request)
        self.responses.append((
            request.address, response.complete_time,
            response.occupied_until, response.data, response.reconstructed,
            response.blocked_ns, response.error_contained))
        return response


def _logged(run, program, model):
    """``run(program, model)``, what it read back and what it recorded.

    Every read-back is keyed by the crash point it served (None: the
    run to completion) and kept whole: (wear registers, observation,
    the responses of its reads).  The recorded state of a crash point
    is the engine observer's entry, read fresh or reused; the
    reference reads every crash point back, so its read-backs' are.
    """
    readbacks: dict = {}
    observers: list = []
    serving: list = [None]     # the crash point being read back
    observe_state = engine.observe_state
    execute = litmus_oracle._execute

    def logged(port, program, lines=None):
        registers = port.capture_registers()
        tap = _ResponseTap(port)
        observed = observe_state(tap, program, lines)
        assert serving[0] not in readbacks, ("read back twice", serving[0])
        readbacks[serving[0]] = (registers, observed, tap.responses)
        return observed

    class Observer(engine._CrashObserver):
        def __init__(self, *args):
            super().__init__(*args)
            observers.append(self)

        def _tick(self):
            serving[0] = self.op_index
            super()._tick()
            serving[0] = None

    def execute_logged(program, crash_at):
        serving[0] = crash_at
        return execute(program, crash_at)

    with mock.patch.object(engine, "observe_state", logged), \
            mock.patch.object(engine, "_CrashObserver", Observer), \
            mock.patch.object(litmus_oracle, "observe_state", logged), \
            mock.patch.object(litmus_oracle, "_execute", execute_logged):
        verdict = run(program, model=model)
    if observers:
        recorded = dict(observers[0].observed)
    else:
        recorded = {crash_at: observed
                    for crash_at, (_, observed, _) in readbacks.items()}
    return verdict, readbacks, recorded


def _minimized(run_program, program, model):
    with mock.patch.object(minimize, "run_program", run_program):
        return minimize_counterexample(program, model=model)


def assert_lockstep(program, model):
    verdict, readbacks, recorded = _logged(engine.run_program, program, model)
    reference, reference_readbacks, reference_recorded = _logged(
        litmus_oracle.run_program, program, model)
    assert (verdict.crash_points, verdict.executed, verdict.deduped) == (
        reference.crash_points, reference.executed, reference.deduped)
    assert len(reference_readbacks) == verdict.executed
    # every kept crash point's state, read fresh or reused
    assert recorded.keys() == reference_recorded.keys()
    for crash_at, observed in recorded.items():
        assert observed == reference_recorded[crash_at], (
            program.render(), crash_at)
    # every read-back the engine made, whole
    assert None in readbacks
    for crash_at, readback in readbacks.items():
        assert readback == reference_readbacks[crash_at], (
            program.render(), crash_at)
    assert [v.render() for v in verdict.violations] == \
        [v.render() for v in reference.violations]
    assert verdict.violations == reference.violations
    if verdict.violations:
        assert _minimized(engine.run_program, program, model) == \
            _minimized(litmus_oracle.run_program, program, model)


programs = st.builds(
    lambda shape, seed: generate_program(random.Random(seed), shape),
    st.sampled_from(sorted(SHAPES)), st.integers(0, 2**32 - 1))


#: (wear_threshold, wear_randomize_unit): Start-Gap moves every 1-3
#: writes, with the litmus randomizer unit (gap moves never reach a
#: program's lines) and with one-line units (they do)
WEAR_ACTIVE = [(threshold, unit) for unit in (64, 1)
               for threshold in (1, 2, 3)]


@pytest.fixture(params=WEAR_ACTIVE,
                ids=[f"threshold{t}-unit{u}" for t, u in WEAR_ACTIVE])
def wear_active(request):
    """The litmus PSM config with Start-Gap active, on both sides."""
    threshold, unit = request.param
    config = replace(engine._litmus_config(), wear_threshold=threshold,
                     wear_randomize_unit=unit)
    with mock.patch.object(engine, "_litmus_config", lambda: config):
        yield config


class TestLockstep:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_shape_under_every_rule_set(self, shape, model):
        for seed in range(2):
            assert_lockstep(
                generate_program(random.Random(seed), shape), model)

    @settings(max_examples=60, deadline=None)
    @given(program=programs, model=st.sampled_from(MODELS))
    def test_generated_programs(self, program, model):
        assert_lockstep(program, model)

    def test_the_stream_reaches_both_topologies_and_violations(self):
        regions = {generate_program(random.Random(seed), shape).regions
                   for shape in SHAPES for seed in range(4)}
        assert regions == {1, 2}
        broken = PersistencyModel(fence_is_barrier=True)
        verdict = engine.run_program(
            generate_program(random.Random(0), "store-store-reorder"),
            model=broken)
        assert verdict.violations


class TestWearActiveLockstep:
    """Gap moves land mid-program: a crash point's read-back goes
    through the wear registers the last cut committed."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_shape(self, wear_active, shape):
        for seed in range(3):
            assert_lockstep(
                generate_program(random.Random(seed), shape), MODELS[0])

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(program=programs)
    def test_generated_programs(self, wear_active, program):
        assert_lockstep(program, MODELS[0])

    def test_gap_moves_land_mid_program(self, wear_active):
        remapped = 0
        for seed in range(10):
            program = generate_program(random.Random(seed),
                                       "dirty-extent-straddle")
            backend = engine.litmus_backend(program)
            before = [backend.wear.map(line) for line in range(program.lines)]
            engine.drive_program(backend, program)
            assert backend.counters()["wear_gap_moves"] > 0
            remapped += before != [backend.wear.map(line)
                                   for line in range(program.lines)]
        assert bool(remapped) == (wear_active.wear_randomize_unit == 1)
