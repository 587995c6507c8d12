"""The crash-consistency litmus engine, end to end.

Covers the IR/timeline algebra, generator determinism, the persistency
oracle's rule folding, the lowering's port traffic pinned tick for tick
to the timeline, exhaustive crash-point enumeration, the prefix-digest
dedup, the intentionally
broken oracle rules (the engine must *detect* a violation and emit a
1-minimal counterexample), campaign determinism (serial == parallel,
byte-identical) and the ``repro litmus`` CLI.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.litmus import (
    SHAPES,
    build_timeline,
    engine,
    generate_program,
    minimize_counterexample,
    run_litmus,
    run_program,
)
from repro.litmus.campaign import LitmusOutcome, litmus_trial
from repro.litmus.engine import drive_program, litmus_backend
from repro.litmus.ir import (
    LitmusOp,
    LitmusProgram,
    OpKind,
    crash_prefixes,
    iter_crash_points,
    line_value,
    prefix_digest,
    prefix_events,
    total_ticks,
)
from repro.litmus.oracle import (
    AllowedState,
    PersistencyModel,
    allowed_after,
    check_observation,
)
from repro.memory.port import FaultInjector, Interposer
from repro.memory.request import CACHELINE_BYTES, MemoryOp
from tests.litmus_oracle import _execute


def _program(*ops: LitmusOp, lines: int = 8,
             regions: int = 1) -> LitmusProgram:
    return LitmusProgram("t", tuple(ops), lines, regions=regions)


S = lambda line, version: LitmusOp(OpKind.STORE, line, version)  # noqa: E731
L = lambda line: LitmusOp(OpKind.LOAD, line)                     # noqa: E731
F = lambda line=0: LitmusOp(OpKind.FLUSH, line)                  # noqa: E731
FENCE = LitmusOp(OpKind.FENCE)
CUT = LitmusOp(OpKind.SNG_CUT)
MARK = LitmusOp(OpKind.CHECKPOINT)

#: a seed whose store-store-reorder program includes a fence and passes
#: under the true model but violates under ``fence_is_barrier``
_FENCE_SEED = 0


class TestIR:
    def test_timeline_ticks_per_opcode(self):
        program = _program(S(0, 1), L(0), F(0), FENCE, MARK)
        timeline = build_timeline(program)
        assert [(e.event[0], e.ticks) for e in timeline] == [
            ("store", 1), ("load", 1), ("flush", 1), ("fence", 1),
            ("checkpoint", 0),
        ]
        assert total_ticks(timeline) == 4

    def test_cut_expands_to_sorted_writebacks_flush_commit(self):
        program = _program(S(3, 1), S(1, 2), CUT, S(3, 3), CUT)
        events = [e.event for e in build_timeline(program)]
        assert events == [
            ("store", 3, 1), ("store", 1, 2),
            ("writeback", 1), ("writeback", 3), ("flush",), ("commit",),
            ("store", 3, 3),
            ("writeback", 3), ("flush",), ("commit",),
        ]
        # the commit marker costs no injector tick
        assert total_ticks(build_timeline(program)) == 8

    def test_prefix_events_stops_before_crash_tick(self):
        program = _program(S(0, 1), S(1, 2), CUT)
        timeline = build_timeline(program)
        assert prefix_events(timeline, 0) == []
        assert prefix_events(timeline, 2) == [("store", 0, 1),
                                              ("store", 1, 2)]
        # crash exactly on the cut's flush: writebacks applied, no commit
        assert prefix_events(timeline, 4)[-1] == ("writeback", 1)
        # one tick later the flush applied and the commit marker with it
        assert prefix_events(timeline, 5)[-2:] == [("flush",), ("commit",)]

    def test_digest_ignores_loads_but_not_fences(self):
        stores = (S(0, 1),)
        plain = build_timeline(_program(*stores, L(0)))
        with_load = build_timeline(_program(*stores, L(1)))
        assert prefix_digest(plain, 2) == prefix_digest(with_load, 2)
        fenced = build_timeline(_program(*stores, FENCE))
        # a broken fence_is_barrier model distinguishes these prefixes,
        # so dedup must too — fences stay in the digest
        assert prefix_digest(plain, 2) != prefix_digest(fenced, 2)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_crash_prefixes_match_the_per_point_walks(self, shape):
        for seed in range(8):
            timeline = build_timeline(
                generate_program(random.Random(seed), shape))
            points = list(crash_prefixes(timeline))
            assert [crash_at for crash_at, _, _ in points] == \
                list(iter_crash_points(timeline))
            for crash_at, digest, events in points:
                assert digest == prefix_digest(timeline, crash_at)
                assert events == prefix_events(timeline, crash_at)

    def test_iter_crash_points_ends_with_completion(self):
        timeline = build_timeline(_program(S(0, 1), F(0)))
        assert list(iter_crash_points(timeline)) == [0, 1, None]

    def test_line_value_is_whole_line(self):
        assert line_value(7) == bytes([7]) * 64
        assert len(set(line_value(200))) == 1

    def test_program_validation(self):
        with pytest.raises(ValueError):
            _program(S(99, 1), lines=4)          # line out of range
        with pytest.raises(ValueError):
            _program(S(0, 1), S(1, 1))           # duplicate version
        with pytest.raises(ValueError):
            _program(S(0, 0))                    # version 0 is "initial"
        with pytest.raises(ValueError):
            LitmusProgram("t", (), lines=0)

    def test_observe_lines_covers_stores_and_neighbours(self):
        program = _program(S(3, 1), lines=8)
        assert program.observe_lines() == [2, 3, 4]


class TestGenerators:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_deterministic_per_seed(self, shape):
        a = generate_program(random.Random(42), shape)
        b = generate_program(random.Random(42), shape)
        assert a == b
        assert a.name == shape

    def test_all_picks_a_shape_from_the_registry(self):
        program = generate_program(random.Random(7), "all")
        assert program.name in SHAPES

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown litmus shape"):
            generate_program(random.Random(0), "nope")

    def test_partition_straddle_has_two_regions_abutting_stores(self):
        program = generate_program(random.Random(3), "partition-straddle")
        assert program.regions == 2
        half = program.lines // 2
        stored = program.stored_lines()
        assert half - 1 in stored and half in stored

    @pytest.mark.parametrize("seed", range(20))
    def test_fuzz_always_stores_something(self, seed):
        program = generate_program(random.Random(seed), "fuzz")
        assert program.stored_lines()


class TestOracle:
    LINES = (0, 1)

    def test_flush_is_the_only_default_barrier(self):
        events = [("store", 0, 1), ("fence",), ("store", 0, 2)]
        states = allowed_after(events, self.LINES)
        assert states[0].allowed(PersistencyModel()) == {0, 1, 2}
        events.append(("flush",))
        states = allowed_after(events, self.LINES)
        assert states[0].allowed(PersistencyModel()) == {2}

    def test_broken_fence_rule_changes_the_allowed_set(self):
        events = [("store", 0, 1), ("fence",)]
        broken = PersistencyModel(fence_is_barrier=True)
        states = allowed_after(events, self.LINES, broken)
        assert states[0].allowed(broken) == {1}

    def test_strict_no_early_drain_rule(self):
        strict = PersistencyModel(stores_may_drain_early=False)
        states = allowed_after([("store", 0, 1)], self.LINES, strict)
        assert states[0].allowed(strict) == {0}

    def test_check_observation_final_demands_latest(self):
        states = {0: AllowedState(base=0, maybe={1}, latest=1)}
        ok = check_observation({0: (1, False)}, states,
                               PersistencyModel(), final=True)
        assert ok == []
        bad = check_observation({0: (0, False)}, states,
                                PersistencyModel(), final=True)
        assert bad == [(0, 0, (1,), False)]

    def test_torn_line_always_violates(self):
        states = {0: AllowedState(base=0, maybe={1}, latest=1)}
        bad = check_observation({0: (1, True)}, states, PersistencyModel())
        assert bad and bad[0][3] is True


class _Recorder(Interposer):
    """Logs every port operation as the timeline event it should tick."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log: list[tuple] = []

    def access(self, request):
        line = request.address // CACHELINE_BYTES
        if request.op is MemoryOp.READ:
            self.log.append(("load", line))
        elif request.data is None:
            self.log.append(("writeback", line))
        else:
            self.log.append(("store", line, request.data[0]))
        return self.inner.access(request)

    def flush(self, time):
        self.log.append(("flush",))
        return self.inner.flush(time)

    def drain(self, time):
        self.log.append(("fence",))
        return self.inner.drain(time)


class TestLoweringTimeline:
    """The lowering's port traffic is the timeline, tick for tick: the
    crash index the enumerator arms names exactly the event the oracle
    folds."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_port_traffic_matches_timeline(self, shape):
        for seed in range(8):
            program = generate_program(random.Random(seed), shape)
            timeline = build_timeline(program)
            injector = FaultInjector(litmus_backend(program),
                                     crash_at_op=None, count_drains=True)
            recorder = _Recorder(injector)
            drive = drive_program(recorder, program)
            assert not drive.crashed
            assert injector.op_index == total_ticks(timeline)
            ticking = [entry.event for entry in timeline if entry.ticks]
            assert recorder.log == ticking, (shape, seed)


class TestEngine:
    def test_crash_at_op_zero_observes_initial_state(self):
        program = _program(S(0, 1), F(0))
        observed = _execute(program, 0)
        assert all(version == 0 and not torn
                   for version, torn in observed.values())

    def test_flushed_store_survives_every_later_crash(self):
        program = _program(S(2, 1), F(2), S(2, 2), L(2))
        verdict = run_program(program)
        assert verdict.ok
        timeline = build_timeline(program)
        for crash_at in range(2, total_ticks(timeline)):
            version, torn = _execute(program, crash_at)[2]
            assert version in (1, 2) and not torn

    def test_enumerates_every_crash_point(self):
        program = _program(S(0, 1), S(1, 2), CUT, L(0))
        verdict = run_program(program)
        # T = 2 stores + 2 writebacks + 1 flush + 1 load
        assert verdict.crash_points == 6
        # crash points minus dedups, plus the completion run
        assert verdict.executed == \
            verdict.crash_points + 1 - verdict.deduped

    def test_dedup_prunes_load_only_suffixes(self):
        program = _program(S(0, 1), L(0), L(1), L(0))
        verdict = run_program(program)
        # crashes at ticks 2 and 3 share tick 1's mutating prefix
        assert verdict.deduped == 2
        assert verdict.ok

    @pytest.mark.parametrize("shape, pinned", [
        ("store-store-reorder", (1, 8, 3)),
        ("partition-straddle", (2, 18, 4)),
    ])
    def test_reads_back_only_when_the_media_changed(self, shape, pinned):
        """(regions, states executed, ``observe_state`` calls): crash
        points with the media and the committed registers of the last
        read-back reuse its state, so there are fewer calls than states;
        the run to completion is one of them."""
        program = generate_program(random.Random(0), shape)
        calls = []
        observe_state = engine.observe_state

        def counted(port, program, lines=None):
            calls.append(port)
            return observe_state(port, program, lines)

        with mock.patch.object(engine, "observe_state", counted):
            verdict = run_program(program)
        assert (program.regions, verdict.executed, len(calls)) == pinned
        assert len(calls) < verdict.executed

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_pass_on_all_paths(self, shape):
        for seed in range(4):
            program = generate_program(random.Random(seed), shape)
            verdict = run_program(program)
            assert verdict.ok, verdict.violations


class TestBrokenOracle:
    """The acceptance-criterion proof: a wrong durability rule must be
    *detected* and shrunk to a 1-minimal counterexample."""

    BROKEN = PersistencyModel(fence_is_barrier=True)
    PROGRAM = _program(S(0, 1), S(1, 2), FENCE, L(0), lines=4)

    def test_violation_detected_on_every_path(self):
        verdict = run_program(self.PROGRAM, model=self.BROKEN)
        assert not verdict.ok
        first = verdict.violations[0]
        assert first.observed == 0 and first.allowed == (1,)
        assert "allowed {v1}" in first.render()

    def test_counterexample_is_minimized(self):
        minimized = minimize_counterexample(self.PROGRAM, model=self.BROKEN)
        assert minimized is not None
        assert "+min" in minimized.program
        # 1-minimal: one store, the fence, and one op to crash on after
        # the fence tick — dropping any of the three loses the violation
        ops = minimized.program.split(": ", 1)[1].count(";") + 1
        assert ops == 3

    def test_minimizer_returns_none_when_program_passes(self):
        assert minimize_counterexample(self.PROGRAM) is None

    def test_trial_reports_minimized_counterexample(self):
        # the true model passes this seed...
        outcome = litmus_trial(
            0, random.Random(_FENCE_SEED), shape="store-store-reorder")
        assert outcome.violations == []
        # ...and the broken fence rule both flags it and ships a
        # 1-minimal counterexample alongside the original trace
        broken = litmus_trial(
            0, random.Random(_FENCE_SEED), shape="store-store-reorder",
            rules={"fence_is_barrier": True})
        assert broken.violations
        assert any("(minimized)" in line for line in broken.violations)


class TestCampaign:
    def test_serial_equals_parallel_byte_identical(self, tmp_path):
        serial = run_litmus(trials=8, seed=5)
        parallel = run_litmus(trials=8, seed=5, jobs=2)
        assert pickle.dumps(serial) == pickle.dumps(parallel)
        assert serial.summary() == parallel.summary()
        assert serial.ok

    def test_shard_cache_replays_byte_identical(self, tmp_path):
        cold = run_litmus(trials=6, seed=9, cache_dir=tmp_path)
        warm = run_litmus(trials=6, seed=9, cache_dir=tmp_path)
        assert pickle.dumps(cold) == pickle.dumps(warm)

    def test_outcomes_pickle_for_worker_processes(self):
        outcome = litmus_trial(3, random.Random(3), shape="fuzz")
        clone = pickle.loads(pickle.dumps(outcome))
        assert dataclasses.asdict(clone) == dataclasses.asdict(outcome)

    def test_runner_aggregates_operations(self):
        from repro.orchestrate import Campaign, CampaignRunner

        runner = CampaignRunner()
        outcomes = runner.run(Campaign(
            name="litmus-ops", trials=4, trial_fn=litmus_trial, seed=1,
            params={"shape": "flush-without-fence"}))
        assert runner.last_stats.operations == sum(
            outcome.operations for outcome in outcomes)
        assert runner.last_stats.operations > 0

    def test_report_counts_are_consistent(self):
        report = run_litmus(trials=5, seed=2)
        assert report.trials == report.programs == 5
        assert report.executed + report.deduped >= report.crash_points
        assert report.summary().endswith("OK")


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestPinnedReports:
    """Campaign reports as the per-crash-point re-drive printed them."""

    SUMMARIES = {
        "all": "litmus: 20 trials, 20 programs, 229 crash points "
               "(243 states executed, 6 deduped) -> OK",
        "dirty-extent-straddle":
            "litmus-dirty-extent-straddle: 20 trials, 20 programs, "
            "236 crash points (256 states executed, 0 deduped) -> OK",
        "flush-without-fence":
            "litmus-flush-without-fence: 20 trials, 20 programs, "
            "100 crash points (120 states executed, 0 deduped) -> OK",
        "fuzz": "litmus-fuzz: 20 trials, 20 programs, 192 crash points "
                "(188 states executed, 24 deduped) -> OK",
        "partition-straddle":
            "litmus-partition-straddle: 20 trials, 20 programs, "
            "324 crash points (344 states executed, 0 deduped) -> OK",
        "store-store-reorder":
            "litmus-store-store-reorder: 20 trials, 20 programs, "
            "148 crash points (148 states executed, 20 deduped) -> OK",
    }

    @pytest.mark.parametrize("shape", sorted(SUMMARIES))
    def test_summary_per_shape(self, shape):
        report = run_litmus(trials=20, shape=shape, seed=0)
        assert report.summary() == self.SUMMARIES[shape]

    def test_broken_fence_rule_violations(self):
        report = run_litmus(trials=6, shape="store-store-reorder", seed=0,
                            rules={"fence_is_barrier": True})
        assert report.summary() == (
            "litmus-store-store-reorder: 6 trials, 6 programs, 45 crash "
            "points (45 states executed, 6 deduped) -> 6 VIOLATIONS")
        assert report.violations == [
            "trial 2: store-store-reorder[8 lines]: store L3=v1; "
            "store L2=v2; flush L3; store L3=v3; store L2=v4; fence; "
            "load L2; load L3 [crash at op 6]: line 2 reads v2, "
            "allowed {v4}",
            "trial 2 (minimized): store-store-reorder+min[8 lines]: "
            "store L2=v4; fence; load L3 [crash at op 2]: line 2 reads "
            "v0, allowed {v4}",
            "trial 3: store-store-reorder[8 lines]: store L6=v1; "
            "store L7=v2; flush L6; store L6=v3; store L7=v4; fence; "
            "load L7; load L6 [crash at op 6]: line 6 reads v1, "
            "allowed {v3}",
            "trial 3 (minimized): store-store-reorder+min[8 lines]: "
            "store L7=v4; fence; load L6 [crash at op 2]: line 7 reads "
            "v0, allowed {v4}",
            "trial 5: store-store-reorder[7 lines]: store L6=v1; "
            "store L4=v2; flush L6; store L6=v3; store L4=v4; fence; "
            "load L4; load L6 [crash at op 6]: line 4 reads v2, "
            "allowed {v4}",
            "trial 5 (minimized): store-store-reorder+min[7 lines]: "
            "store L4=v4; fence; load L6 [crash at op 2]: line 4 reads "
            "v0, allowed {v4}",
        ]

    def test_cli_report_matches_the_golden(self, capsys):
        assert main(["litmus", "--trials", "200", "--seed", "0"]) == 0
        golden = GOLDEN / "litmus-trials200-seed0.txt"
        assert capsys.readouterr().out == golden.read_text()


class TestLitmusCLI:
    def test_litmus_subcommand_runs_ok(self, capsys):
        status = main(["litmus", "--trials", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "-> OK" in out
        assert "crash points" in out

    def test_litmus_shape_flag(self, capsys):
        status = main(["litmus", "--trials", "2", "--seed", "1",
                       "--shape", "flush-without-fence"])
        assert status == 0
        assert "litmus-flush-without-fence:" in capsys.readouterr().out

    def test_litmus_unknown_shape_is_a_usage_error(self, capsys):
        status = main(["litmus", "--trials", "1", "--shape", "bogus"])
        assert status == 2
        assert "unknown litmus shape" in capsys.readouterr().err

    def test_litmus_serial_equals_parallel_stdout(self, capsys):
        main(["litmus", "--trials", "4", "--seed", "3"])
        serial = capsys.readouterr().out
        main(["litmus", "--trials", "4", "--seed", "3", "--jobs", "2"])
        assert capsys.readouterr().out == serial

    def test_litmus_cache_dir_must_be_a_directory(self, tmp_path, capsys):
        bogus = tmp_path / "file"
        bogus.write_text("x")
        status = main(["litmus", "--trials", "1",
                       "--cache-dir", str(bogus)])
        assert status == 2
