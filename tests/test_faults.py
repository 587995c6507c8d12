"""The compound-fault engine: nested cuts, degraded media, drilled.

Three layers are pinned here:

* mechanism — :class:`CompoundFaultInjector` fires its whole schedule on
  one global tick count (so a follow-on cut lands inside recovery
  traffic), and :class:`MediaFaultModel` implements retry / ECC-correct /
  retire semantics on the scalar ``access`` every request crosses;
* engine — explicit crash-during-recovery and torn-extent-flush plans
  run clean against the fixed oracle, and the deliberately broken
  degradation rule (retired-unit remap disabled) is detected and
  1-minimized end to end;
* plumbing — drill campaigns are pure functions of ``(seed, trial)``,
  byte-identical at any parallelism, and warm-cache stable.

Plus the crash-during-Go wear regression (satellite of PR 7): a second
power cut landing between ``power_cycle`` and the wear-register restore
must not lose the mapping, because Go simply restores again.
"""

import dataclasses
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import (
    STUCK,
    TRANSIENT,
    CompoundFaultInjector,
    FaultPlan,
    MediaFault,
    MediaFaultModel,
    drill_trial,
    execute_plan,
    generate_plan,
    minimize_drill,
    run_drill,
    run_drill_program,
)
from repro.litmus.engine import litmus_backend
from repro.litmus.ir import (
    LitmusOp,
    LitmusProgram,
    OpKind,
    build_timeline,
    line_value,
    total_ticks,
)
from repro.litmus.generate import generate_program
from repro.litmus.oracle import PersistencyModel
from repro.memory.batch import default_access_batch
from repro.memory.port import InjectedPowerFailure
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM, PSMConfig
from repro.orchestrate import trial_rng

GOLDEN = Path(__file__).resolve().parent / "golden"


def store(line, version):
    return LitmusOp(OpKind.STORE, line, version)


def cut():
    return LitmusOp(OpKind.SNG_CUT)


def program_of(*ops, lines=8, name="t"):
    return LitmusProgram(name, tuple(ops), lines)


def read_line(port, line):
    return port.access(MemoryRequest(
        MemoryOp.READ, address=line * CACHELINE_BYTES, time=0.0))


def write_line(port, line, version):
    return port.access(MemoryRequest(
        MemoryOp.WRITE, address=line * CACHELINE_BYTES,
        data=line_value(version), time=0.0))


class TestFaultPlan:
    def test_cuts_must_strictly_increase(self):
        with pytest.raises(ValueError):
            FaultPlan(cuts=(3, 3))
        with pytest.raises(ValueError):
            FaultPlan(cuts=(5, 2))
        with pytest.raises(ValueError):
            FaultPlan(cuts=(-1,))

    def test_media_fault_validation(self):
        with pytest.raises(ValueError):
            MediaFault(-1)
        with pytest.raises(ValueError):
            MediaFault(0, kind="cosmic-ray")
        with pytest.raises(ValueError):
            MediaFault(0, escalate_after=-1)

    def test_render(self):
        plan = FaultPlan("p", cuts=(0, 5),
                         media=(MediaFault(4, STUCK, escalate_after=2),
                                MediaFault(7, TRANSIENT)))
        assert plan.render() == "p[cuts=0,5; media=stuck@L4/esc2,transient@L7]"
        assert FaultPlan().render() == "plan[cuts=-; media=-]"

    def test_truncated_keeps_first_cut_and_media(self):
        plan = FaultPlan("p", cuts=(2, 9, 11), media=(MediaFault(1),))
        probe = plan.truncated()
        assert probe.cuts == (2,)
        assert probe.media == plan.media

    def test_generated_plans_are_seeded_and_always_crash(self):
        for seed in range(30):
            rng = random.Random(seed)
            program = generate_program(rng, "fuzz")
            plan = generate_plan(rng, program)
            ticks = total_ticks(build_timeline(program))
            assert plan.cuts[0] < ticks
            assert list(plan.cuts) == sorted(set(plan.cuts))
            for fault in plan.media:
                assert fault.line in program.observe_lines()
        a = generate_plan(random.Random(7), generate_program(
            random.Random(7), "fuzz"))
        b = generate_plan(random.Random(7), generate_program(
            random.Random(7), "fuzz"))
        assert a == b


class TestCompoundFaultInjector:
    def backend(self):
        return litmus_backend(program_of(store(0, 1)))

    def test_schedule_fires_on_one_global_tick_count(self):
        port = CompoundFaultInjector(self.backend(), cuts=(2, 4))
        write_line(port, 0, 1)
        write_line(port, 1, 2)
        with pytest.raises(InjectedPowerFailure):
            write_line(port, 2, 3)          # tick 2: first cut (not consumed)
        port.power_fail()                   # re-arms cut 4 on the same count
        read_line(port, 0)                  # tick 2 (recovery traffic)
        read_line(port, 1)                  # tick 3
        with pytest.raises(InjectedPowerFailure):
            read_line(port, 1)              # tick 4: second cut, inside Go
        port.power_fail()
        read_line(port, 1)                  # schedule exhausted: no more cuts
        assert port.cuts_fired == 2
        assert port.cuts_remaining == 0

    def test_cut_inside_batch_serves_prefix(self):
        port = CompoundFaultInjector(self.backend(), cuts=(1,))
        requests = [MemoryRequest(MemoryOp.WRITE,
                                  address=line * CACHELINE_BYTES,
                                  data=line_value(line + 1), time=0.0)
                    for line in range(3)]
        with pytest.raises(InjectedPowerFailure):
            default_access_batch(port, requests)
        assert port.op_index == 1                  # torn: only line 0 served
        port.flush(0.0)
        assert read_line(port, 0).data == line_value(1)
        assert not any(read_line(port, 1).data)
        assert not any(read_line(port, 2).data)

    def test_disarm_drops_remaining_schedule(self):
        port = CompoundFaultInjector(self.backend(), cuts=(0,))
        port.disarm()
        read_line(port, 0)                  # would have cut at tick 0
        assert port.cuts_fired == 0

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            CompoundFaultInjector(self.backend(), cuts=(4, 4))
        with pytest.raises(ValueError):
            CompoundFaultInjector(self.backend(), cuts=(-1, 2))

    def test_single_cut_rearming_is_closed(self):
        port = CompoundFaultInjector(self.backend(), cuts=(1,))
        with pytest.raises(NotImplementedError):
            port.schedule(5)


class TestMediaFaultModel:
    def port(self, faults, **kwargs):
        inner = litmus_backend(program_of(store(0, 1)))
        return MediaFaultModel(inner, faults=faults, **kwargs)

    def test_transient_retries_once_then_clean(self):
        port = self.port([MediaFault(3, TRANSIENT)])
        write_line(port, 3, 5)
        clean = read_line(port, 3)
        assert clean.data == line_value(5)          # retry returns true data
        assert clean.blocked_ns >= port.retry_ns
        assert read_line(port, 3).blocked_ns < port.retry_ns
        assert port.fault_counters()["transient_retries"] == 1

    def test_stuck_corrects_then_retires_then_clean(self):
        port = self.port([MediaFault(2, STUCK, escalate_after=1)])
        write_line(port, 2, 9)
        corrected = read_line(port, 2)
        assert corrected.data == line_value(9)
        assert corrected.reconstructed
        retired = read_line(port, 2)                # escalation: remap
        assert retired.data == line_value(9)
        assert retired.blocked_ns >= port.migration_ns
        assert read_line(port, 2).blocked_ns < port.correction_ns
        counters = port.fault_counters()
        assert counters["ecc_corrections"] == 1
        assert counters["units_retired"] == 1
        assert counters["uncorrectable_reads"] == 0

    def test_remap_disabled_hands_host_corrupt_bytes(self):
        port = self.port([MediaFault(2, STUCK, escalate_after=1)],
                         remap_enabled=False)
        write_line(port, 2, 9)
        read_line(port, 2)                          # the one tolerated correct
        broken = read_line(port, 2)
        assert not broken.error_contained
        assert broken.data[0] == 9 ^ 0xFF
        assert len(set(broken.data)) != 1           # the torn detector fires
        assert port.fault_counters()["uncorrectable_reads"] == 1

    def test_fault_state_survives_power_cycle(self):
        port = self.port([MediaFault(2, STUCK, escalate_after=0)])
        write_line(port, 2, 9)
        read_line(port, 2)                          # retires immediately
        port.power_cycle()
        assert port.fault_counters()["units_retired"] == 1
        assert not any(read_line(port, 2).data)     # media wiped, still clean


class TestDrillEngine:
    def test_crash_during_recovery_is_clean_on_all_paths(self):
        # ticks: store, store, writeback x2, flush -> first cut tick 3 is
        # inside the SnG writeback; tick 6 is Go's BCB probe read (after
        # power_cycle, BEFORE the wear-register restore); tick 7 lands
        # in the second recovery's scrub.
        program = program_of(store(0, 1), store(1, 2), cut())
        plan = FaultPlan("nested", cuts=(3, 6, 7))
        verdict = run_drill_program(program, plan)
        assert verdict.ok
        assert verdict.recoveries == 3              # two aborted Go passes

    def test_torn_extent_flush_every_split_point(self):
        program = program_of(store(0, 1), store(1, 2), store(2, 3), cut())
        ticks = total_ticks(build_timeline(program))
        for first in range(ticks):
            plan = FaultPlan("split", cuts=(first, first + 2))
            verdict = run_drill_program(program, plan)
            assert verdict.ok, (first, verdict.violations)

    def test_broken_remap_detected_and_one_minimized(self):
        # Extra removable structure on purpose: minimization must strip
        # the scenario to one op, one cut, one stuck fault.
        program = program_of(store(0, 1), store(2, 2), store(4, 3))
        plan = FaultPlan("p", cuts=(0, 4),
                         media=(MediaFault(1, TRANSIENT),
                                MediaFault(2, STUCK, escalate_after=1)))
        verdict = run_drill_program(program, plan, remap_enabled=False)
        assert not verdict.ok
        assert all(violation.torn for violation in verdict.violations)
        minimized = minimize_drill(program, plan, remap_enabled=False)
        assert minimized is not None
        rendered = minimized.render()
        assert "+min" in rendered
        assert rendered.count("store") == 1
        assert rendered.count("cuts=0]") == 0       # render sanity
        assert "stuck@L2" in rendered
        assert "transient" not in rendered
        assert "torn" in rendered

    def test_fixed_oracle_passes_where_broken_remap_fails(self):
        program = program_of(store(2, 1))
        plan = FaultPlan("p", cuts=(0,),
                         media=(MediaFault(2, STUCK, escalate_after=1),))
        assert run_drill_program(program, plan).ok
        assert not run_drill_program(program, plan,
                                     remap_enabled=False).ok

    def test_uncontained_media_rule_wrongly_accepts_torn(self):
        program = program_of(store(2, 1))
        plan = FaultPlan("p", cuts=(0,),
                         media=(MediaFault(2, STUCK, escalate_after=1),))
        loose = PersistencyModel(media_errors_contained=False)
        verdict = run_drill_program(program, plan, remap_enabled=False,
                                    model=loose)
        assert not verdict.violations       # the wrong-loose rule hides it

    def test_idempotence_cross_check_runs_only_when_meaningful(self):
        program = program_of(store(0, 1), store(1, 2), cut())
        nested = FaultPlan("p", cuts=(1, 5))
        strict = run_drill_program(program, nested)
        assert strict.executed == 2         # + the truncated-plan probe
        loose = run_drill_program(
            program, nested,
            model=PersistencyModel(recovery_is_idempotent=False))
        assert loose.executed == 1
        single = run_drill_program(program, FaultPlan("p", cuts=(1,)))
        assert single.executed == 1

    def test_media_faults_never_perturb_observed_values(self):
        program = program_of(store(1, 1), cut(), store(1, 2))
        clean = execute_plan(program, FaultPlan(cuts=(2,)))
        faulty = execute_plan(
            program,
            FaultPlan(cuts=(2,), media=(MediaFault(1, STUCK),
                                        MediaFault(0, TRANSIENT))))
        assert clean.observed == faulty.observed
        assert faulty.counters["ecc_corrections"] >= 1


class TestCrashDuringGoWearRegression:
    """A second cut between ``power_cycle`` and the register restore
    must not lose the Start-Gap mapping — Go just restores again."""

    #: lines 125/126 sit in the band the moved gap displaces, so a read
    #: through default (unrestored) wear registers misses their data
    CONTENT = {**{line: line + 1 for line in range(10)}, 125: 11, 126: 12}

    def worn_psm(self):
        psm = PSM(PSMConfig(dimms=2, lines_per_dimm=64, wear_threshold=4),
                  functional=True)
        for line, version in sorted(self.CONTENT.items()):
            write_line(psm, line, version)
        psm.flush(0.0)
        return psm

    def test_double_power_cycle_then_restore_reads_true_data(self):
        psm = self.worn_psm()
        blob = psm.capture_registers()
        psm.power_cycle()           # first cut
        read_line(psm, 0)           # Go's BCB probe, registers NOT restored
        psm.power_cycle()           # second cut, inside the Go window
        psm.restore_wear_registers(blob)
        for line, version in self.CONTENT.items():
            assert read_line(psm, line).data == line_value(version)

    def test_skipping_restore_reads_through_a_stale_mapping(self):
        psm = self.worn_psm()
        assert psm.wear.gap_moves >= 2
        psm.power_cycle()           # registers reset to defaults
        assert any(read_line(psm, line).data != line_value(version)
                   for line, version in self.CONTENT.items())

    def test_drill_engine_survives_cut_on_probe_read(self):
        # The cut at tick 4 lands exactly on Go's first probe read; the
        # drill's looping protocol must re-cycle and re-restore.
        program = program_of(store(0, 1), store(1, 2), cut())
        verdict = run_drill_program(program, FaultPlan(cuts=(2, 4)))
        assert verdict.ok
        assert verdict.recoveries == 2


class TestDrillCampaign:
    def report_bytes(self, report):
        return repr(dataclasses.astuple(report)).encode()

    @pytest.mark.parametrize("argv, status, golden", [
        (["--trials", "120", "--seed", "0"], 0, "drill-trials120-seed0.txt"),
        (["--trials", "40", "--seed", "7", "--break-remap"], 1,
         "drill-trials40-seed7-break-remap.txt"),
    ], ids=["seed0", "seed7-break-remap"])
    def test_cli_report_matches_the_golden(self, argv, status, golden,
                                           capsys):
        """The drill shares the litmus backends, ``observe_state`` and
        the PRAM byte store with the litmus engine; its reports are
        pinned to bytes committed from an earlier tree."""
        assert main(["drill", *argv]) == status
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_trials_are_pure_functions_of_seed_and_index(self):
        a = drill_trial(3, trial_rng(11, 3, namespace="drill"))
        b = drill_trial(3, trial_rng(11, 3, namespace="drill"))
        assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_serial_parallel_byte_identical(self):
        serial = run_drill(trials=6, seed=5, jobs=1)
        parallel = run_drill(trials=6, seed=5, jobs=2)
        assert self.report_bytes(serial) == self.report_bytes(parallel)

    def test_watched_run_byte_identical(self):
        plain = run_drill(trials=4, seed=5)
        watched = run_drill(trials=4, seed=5, trial_timeout=120.0)
        assert self.report_bytes(plain) == self.report_bytes(watched)

    def test_warm_cache_rerun_identical(self, tmp_path):
        cold = run_drill(trials=6, seed=9, cache_dir=tmp_path)
        warm = run_drill(trials=6, seed=9, cache_dir=tmp_path)
        assert self.report_bytes(cold) == self.report_bytes(warm)

    def test_campaign_accounting_is_populated(self):
        report = run_drill(trials=8, seed=3)
        assert report.ok
        assert report.programs == 8
        assert report.cuts >= 8             # every plan has >= 1 cut
        assert report.executed >= 8
        assert report.recoveries >= 8       # every first cut crashes
        assert "-> OK" in report.summary()

    def test_broken_remap_campaign_detects_and_minimizes(self):
        report = run_drill(trials=8, seed=7, remap_enabled=False)
        assert not report.ok
        assert any("(minimized)" in violation
                   for violation in report.violations)
        assert any("torn" in violation for violation in report.violations)

    def test_rules_flow_through_params(self):
        broken = run_drill(trials=8, seed=7, remap_enabled=False,
                           rules={"media_errors_contained": False})
        assert broken.ok                    # wrong-loose rule hides the tear
