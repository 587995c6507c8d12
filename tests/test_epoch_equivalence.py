"""Epoch engine: forced-boundary identity and exactness escape hatches.

Three contracts keep the analytical fast path honest:

* **Forced boundaries degenerate to exact.**  With ``probe_interval=1``
  every window replays for real, so the epoch engine must be
  byte-identical to the extent engine it extends — RunResult, stats
  tree and wear registers — across seeds (the hypothesis leg) and on a
  figure-driver cell (the golden leg).
* **Fault points always land on exact traffic.**  An armed injector
  anywhere in the port chain disables skipping for the whole drain.
* **A persistence cut mid-epoch replays the pending block exactly.**
  The white-box regression steps a session into skip mode, lands a
  ``flush_cache`` with windows pending, and diffs clock, stats, cache
  and backend state against a fully exact drain of the same prefix —
  no analytically-skipped dirty line may be missing from the dump.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Machine
from repro.core.config import PlatformConfig
from repro.cpu.core import Core
from repro.engine import base as engine_base
from repro.engine.epoch import EpochEngine, EpochReport, _armed_fault
from repro.engine.extent import ExtentEngine
from repro.faults.compound import CompoundFaultInjector
from repro.memory.port import FaultInjector, Interposer
from repro.ocpmem.psm import PSM
from repro.sim.stats import StatsRegistry
from repro.workloads import load_workload
from repro.workloads.trace import LocalityProfile, TraceGenerator

WINDOW = 512


def _forced_boundary(window: int = WINDOW) -> EpochEngine:
    """Every window probes: the degenerate, provably-exact configuration."""
    return EpochEngine(window=window, stable_windows=2, probe_interval=1,
                       min_windows=2)


def _quiet_config() -> PlatformConfig:
    """Single-trace machines: the whole drain goes through the engine."""
    return PlatformConfig(kernel_noise=False)


def _run(workload_name: str, refs: int, seed: int, engine):
    workload = load_workload(workload_name, refs=refs, seed=seed)
    machine = Machine.for_workload("lightpc", workload,
                                   config=_quiet_config(), engine=engine)
    return machine.run(workload), machine


def _comparable(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("engine")
    fields.pop("epoch")
    return fields


def _backend_state(machine):
    registry = StatsRegistry()
    machine.backend.register_stats(registry.scoped("memory"))
    return (registry.flat(), machine.backend.counters(),
            machine.backend.capture_registers())


class TestForcedBoundaryIdentity:
    def test_degenerates_to_the_extent_engine(self):
        exact, exact_machine = _run("mcf", 12_000, 7, ExtentEngine(WINDOW))
        epoch, epoch_machine = _run("mcf", 12_000, 7, _forced_boundary())
        assert epoch.engine == "epoch"
        assert _comparable(epoch) == _comparable(exact)
        assert epoch_machine.stats_tree() == exact_machine.stats_tree()
        assert _backend_state(epoch_machine) == _backend_state(exact_machine)

    def test_forced_probes_never_skip(self):
        result, _ = _run("mcf", 12_000, 7, _forced_boundary())
        assert result.epoch is not None
        assert result.epoch["windows_skipped"] == 0
        assert result.epoch["records_skipped"] == 0
        assert result.epoch["counter_deltas"] == {}
        assert result.epoch["records_exact"] == 12_000

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), workload=st.sampled_from(
        ("mcf", "aes", "gcc")))
    def test_stats_tree_and_wear_identity_across_seeds(self, seed, workload):
        exact, exact_machine = _run(workload, 6_000, seed,
                                    ExtentEngine(WINDOW))
        epoch, epoch_machine = _run(workload, 6_000, seed,
                                    _forced_boundary())
        assert _comparable(epoch) == _comparable(exact)
        assert epoch_machine.stats_tree() == exact_machine.stats_tree()
        assert epoch_machine.backend.capture_registers() == \
            exact_machine.backend.capture_registers()

    def test_figure_driver_cell_is_golden_identical(self):
        """Satellite: a platform_matrix cell under the forced-boundary
        epoch engine reproduces the default engine's figure golden."""
        from repro.analysis.experiments import platform_matrix

        register = engine_base.register_engine
        register("epoch-forced", _forced_boundary)
        try:
            baseline = platform_matrix(("aes",), refs=6_000)
            forced = platform_matrix(("aes",), refs=6_000,
                                     engine="epoch-forced")
        finally:
            engine_base._ENGINE_FACTORIES.pop("epoch-forced")
        for cell, result in baseline.items():
            assert _comparable(forced[cell]) == _comparable(result), cell


class TestEpochAcceleration:
    def test_stationary_run_skips_and_stays_close(self):
        engine = EpochEngine(window=256, stable_windows=3, probe_interval=8,
                             tolerance=0.5, min_windows=6)
        exact, _ = _run("mcf", 30_000, 11, ExtentEngine(256))
        epoch, _ = _run("mcf", 30_000, 11, engine)
        report = epoch.epoch
        assert report is not None
        assert report["phases"] >= 1
        assert report["windows_skipped"] > 0
        assert report["records_skipped"] > 0
        total = report["records_skipped"] + report["records_exact"]
        assert total == 30_000 - 30_000 % 256 + report["records_exact"] % 256 \
            or total <= 30_000
        # Analytical settlement is an estimate; it must stay close.
        assert epoch.wall_ns == pytest.approx(exact.wall_ns, rel=0.15)
        assert epoch.instructions == pytest.approx(exact.instructions,
                                                   rel=0.15)
        assert epoch.energy_j == pytest.approx(exact.energy_j, rel=0.2)

    def test_skipped_counters_fold_into_run_counters(self):
        engine = EpochEngine(window=256, stable_windows=3, probe_interval=8,
                             tolerance=0.5, min_windows=6)
        exact, _ = _run("mcf", 30_000, 11, ExtentEngine(256))
        epoch, _ = _run("mcf", 30_000, 11, engine)
        assert epoch.epoch["counter_deltas"], \
            "skipped traffic produced no counter estimate"
        for key, exact_value in exact.backend_counters.items():
            if "ratio" in key or not isinstance(exact_value, (int, float)):
                continue
            if exact_value >= 100:
                assert epoch.backend_counters[key] == pytest.approx(
                    exact_value, rel=0.25), key

    def test_report_round_trip(self):
        report = EpochReport(windows_skipped=3, records_skipped=768,
                             windows_exact=9, records_exact=2304, phases=1,
                             boundaries=2, windows_forced_exact=1,
                             counter_deltas={"writes": 12.0})
        payload = report.as_dict()
        assert payload["windows_skipped"] == 3
        assert payload["counter_deltas"] == {"writes": 12.0}
        # as_dict copies: mutating the payload leaves the report alone
        payload["counter_deltas"]["writes"] = 0.0
        assert report.counter_deltas["writes"] == 12.0


def _stationary_source(count: int, seed: int = 13):
    """A size-hinted stationary trace over a PSM-sized footprint."""

    class _Source:
        stationary = True

        def __init__(self):
            self.count = count
            self._generator = TraceGenerator(
                LocalityProfile(working_set_lines=2_048), seed=seed)

        def __iter__(self):
            return self._generator.records(self.count)

    return _Source()


class TestExactnessEscapeHatches:
    def test_armed_injector_detected_through_the_chain(self):
        psm = PSM()
        assert not _armed_fault(psm)
        idle = Interposer(FaultInjector(psm, crash_at_op=None))
        assert not _armed_fault(idle)
        armed = FaultInjector(
            Interposer(FaultInjector(PSM(), crash_at_op=100)))
        assert _armed_fault(armed)
        compound = CompoundFaultInjector(PSM(), cuts=[50, 90])
        assert _armed_fault(compound)
        drained = CompoundFaultInjector(PSM(), cuts=[])
        assert not _armed_fault(drained)

    def test_armed_injector_forces_exact_drain(self):
        engine = EpochEngine(window=128, min_windows=2)
        source = _stationary_source(4_096)
        core = Core(0, FaultInjector(PSM(), crash_at_op=10**9),
                    engine=engine)
        session = engine.open_session(core, iter(source), source=source)
        assert not session.analytic
        engine.close_session(core)

    def test_unsized_or_drifting_sources_drain_exactly(self):
        engine = EpochEngine(window=128, min_windows=2)
        core = Core(0, PSM(), engine=engine)

        class Unsized:
            stationary = True

        source = _stationary_source(4_096)
        session = engine.open_session(core, iter(source), source=Unsized())
        assert not session.analytic       # no count/refs hint
        engine.close_session(core)

        class Sized:
            count = 4_096                 # no stationary marker

        session = engine.open_session(core, iter(source), source=Sized())
        assert not session.analytic
        engine.close_session(core)

        short = _stationary_source(192)   # under min_windows * window
        session = engine.open_session(core, iter(short), source=short)
        assert not session.analytic
        engine.close_session(core)


class TestMidEpochPersistenceCut:
    """Satellite regression: a cut with windows pending forces exact
    replay from the last phase boundary before the cache dump."""

    COUNT = 24_576  # 48 windows of 512

    def _epoch_engine(self):
        # Wide tolerance: this test pins the cut mechanics, not drift
        # detection, so skip mode must engage deterministically.
        return EpochEngine(window=WINDOW, stable_windows=3,
                           probe_interval=16, tolerance=0.9, min_windows=4)

    def _core_state(self, core):
        registry = StatsRegistry()
        core.backend.register_stats(registry.scoped("memory"))
        return (
            core.now, dataclasses.asdict(core.stats),
            core.cache.read_hits.hits, core.cache.read_hits.total,
            core.cache.write_hits.hits, core.cache.write_hits.total,
            registry.flat(), core.backend.counters(),
            core.backend.capture_registers(),
        )

    def test_cut_mid_epoch_replays_pending_windows_exactly(self):
        engine = self._epoch_engine()
        source = _stationary_source(self.COUNT)
        core = Core(0, PSM(), engine=engine)
        session = engine.open_session(core, iter(source), source=source)
        steps = 0
        while session.pending < 4:
            assert session.step(), "drain ended before skip mode engaged"
            steps += 1
            assert steps < self.COUNT // WINDOW
        assert session.skipping
        pending = session.pending
        prefix = engine._report.records_exact + pending * WINDOW

        count, dirty = engine.flush_cache(core)
        # The pending block was generated and replayed for real...
        assert session.pending == 0
        assert engine._report.windows_forced_exact == pending
        assert engine._report.windows_skipped == 0
        # ...and the flush perturbed the cache, so the phase recalibrates.
        assert not session.skipping
        assert session.history == []

        # Reference: a fully exact drain of the same prefix, same cut.
        reference = Core(0, PSM(), engine=ExtentEngine(WINDOW))
        records = iter(_stationary_source(self.COUNT))
        consumed = 0
        while consumed < prefix:
            chunk = [next(records) for _ in range(WINDOW)]
            reference.execute_window(chunk)
            consumed += WINDOW
        ref_count, ref_dirty = reference.engine.flush_cache(reference)

        assert count == ref_count
        assert sorted(dirty) == sorted(ref_dirty)
        flush, ref_flush = core.last_flush_report, reference.last_flush_report
        assert flush.lines == ref_flush.lines
        assert flush.extents == ref_flush.extents
        assert flush.start_ns == ref_flush.start_ns
        assert flush.done_ns == ref_flush.done_ns
        assert flush.blocked_ns == ref_flush.blocked_ns
        assert flush.latencies() == ref_flush.latencies()
        assert self._core_state(core) == self._core_state(reference)

    def test_drain_after_cut_recalibrates_and_finishes(self):
        engine = self._epoch_engine()
        source = _stationary_source(self.COUNT)
        core = Core(0, PSM(), engine=engine)
        session = engine.open_session(core, iter(source), source=source)
        while session.pending < 4:
            assert session.step()
        engine.flush_cache(core)
        while session.step():
            pass
        engine.close_session(core)
        report = engine.take_run_report()
        total = (report.records_exact + report.records_skipped)
        assert total == self.COUNT
        assert report.windows_forced_exact >= 4

    def test_clean_flush_without_pending_is_undisturbed(self):
        engine = self._epoch_engine()
        source = _stationary_source(2_048)
        core = Core(0, PSM(), engine=engine)
        engine.drain(core, iter(source), source=source)
        count, dirty = engine.flush_cache(core)   # no session, no pending
        assert count == len(dirty)
        assert engine._report.windows_forced_exact == 0
