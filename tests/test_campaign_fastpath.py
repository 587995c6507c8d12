"""Campaign fast path: warm pools, columnar shards, cache hygiene.

This file enforces the fast-path contract rather than trusting it:

* a ``Machine.reset()`` machine is byte-identical to a freshly built
  one — run results, power-fail/recover outcomes, the full stats tree
  and the engine's class and parameters (the
  :class:`~repro.orchestrate.pool.MachinePool` contract);
* warm-pool campaigns are byte-identical to serial runs and to
  references that build a fresh machine per trial, across seeds, for
  every campaign consumer;
* :class:`~repro.orchestrate.results.PackedShard` reconstructs the
  original result objects exactly and falls back to pickling cleanly;
* a corrupt shard-cache entry is deleted on load failure, so the miss
  is paid once instead of on every warm re-run.
"""

import dataclasses
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import crashfuzz, sensitivity
from repro.analysis.crashfuzz import fuzz_machine, fuzz_trace
from repro.analysis.sensitivity import read_latency_sweep
from repro.core import Machine
from repro.engine import EpochEngine, WindowEngine
from repro.faults import run_drill
from repro.litmus import run_litmus
from repro.orchestrate import (
    NO_VALUE,
    Campaign,
    CampaignRunner,
    MachinePool,
    PackedShard,
    ShardCache,
    fingerprint,
    pack_results,
)
from repro.orchestrate.pool import machine_for_workload, shutdown_executors
from repro.pmem.modes import SoftwareOverhead
from repro.power.psu import ATX_PSU
from repro.workloads import load_workload
from tests.test_pecos_oracle import world_digest


@dataclasses.dataclass
class FastOutcome:
    """Columnar-shaped outcome: int counters + violations list."""

    ops: int = 0
    crashes: int = 0
    violations: list = dataclasses.field(default_factory=list)


def fast_trial(trial, rng):
    outcome = FastOutcome(ops=rng.randrange(100), crashes=trial % 2)
    if trial == 3:
        outcome.violations.append(f"trial {trial}: synthetic violation")
    return outcome


def tuple_trial(trial, rng):
    """Not a dataclass: exercises the pickle fallback codec."""
    return (trial, rng.randrange(1_000_000))


def flaky_trial(trial, rng, sentinel=None, hang_index=2):
    """Hangs at ``hang_index`` on the first attempt only (marker file)."""
    value = (trial, rng.randrange(1_000_000))
    if trial == hang_index:
        marker = f"{sentinel}.{trial}"
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            time.sleep(60)
    return value


def _campaign(trial_fn=fast_trial, trials=8, seed=7, **params):
    return Campaign(name="fastpath", trials=trials, trial_fn=trial_fn,
                    seed=seed, params=params)


class TestPackedShard:
    def test_columnar_roundtrip_is_exact(self):
        results = [fast_trial(i, _rng(i)) for i in range(6)]
        packed = pack_results(results)
        assert packed.codec == "columnar"
        assert packed.count == 6
        assert packed.payload is None
        assert packed.results() == results

    def test_columnar_aggregates_match_objects(self):
        results = [fast_trial(i, _rng(i)) for i in range(6)]
        packed = pack_results(results)
        assert packed.sums()["ops"] == sum(r.ops for r in results)
        assert packed.sums()["crashes"] == sum(r.crashes for r in results)
        assert packed.violation_texts() == [
            text for r in results for text in r.violations]

    def test_meta_is_json_safe(self):
        import json

        packed = pack_results([fast_trial(i, _rng(i)) for i in range(4)])
        meta = packed.meta()
        assert json.loads(json.dumps(meta)) == meta
        assert meta["count"] == 4

    def test_non_dataclass_results_fall_back_to_pickle(self):
        results = [tuple_trial(i, _rng(i)) for i in range(5)]
        packed = pack_results(results)
        assert packed.codec == "pickle"
        assert packed.results() == results
        assert packed.meta()["count"] == 5

    def test_mixed_types_fall_back_to_pickle(self):
        results = [fast_trial(0, _rng(0)), tuple_trial(1, _rng(1))]
        assert pack_results(results).codec == "pickle"

    def test_empty_shard(self):
        packed = pack_results([])
        assert packed.count == 0
        assert packed.results() == []
        assert packed.meta()["violations"] == []


def _rng(trial):
    import random

    return random.Random(trial)


class TestShardCacheHygiene:
    """A corrupt cache entry is deleted on load failure (paid once)."""

    def _seed_cache(self, tmp_path):
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        expected = runner.run(_campaign())
        paths = sorted(tmp_path.glob("*.pkl"))
        assert paths, "campaign should have stored shards"
        return expected, paths

    def test_truncated_body_purged_then_recomputed(self, tmp_path):
        expected, paths = self._seed_cache(tmp_path)
        victim = paths[0]
        victim.write_bytes(victim.read_bytes()[:-7])

        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        assert runner.run(_campaign()) == expected
        assert runner.cache.purged == 1
        # the bad file was deleted and a fresh entry written in its place
        assert runner.last_stats.executed_shards == 1
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        assert runner.run(_campaign()) == expected
        assert runner.last_stats.executed_shards == 0

    def test_bad_magic_purged_on_read(self, tmp_path):
        expected, paths = self._seed_cache(tmp_path)
        paths[0].write_bytes(b"not a shard entry at all")
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        assert runner.run(_campaign()) == expected
        assert runner.cache.purged == 1
        assert not paths[0].read_bytes().startswith(b"not a shard")

    def test_direct_cache_purge_counters(self, tmp_path):
        cache = ShardCache(tmp_path)
        key = fingerprint({"k": 1})
        cache.put(key, [1, 2, 3], meta={"count": 3})
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:-2])
        assert cache.get(key) is NO_VALUE
        assert cache.purged == 1
        assert not path.exists()

    def test_header_only_merge_never_touches_bodies(self, tmp_path):
        """run_summaries on a warm cache must not unpickle shard bodies."""
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        expected = runner.run_summaries(_campaign())
        # scribble over every pickled body, keeping the two header lines
        for path in tmp_path.glob("*.pkl"):
            blob = path.read_bytes()
            cut = blob.index(b"\n", blob.index(b"\n") + 1) + 1
            path.write_bytes(blob[:cut] + b"\xde\xad\xbe\xef")
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        assert runner.run_summaries(_campaign()) == expected
        assert runner.last_stats.executed_shards == 0


class TestMachineResetConformance:
    """A reset machine is byte-identical to a freshly constructed one."""

    @pytest.mark.parametrize("platform", ("legacy", "lightpc_b", "lightpc"))
    def test_reset_machine_matches_fresh(self, platform):
        workload = load_workload("aes", refs=2_000)
        fresh = Machine.for_workload(platform, workload)
        baseline = fresh.run(workload)
        baseline_tree = fresh.stats_tree()

        dirty = Machine.for_workload(platform, workload)
        dirty.run(workload)
        if not dirty.backend.is_volatile:
            dirty.power_fail(ATX_PSU)
            dirty.recover()
        dirty.reset()
        assert dirty.run(workload) == baseline
        assert dirty.stats_tree() == baseline_tree

    def test_reset_restores_power_fail_recover_cycle(self):
        workload = load_workload("aes", refs=2_000)
        fresh = Machine.for_workload("lightpc", workload, functional=True)
        fresh.run(workload)
        fail = fresh.power_fail(ATX_PSU)
        go = fresh.recover()
        verified = fresh.sng.verify_resumed_state()

        recycled = Machine.for_workload("lightpc", workload, functional=True)
        recycled.run(workload)
        recycled.power_fail(ATX_PSU)
        recycled.recover()
        recycled.reset()
        recycled.run(workload)
        assert recycled.power_fail(ATX_PSU) == fail
        assert recycled.recover() == go
        assert recycled.sng.verify_resumed_state() == verified

    def test_reset_discards_attached_backend(self):
        from repro.memory.device import PRAMTiming
        from repro.ocpmem.psm import PSM, PSMConfig

        workload = load_workload("aes", refs=1_500)
        machine = Machine.for_workload("lightpc", workload)
        baseline = machine.run(workload)
        machine.reset()
        psm_config = machine.config.psm_config()
        machine.attach_backend(PSM(PSMConfig(
            dimms=psm_config.dimms,
            lines_per_dimm=psm_config.lines_per_dimm,
            layout=psm_config.layout,
            write_aggregation=psm_config.write_aggregation,
            early_return_writes=psm_config.early_return_writes,
            ecc_reconstruction=psm_config.ecc_reconstruction,
            pram_timing=PRAMTiming(read_ns=999.0),
        )))
        assert machine.run(workload) != baseline  # the swap took effect
        machine.reset()
        assert machine.run(workload) == baseline  # ...and reset undid it


    @pytest.mark.parametrize("make", (
        lambda: WindowEngine(window=97),
        lambda: EpochEngine(window=512, tolerance=0.02),
    ), ids=("window-97", "epoch-512-tight"))
    def test_reset_keeps_engine_class_and_parameters(self, make):
        """Reset rebuilds the engine it ran with, not the registry's
        default for that engine's name (the unregistered window engine
        has none; the epoch engine's defaults skip other windows)."""
        workload = load_workload("aes", refs=20_000)
        fresh = Machine.for_workload("lightpc", workload, engine=make())
        baseline = fresh.run(workload)

        machine = Machine.for_workload("lightpc", workload, engine=make())
        machine.run(workload)
        engine = machine.engine
        machine.reset()
        assert machine.engine is not engine
        assert type(machine.engine) is type(engine)
        assert machine.engine.params == make().params
        assert machine.run(workload) == baseline
        assert machine.stats_tree() == fresh.stats_tree()


# -- reset conformance under random dirtying --------------------------------

#: platform -> functional mode of the machine the stream dirties
_POOLED_SHAPES = {"legacy": False, "lightpc_b": True, "lightpc": True}
#: one machine per platform, built once and dirtied and reset by every
#: example, as a campaign worker's pooled template is
_POOLED: dict = {}
#: eight threads, so every core and every cache gets work
_MULTI = load_workload("redis", refs=480)
_AES = load_workload("aes", refs=400)
_ENGINES = ("scalar", "window", "extent", "epoch")

dirty_steps = st.lists(st.one_of(
    st.just(("multi",)),
    st.tuples(st.just("aes"), st.sampled_from(_ENGINES)),
    st.tuples(st.just("power_fail"), st.booleans()),
    st.just(("attach_backend",)),
    st.tuples(st.just("set_engine"), st.sampled_from(("scalar", "epoch"))),
    st.tuples(st.just("overhead"), st.integers(0, 7)),
    st.tuples(st.just("mmio"), st.integers(0, 1 << 12)),
    st.tuples(st.just("vma"), st.integers(0, 1 << 12),
              st.integers(1, 1 << 16)),
    st.tuples(st.just("stat"), st.sampled_from(("cpu", "elsewhere"))),
), min_size=1, max_size=6)


def _build(platform: str) -> Machine:
    return Machine.for_workload(platform, _MULTI,
                                functional=_POOLED_SHAPES[platform])


def _dirty(machine: Machine, step: tuple, index: int) -> None:
    kind = step[0]
    if kind in ("multi", "aes", "attach_backend") and not machine._powered:
        machine.recover()
    if kind == "multi":
        machine.run(_MULTI)
    elif kind == "aes":
        machine.run(_AES, engine=(WindowEngine() if step[1] == "window"
                                  else step[1]))
    elif kind == "power_fail":
        if machine._powered:
            machine.power_fail(ATX_PSU)
            if step[1]:
                machine.recover()
    elif kind == "attach_backend":
        backend = machine.backend
        if backend.is_volatile:
            from repro.memory.dram import DRAMSubsystem

            backend = DRAMSubsystem(dataclasses.replace(
                machine.config.dram, queue_ns=29.0))
        else:
            from repro.memory.device import PRAMTiming
            from repro.ocpmem.psm import PSM

            backend = PSM(dataclasses.replace(
                backend.config, pram_timing=PRAMTiming(read_ns=999.0)),
                functional=machine.functional)
        machine.attach_backend(backend)
    elif kind == "set_engine":
        machine.set_engine(step[1])
    elif kind == "overhead":
        machine.complex.cores[step[1]].overhead = SoftwareOverhead(
            per_read_ns=3.0, per_write_ns=5.0, coverage=0.35,
            extra_flush_writes=1.0)
    elif kind == "mmio":
        drivers = machine.kernel.dpm.drivers
        drivers[step[1] % len(drivers)].scribble_mmio()
    elif kind == "vma":
        tasks = machine.kernel.user_tasks()
        task = tasks[step[1] % len(tasks)]
        task.vmas[step[1] % len(task.vmas)].touch(step[2])
    elif step[1] == "cpu":
        machine.stats.scoped("cpu").register(f"extra{index}", index)
    else:
        machine.stats.register(f"scratch.extra{index}", lambda: index)


def _key_order(tree: dict) -> list:
    return [(key, _key_order(value)) if isinstance(value, dict) else key
            for key, value in tree.items()]


def _core_digest(machine: Machine, core) -> tuple:
    cache = core.cache
    engine = core.engine
    return (
        core.now, core._flush_debt, core.stats.as_dict(),
        [list(ways.items()) for ways in cache._sets],
        (cache.read_hits, cache.write_hits, cache.evictions,
         cache.dirty_evictions),
        core.overhead, type(engine), getattr(engine, "params", {}),
        engine is machine.engine, core.backend is machine.backend,
        core.last_flush_report,
    )


def _machine_digest(machine: Machine) -> dict:
    snapshot = machine.stats.snapshot()
    complex_ = machine.complex
    return {
        "paths": machine.stats.paths(),
        "snapshot": snapshot,
        "key order": _key_order(snapshot),
        "cores": [_core_digest(machine, core) for core in complex_.cores],
        "complex": (complex_.backend is machine.backend,
                    complex_.engine is machine.engine),
        "engine": (type(machine.engine),
                   getattr(machine.engine, "params", {})),
        "world": world_digest(machine.kernel, machine.sng),
        "sng": None if machine.sng is None else (
            machine.sng.port is machine.backend,
            machine.sng.kernel is machine.kernel),
        "powered": machine._powered,
        "runs": machine.runs,
    }


def _fixed_run(machine: Machine) -> tuple:
    """An aes run, then Stop, Go and the resumed-state check."""
    result = machine.run(_AES)
    fail = machine.power_fail(ATX_PSU)
    go = machine.recover()
    verified = None if machine.sng is None \
        else machine.sng.verify_resumed_state()
    return result, fail, go, verified


class TestResetConformanceStream:
    """Whatever a trial dirties, ``reset()`` undoes: a pooled machine
    dirtied by a random stream and then reset is a fresh build, field by
    field, and runs the fixed trial a fresh build runs."""

    @pytest.mark.parametrize("platform", sorted(_POOLED_SHAPES))
    @settings(max_examples=25, deadline=None)
    @given(steps=dirty_steps)
    def test_reset_after_random_dirtying_matches_fresh(self, platform,
                                                        steps):
        machine = _POOLED.get(platform)
        if machine is None:
            machine = _POOLED[platform] = _build(platform)
        for index, step in enumerate(steps):
            _dirty(machine, step, index)
        machine.reset()
        fresh = _build(platform)
        assert _machine_digest(machine) == _machine_digest(fresh)
        assert _fixed_run(machine) == _fixed_run(fresh)


class TestMachinePool:
    def test_engine_configurations_lease_separate_templates(
            self, monkeypatch):
        from repro.orchestrate import pool as pool_module

        pool = MachinePool()
        monkeypatch.setattr(pool_module, "_MACHINE_POOL", pool)
        workload = load_workload("aes", refs=1_500)
        tight = machine_for_workload(
            "lightpc", workload,
            engine=EpochEngine(window=512, tolerance=0.02))
        loose = machine_for_workload(
            "lightpc", workload, engine=EpochEngine(window=1024))
        assert tight is not loose
        assert (pool.built, pool.reused) == (2, 0)
        assert tight.engine.params["window"] == 512
        assert loose.engine.params["window"] == 1024
        again = machine_for_workload(
            "lightpc", workload,
            engine=EpochEngine(window=512, tolerance=0.02))
        assert again is tight
        assert (pool.built, pool.reused) == (2, 1)
        assert again.engine.params == EpochEngine(
            window=512, tolerance=0.02).params

    def test_pool_key_fingerprints_what_construction_depends_on(
            self, monkeypatch):
        """The memoized key of a name-selected engine is the
        fingerprint of the platform, sized config, functional mode and
        engine name, read from the process default on every lease; an
        engine instance keys on its ``engine_key``."""
        from repro.core import PlatformConfig
        from repro.engine.base import (
            default_engine_name,
            engine_key,
            set_default_engine,
        )
        from repro.orchestrate import pool as pool_module

        pool = MachinePool()
        monkeypatch.setattr(pool_module, "_MACHINE_POOL", pool)
        workload = load_workload("aes", refs=1_500)
        sized = PlatformConfig().sized_for(
            workload.spec.profile.working_set_lines * 64
            * workload.threads * 2)

        def key(engine) -> str:
            return fingerprint({"platform": "lightpc", "config": sized,
                                "functional": True, "engine": engine})

        def lease(engine=None):
            machine = machine_for_workload("lightpc", workload,
                                           functional=True, engine=engine)
            return machine, next(reversed(pool._machines))

        default = default_engine_name()
        assert default != "scalar"
        machine, leased = lease()
        assert leased == key(default)
        assert machine.engine.name == default
        assert lease("scalar")[1] == key("scalar")
        assert lease(default)[0] is machine  # the memoized key again
        previous = set_default_engine("scalar")
        try:
            scalar, leased = lease()
        finally:
            set_default_engine(previous)
        assert leased == key("scalar")
        assert scalar.engine.name == "scalar" and scalar is not machine
        assert (pool.built, pool.reused) == (2, 2)

        tight = EpochEngine(window=512, tolerance=0.02)
        loose = EpochEngine(window=1024)
        first, tight_key = lease(tight)
        second, loose_key = lease(loose)
        assert tight_key == key(engine_key(tight))
        assert loose_key == key(engine_key(loose))
        assert tight_key != loose_key and first is not second
        assert lease(EpochEngine(window=512, tolerance=0.02))[0] is first

    def test_lease_builds_once_then_resets(self):
        workload = load_workload("aes", refs=1_500)
        pool = MachinePool()
        builds = []

        def build():
            machine = Machine.for_workload("lightpc", workload)
            builds.append(machine)
            return machine

        first = pool.lease("k", build)
        second = pool.lease("k", build)
        assert first is second
        assert len(builds) == 1
        assert (pool.built, pool.reused) == (1, 2 - 1)

    def test_lru_eviction_at_capacity(self):
        pool = MachinePool(capacity=2)

        class Stub:
            def reset(self):
                return self

        pool.lease("a", Stub)
        pool.lease("b", Stub)
        pool.lease("c", Stub)  # evicts "a"
        assert len(pool) == 2
        pool.lease("a", Stub)  # rebuilt
        assert pool.built == 4
        with pytest.raises(ValueError):
            MachinePool(capacity=0)


SEEDS = (3, 11, 2026)


def _fresh_machine(platform, workload, config=None, functional=False,
                   engine=None):
    """What a campaign trial leases, built afresh on every call."""
    return Machine.for_workload(platform, workload, config,
                                functional=functional, engine=engine)


class TestWarmIdentity:
    """serial == warm-pool == a fresh build per trial, per consumer, per
    seed.  The fresh-build references run inline with the lease patched
    out, so they never reach the shared executor's workers."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_machine_identity(self, seed, monkeypatch):
        serial = fuzz_machine(trials=4, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(crashfuzz, "machine_for_workload", _fresh_machine)
            fresh = fuzz_machine(trials=4, seed=seed)
        pooled = fuzz_machine(trials=4, seed=seed, jobs=2)
        assert serial == fresh == pooled

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_trace_identity(self, seed, tmp_path, monkeypatch):
        kwargs = dict(trials=6, window=96, seed=seed, refs=6_000,
                      trace_dir=tmp_path)
        serial = fuzz_trace(**kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(crashfuzz, "machine_for_workload", _fresh_machine)
            fresh = fuzz_trace(**kwargs)
        pooled = fuzz_trace(jobs=2, **kwargs)
        assert serial == fresh == pooled

    @pytest.mark.parametrize("seed", SEEDS)
    def test_litmus_identity(self, seed):
        serial = run_litmus(trials=6, seed=seed)
        pooled = run_litmus(trials=6, seed=seed, jobs=2)
        assert serial == pooled

    @pytest.mark.parametrize("seed", SEEDS)
    def test_drill_identity(self, seed):
        serial = run_drill(trials=4, seed=seed)
        pooled = run_drill(trials=4, seed=seed, jobs=2)
        assert serial == pooled

    def test_sensitivity_identity(self, tmp_path, monkeypatch):
        kwargs = dict(multipliers=(1.0, 2.0), refs=1_500,
                      trace_dir=tmp_path)
        serial = read_latency_sweep(**kwargs)
        with monkeypatch.context() as patch:
            # fresh machines running the generated workload, not the
            # replay of its materialised traces
            patch.setattr(sensitivity, "machine_for_workload",
                          _fresh_machine)
            patch.setattr(sensitivity, "replay_workload",
                          lambda name, paths, refs: load_workload(
                              name, refs=refs))
            fresh = read_latency_sweep(**kwargs)
        pooled = read_latency_sweep(jobs=2, **kwargs)
        assert serial == fresh == pooled

    def test_cold_pool_matches_warm_pool(self):
        campaign = _campaign(trials=24, seed=5)
        warm = CampaignRunner(jobs=2).run(campaign)
        shutdown_executors()    # the next run starts a new pool
        cold = CampaignRunner(jobs=2).run(campaign)
        inline = CampaignRunner(jobs=1).run(campaign)
        assert warm == cold == inline


class TestWatchdogWarmPool:
    def test_retried_shard_matches_serial_under_warm_pool(self, tmp_path):
        """A timed-out-then-retried shard merges byte-identically, and
        the session's warm executor is unharmed by the watchdog path."""
        sentinel = str(tmp_path / "hung")
        flaky = Campaign(name="flaky", trials=6, trial_fn=flaky_trial,
                         seed=13, params={"sentinel": sentinel,
                                          "hang_index": 2})
        serial = CampaignRunner(jobs=1).run(
            Campaign(name="flaky", trials=6, trial_fn=tuple_trial, seed=13))
        # strip the params: tuple_trial is flaky_trial minus the hang
        watched = CampaignRunner(jobs=2, trial_timeout=3.0).run(flaky)
        assert watched == serial
        # the warm pool still answers after the watchdog detour
        after = CampaignRunner(jobs=2).run(_campaign(trials=12, seed=5))
        assert after == CampaignRunner(jobs=1).run(_campaign(trials=12,
                                                             seed=5))


class TestProgressThroughput:
    def test_executed_throughput_counts_only_executed(self):
        from repro.orchestrate import CampaignProgress

        state = {"now": 0.0}
        progress = CampaignProgress("x", total_trials=20,
                                    clock=lambda: state["now"])
        progress.start()
        state["now"] = 1.0
        progress.shard_done(10, cached=True)
        progress.shard_done(5, cached=False)
        assert progress.executed_throughput() == pytest.approx(5.0)
        assert progress.throughput() == pytest.approx(15.0)
