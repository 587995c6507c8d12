"""The campaign orchestration contract: parallel == serial, bit for bit.

Persistency-model validation is only worth anything if adversarial runs
reproduce ("Lost in Interpretation", arXiv:2405.18575), so the runner's
promises are pinned here rather than trusted:

* merged reports are byte-identical for ``jobs=1`` vs ``jobs=4`` and for
  shuffled shard submission orders, at several seeds;
* each fuzz campaign's coverage at a fixed seed is pinned as a golden
  ``(operations, crashes, violations)`` tuple, so RNG-plumbing refactors
  cannot silently change what the fuzzers explore;
* a warm shard cache serves every shard without re-executing any.
"""

import dataclasses
import io
import os
import random
import time

import pytest

from repro.analysis.crashfuzz import (
    FuzzReport,
    TrialOutcome,
    fuzz_machine,
    fuzz_pool,
    fuzz_psm,
    fuzz_sector,
    psm_trial,
)
from repro.orchestrate import (
    NO_VALUE,
    Campaign,
    CampaignProgress,
    CampaignRunner,
    ShardCache,
    ShardTimeoutError,
    derive_seed,
    fingerprint,
    run_shard,
    run_shard_watched,
    source_digest,
    trial_rng,
)


def counted_trial(trial, rng, scale=1):
    """A cheap trial with an observable RNG draw."""
    return (trial, rng.randrange(1_000_000) * scale)


def flaky_trial(trial, rng, sentinel=None, hang_index=2):
    """Hangs at ``hang_index`` on the first attempt only (marker file),
    then returns exactly what ``counted_trial`` would."""
    value = (trial, rng.randrange(1_000_000))
    if trial == hang_index:
        marker = f"{sentinel}.{trial}"
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            time.sleep(60)
    return value


def hanging_trial(trial, rng, hang_index=1):
    """Hangs at ``hang_index`` on every attempt."""
    if trial == hang_index:
        time.sleep(60)
    return (trial, rng.randrange(1_000_000))


def failing_trial(trial, rng):
    if trial == 1:
        raise ValueError("boom at trial 1")
    return (trial, rng.randrange(1_000_000))


def report_bytes(report: FuzzReport) -> bytes:
    return repr(dataclasses.astuple(report)).encode()


class TestSeeding:
    def test_same_coordinates_same_stream(self):
        a = trial_rng(7, 3).random()
        b = trial_rng(7, 3).random()
        assert a == b

    def test_streams_are_independent_of_other_trials(self):
        # drawing from trial 0's RNG must not perturb trial 1's stream
        lone = trial_rng(7, 1).random()
        first = trial_rng(7, 0)
        for _ in range(100):
            first.random()
        assert trial_rng(7, 1).random() == lone

    def test_distinct_trials_distinct_streams(self):
        draws = {trial_rng(7, index).random() for index in range(50)}
        assert len(draws) == 50

    def test_no_seed_trial_aliasing(self):
        # Random(seed + trial) would collide (1, 0) with (0, 1)
        assert derive_seed(1, 0) != derive_seed(0, 1)

    def test_namespace_separates_campaigns(self):
        assert derive_seed(5, 2, "psm") != derive_seed(5, 2, "machine")


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_psm_reports_byte_identical(self, seed):
        serial = fuzz_psm(trials=8, ops=80, seed=seed, jobs=1)
        parallel = fuzz_psm(trials=8, ops=80, seed=seed, jobs=4)
        assert report_bytes(serial) == report_bytes(parallel)

    @pytest.mark.parametrize("seed", [3, 51])
    def test_pool_and_sector_reports_byte_identical(self, seed):
        assert report_bytes(fuzz_pool(trials=6, txs=6, seed=seed)) == \
            report_bytes(fuzz_pool(trials=6, txs=6, seed=seed, jobs=4))
        assert report_bytes(fuzz_sector(trials=6, writes=20, seed=seed)) == \
            report_bytes(fuzz_sector(trials=6, writes=20, seed=seed, jobs=4))

    def test_machine_report_byte_identical(self):
        serial = fuzz_machine(trials=4, seed=11, jobs=1)
        parallel = fuzz_machine(trials=4, seed=11, jobs=2)
        assert report_bytes(serial) == report_bytes(parallel)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_shuffled_shard_order_merges_identically(self, seed):
        campaign = Campaign(name="psm", trials=12, trial_fn=psm_trial,
                            seed=seed, params={"ops": 60})
        runner = CampaignRunner(jobs=1, shard_size=2)
        natural = runner.run(campaign)
        order = list(range(len(runner.shards(12))))
        random.Random(99).shuffle(order)
        shuffled = runner.run(campaign, shard_order=order)
        assert [dataclasses.astuple(o) for o in natural] == \
            [dataclasses.astuple(o) for o in shuffled]

    def test_shard_boundaries_do_not_leak_into_results(self):
        campaign = Campaign(name="count", trials=20, trial_fn=counted_trial)
        coarse = CampaignRunner(jobs=1, shard_size=20).run(campaign)
        fine = CampaignRunner(jobs=1, shard_size=1).run(campaign)
        assert coarse == fine

    def test_bad_shard_order_rejected(self):
        campaign = Campaign(name="count", trials=4, trial_fn=counted_trial)
        runner = CampaignRunner(jobs=1, shard_size=2)
        with pytest.raises(ValueError):
            runner.run(campaign, shard_order=[0, 0])


class TestGoldenDeterminism:
    """Pinned coverage per campaign: if an RNG-plumbing refactor shifts
    any trial's stream, these tuples move and the diff is visible."""

    @pytest.mark.parametrize("fuzzer, kwargs, golden", [
        (fuzz_psm, {"trials": 10, "ops": 100, "seed": 1234}, (533, 10, 0)),
        (fuzz_pool, {"trials": 10, "txs": 8, "seed": 1234}, (108, 10, 0)),
        (fuzz_sector, {"trials": 10, "writes": 25, "seed": 1234},
         (158, 10, 0)),
        (fuzz_machine, {"trials": 3, "seed": 1234}, (11498, 3, 0)),
    ])
    def test_campaign_coverage_pinned(self, fuzzer, kwargs, golden):
        report = fuzzer(**kwargs)
        assert (report.operations, report.crashes,
                len(report.violations)) == golden

    def test_back_to_back_campaigns_do_not_leak_seeds(self):
        """Regression: with a shared module/campaign RNG, campaign B's
        streams depended on whether campaign A ran first in-process."""
        first = fuzz_pool(trials=6, txs=6, seed=3)
        fuzz_psm(trials=4, ops=40, seed=8)        # interloper
        second = fuzz_pool(trials=6, txs=6, seed=3)
        assert report_bytes(first) == report_bytes(second)


class TestShardCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ShardCache(tmp_path)
        assert cache.get("absent") is NO_VALUE
        cache.put("key", [TrialOutcome(operations=3)])
        assert cache.get("key")[0].operations == 3
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_fingerprint_stability_and_sensitivity(self):
        base = {"name": "psm", "seed": 0, "params": {"ops": 100}}
        assert fingerprint(base) == fingerprint(dict(base))
        assert fingerprint(base) != fingerprint({**base, "seed": 1})
        assert fingerprint(base) != \
            fingerprint({**base, "params": {"ops": 101}})

    def test_warm_rerun_executes_nothing(self, tmp_path):
        kwargs = dict(trials=12, ops=60, seed=5, cache_dir=tmp_path)
        cold = fuzz_psm(jobs=1, **kwargs)
        assert len(list(tmp_path.iterdir())) > 0
        warm_runner_report = fuzz_psm(jobs=1, **kwargs)
        assert report_bytes(cold) == report_bytes(warm_runner_report)

    def test_warm_rerun_stats_all_cached(self, tmp_path):
        campaign = Campaign(name="count", trials=16, trial_fn=counted_trial)
        cold = CampaignRunner(jobs=1, cache_dir=tmp_path, shard_size=4)
        cold_results = cold.run(campaign)
        assert cold.last_stats.executed_shards == 4
        assert cold.last_stats.cached_shards == 0
        warm = CampaignRunner(jobs=1, cache_dir=tmp_path, shard_size=4)
        assert warm.run(campaign) == cold_results
        assert warm.last_stats.executed_shards == 0
        assert warm.last_stats.cached_shards == 4

    def test_cache_survives_parallelism_change(self, tmp_path):
        campaign = Campaign(name="count", trials=16, trial_fn=counted_trial)
        CampaignRunner(jobs=2, cache_dir=tmp_path, shard_size=4).run(campaign)
        warm = CampaignRunner(jobs=1, cache_dir=tmp_path, shard_size=4)
        warm.run(campaign)
        assert warm.last_stats.executed_shards == 0

    def test_code_change_misses_every_shard(self, tmp_path, monkeypatch):
        """A cache written by other code is never replayed: the digest
        of the package source is part of every shard key."""
        campaign = Campaign(name="count", trials=16, trial_fn=counted_trial)
        CampaignRunner(jobs=1, cache_dir=tmp_path, shard_size=4).run(campaign)
        warm = CampaignRunner(jobs=1, cache_dir=tmp_path, shard_size=4)
        warm.run(campaign)
        assert warm.last_stats.cached_shards == 4
        monkeypatch.setattr("repro.orchestrate.runner.source_digest",
                            lambda: "0" * 64)
        other = CampaignRunner(jobs=1, cache_dir=tmp_path, shard_size=4)
        other.run(campaign)
        assert other.last_stats.executed_shards == 4
        assert other.last_stats.cached_shards == 0

    def test_source_digest_only_with_a_cache(self, monkeypatch):
        def unreadable():
            raise AssertionError("digest computed without a cache")

        monkeypatch.setattr("repro.orchestrate.runner.source_digest",
                            unreadable)
        campaign = Campaign(name="count", trials=4, trial_fn=counted_trial)
        assert len(CampaignRunner(jobs=1).run(campaign)) == 4

    def test_source_digest_is_stable(self):
        digest = source_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert source_digest() == digest

    def test_param_change_misses_cleanly(self, tmp_path):
        base = Campaign(name="count", trials=8, trial_fn=counted_trial,
                        params={"scale": 1})
        changed = Campaign(name="count", trials=8, trial_fn=counted_trial,
                           params={"scale": 2})
        CampaignRunner(jobs=1, cache_dir=tmp_path).run(base)
        runner = CampaignRunner(jobs=1, cache_dir=tmp_path)
        results = runner.run(changed)
        assert runner.last_stats.cached_shards == 0
        assert all(value % 2 == 0 for _, value in results)


class TestRunnerShape:
    def test_shards_cover_range_without_overlap(self):
        runner = CampaignRunner(jobs=1)
        shards = runner.shards(100)
        covered = [i for lo, hi in shards for i in range(lo, hi)]
        assert covered == list(range(100))

    def test_shard_boundaries_independent_of_jobs(self):
        assert CampaignRunner(jobs=1).shards(200) == \
            CampaignRunner(jobs=8).shards(200)

    def test_zero_trials(self):
        campaign = Campaign(name="count", trials=0, trial_fn=counted_trial)
        assert CampaignRunner(jobs=1).run(campaign) == []

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=0)
        with pytest.raises(ValueError):
            CampaignRunner(shard_size=0)

    def test_serial_campaign_loads_no_process_pool(self, run_python):
        """Only the paths that start a pool import it: a jobs=1 campaign
        pays for neither ``multiprocessing`` nor the executor."""
        script = (
            "import sys\n"
            "from repro.litmus.campaign import run_litmus\n"
            "assert run_litmus(trials=4, seed=0).ok\n"
            "print(sorted(name for name in sys.modules if name in (\n"
            "    'multiprocessing', 'concurrent.futures.process')))\n")
        assert run_python(script).strip() == "[]"


class TestWatchdog:
    """Per-shard watchdog: hung trials are killed and retried once with
    the same derived seed, so watched results are byte-identical to
    unwatched ones whenever the trials terminate."""

    def test_watched_equals_unwatched(self):
        campaign = Campaign(name="count", trials=6, trial_fn=counted_trial,
                            seed=4)
        assert run_shard_watched(campaign, 0, 6, trial_timeout=30.0) == \
            run_shard(campaign, 0, 6)

    def test_hung_trial_killed_and_retried_with_same_seed(self, tmp_path):
        sentinel = str(tmp_path / "attempt")
        campaign = Campaign(name="count", trials=5, trial_fn=flaky_trial,
                            seed=4, params={"sentinel": sentinel})
        results = run_shard_watched(campaign, 0, 5, trial_timeout=1.5)
        # the first attempt hung (its marker exists) ...
        assert os.path.exists(f"{sentinel}.2")
        # ... and the retry replayed the identical RNG stream
        reference = Campaign(name="count", trials=5, trial_fn=counted_trial,
                             seed=4)
        assert results == run_shard(reference, 0, 5)

    def test_twice_hung_trial_fails_the_shard(self):
        campaign = Campaign(name="count", trials=3, trial_fn=hanging_trial,
                            seed=4)
        with pytest.raises(ShardTimeoutError, match="trial 1 .*twice"):
            run_shard_watched(campaign, 0, 3, trial_timeout=0.8)

    def test_worker_exception_propagates_with_traceback(self):
        campaign = Campaign(name="count", trials=3, trial_fn=failing_trial,
                            seed=4)
        with pytest.raises(RuntimeError, match="boom at trial 1"):
            run_shard_watched(campaign, 0, 3, trial_timeout=30.0)

    def test_runner_timeout_parallel_matches_serial(self):
        campaign = Campaign(name="count", trials=12, trial_fn=counted_trial,
                            seed=9)
        plain = CampaignRunner(jobs=1, shard_size=3).run(campaign)
        watched = CampaignRunner(jobs=2, shard_size=3,
                                 trial_timeout=30.0).run(campaign)
        assert plain == watched

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(trial_timeout=0)


class TestProgress:
    def test_counters_and_lines(self):
        stream = io.StringIO()
        import itertools
        # consumed as: start, first line's ETA, then "now" forever after
        ticks = itertools.chain([0.0, 1.0], itertools.repeat(2.0))
        progress = CampaignProgress("psm", total_trials=20, stream=stream,
                                    clock=lambda: next(ticks))
        progress.start()
        progress.shard_done(10, violations=1)
        progress.shard_done(10, cached=True)
        progress.finish()
        assert progress.completed_trials == 20
        assert progress.violations == 1
        assert progress.cached_shards == 1
        assert progress.throughput() == pytest.approx(10.0)
        lines = stream.getvalue().splitlines()
        assert "10/20 trials (50%)" in lines[0]
        assert "ETA 1.0s" in lines[0]
        assert "done" in lines[-1]

    def test_runner_feeds_progress(self, tmp_path):
        progress = CampaignProgress("count", total_trials=8)
        runner = CampaignRunner(jobs=1, shard_size=2, cache_dir=tmp_path,
                                progress=progress)
        runner.run(Campaign(name="count", trials=8, trial_fn=counted_trial))
        assert progress.completed_trials == 8
        assert progress.executed_shards == 4
        warm_progress = CampaignProgress("count", total_trials=8)
        warm = CampaignRunner(jobs=1, shard_size=2, cache_dir=tmp_path,
                              progress=warm_progress)
        warm.run(Campaign(name="count", trials=8, trial_fn=counted_trial))
        assert warm_progress.cached_shards == 4
        assert warm_progress.executed_shards == 0
