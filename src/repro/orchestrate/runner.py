"""The campaign runner: shard, execute, cache, merge — deterministically.

A :class:`Campaign` names a trial function and how many times to call
it; the :class:`CampaignRunner` decides *how* the calls happen (inline
or across a warm ``ProcessPoolExecutor``, cold or from a shard cache).
The determinism contract is structural rather than promised:

* every trial draws from its own RNG derived from
  ``(campaign.seed, trial_index)`` (:mod:`repro.orchestrate.seeding`),
  never from shared state;
* shard boundaries depend only on the trial count, never on ``jobs``,
  so the same campaign hits the same cache entries at any parallelism;
* merged output is assembled in trial-index order no matter which
  worker finished first.

``jobs=1`` runs shards inline in the calling process — no executor, no
pickling — and is byte-identical to any parallel run, which
``tests/test_orchestrate.py`` asserts at several seeds.

The campaign fast path rides three mechanisms below this module:
workers come from the session-wide warm executors of
:mod:`repro.orchestrate.pool` (``reuse_pool=False`` restores the old
spawn-per-campaign behaviour); shards cross the process boundary as
struct-of-arrays :class:`~repro.orchestrate.results.PackedShard`
summaries instead of pickled object lists; and consumers that only
need campaign aggregates call :meth:`CampaignRunner.run_summaries`,
which merges cached shards from their cache-header meta line without
ever unpickling a body.
"""

from __future__ import annotations

import os
import queue as queue_module
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.orchestrate.cache import (
    NO_VALUE,
    ShardCache,
    fingerprint,
    source_digest,
)
from repro.orchestrate.pool import invalidate_executor, warm_executor
from repro.orchestrate.progress import CampaignProgress
from repro.orchestrate.results import CampaignSummary, PackedShard, pack_results
from repro.orchestrate.seeding import trial_rng

__all__ = [
    "Campaign",
    "CampaignRunner",
    "CampaignStats",
    "ShardTimeoutError",
    "run_shard",
    "run_shard_packed",
    "run_shard_watched",
]

#: Default number of shards a campaign is cut into.  A function of the
#: trial count only — never of ``jobs`` — so cache keys survive changes
#: in parallelism while still leaving enough shards to load-balance.
DEFAULT_TARGET_SHARDS = 16


@dataclass(frozen=True)
class Campaign:
    """A trial-indexed unit of work.

    ``trial_fn(trial_index, rng, **params, **shared)`` must be a
    module-level callable (so it pickles into worker processes) and
    must derive all randomness from the injected ``rng``.  ``params``
    become part of the cache fingerprint, so two campaigns differing
    only in, say, ``ops`` never share shards.  ``shared`` carries
    transport-level resources — e.g. the path of a materialised trace
    file every worker maps read-only — that must not influence results
    (only how they are obtained), so it stays *out* of the fingerprint:
    the same campaign re-run from a different scratch directory still
    hits its cache.
    """

    name: str
    trials: int
    trial_fn: Callable[..., Any]
    seed: int = 0
    params: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        return fingerprint({
            "name": self.name,
            "seed": self.seed,
            "trial_fn": self.trial_fn,
            "params": self.params,
        })


@dataclass
class CampaignStats:
    """What one :meth:`CampaignRunner.run` actually did."""

    total_shards: int = 0
    executed_shards: int = 0
    cached_shards: int = 0
    trials: int = 0
    violations: int = 0
    #: summed ``operations`` across trial results that carry the field
    #: (crashfuzz outcomes count stream ops, litmus outcomes IR ops) —
    #: cached shards contribute too, so the figure is replay-stable.
    operations: int = 0


def run_shard(campaign: Campaign, lo: int, hi: int) -> list:
    """Execute trials ``[lo, hi)`` of a campaign; per-trial results.

    Module-level so a ``ProcessPoolExecutor`` can pickle it; also the
    inline (``jobs=1``) execution path, so both paths are literally the
    same code.
    """
    return [
        campaign.trial_fn(
            index,
            trial_rng(campaign.seed, index, namespace=campaign.name),
            **campaign.params,
            **campaign.shared,
        )
        for index in range(lo, hi)
    ]


def run_shard_packed(campaign: Campaign, lo: int, hi: int) -> PackedShard:
    """:func:`run_shard`, returning the columnar summary — what warm
    pool workers ship back over IPC instead of pickled object lists."""
    return pack_results(run_shard(campaign, lo, hi))


class ShardTimeoutError(RuntimeError):
    """A trial exceeded its watchdog timeout twice; the campaign fails."""


def _watchdog_worker(campaign: Campaign, lo: int, hi: int, out) -> None:
    """Child-process body: stream per-trial results back as they land.

    Results go back one at a time so the parent can put a deadline on
    each: a hung trial shows up as silence on the queue, and everything
    finished before it is already safely across.
    """
    try:
        for index in range(lo, hi):
            result = campaign.trial_fn(
                index,
                trial_rng(campaign.seed, index, namespace=campaign.name),
                **campaign.params,
                **campaign.shared,
            )
            out.put(("ok", index, result))
    except BaseException:
        # Exceptions may not pickle; ship the traceback as text.
        out.put(("error", -1, traceback.format_exc()))


def run_shard_watched(campaign: Campaign, lo: int, hi: int,
                      trial_timeout: float) -> list:
    """Execute trials ``[lo, hi)`` under a per-trial watchdog.

    Trials run in a child process that streams results back; a trial
    silent for ``trial_timeout`` seconds is killed (with its process)
    and retried exactly once in a fresh process.  Because every trial's
    RNG is a pure function of ``(seed, index)``, the retry replays the
    identical stream, so watched results are byte-identical to
    :func:`run_shard` whenever the trials terminate.  A trial that
    times out twice raises :class:`ShardTimeoutError`.
    """
    import multiprocessing

    context = multiprocessing.get_context()
    results: list = []
    next_index = lo
    retried: set[int] = set()
    while next_index < hi:
        channel = context.Queue()
        worker = context.Process(
            target=_watchdog_worker,
            args=(campaign, next_index, hi, channel),
            daemon=True,
        )
        worker.start()
        hung = False
        try:
            while next_index < hi:
                try:
                    kind, _index, payload = channel.get(
                        timeout=trial_timeout)
                except queue_module.Empty:
                    hung = True
                    break
                if kind == "error":
                    raise RuntimeError(
                        f"trial worker failed in shard [{lo}, {hi}):\n"
                        f"{payload}")
                results.append(payload)
                next_index += 1
        finally:
            if worker.is_alive():
                worker.terminate()
            worker.join()
            channel.close()
        if hung:
            if next_index in retried:
                raise ShardTimeoutError(
                    f"trial {next_index} exceeded {trial_timeout}s twice "
                    f"(killed, retried once with the same derived seed)")
            retried.add(next_index)
    return results


def _as_packed(value: Any) -> PackedShard:
    """Normalise a cache body (packed, or a legacy raw result list)."""
    if isinstance(value, PackedShard):
        return value
    return pack_results(list(value))


class CampaignRunner:
    """Shard a campaign, execute the shards, merge in trial order."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str | os.PathLike] = None,
        shard_size: Optional[int] = None,
        target_shards: int = DEFAULT_TARGET_SHARDS,
        progress: Optional[CampaignProgress] = None,
        trial_timeout: Optional[float] = None,
        reuse_pool: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if trial_timeout is not None and trial_timeout <= 0:
            raise ValueError(
                f"trial_timeout must be positive, got {trial_timeout}")
        self.jobs = jobs
        self.cache = ShardCache(cache_dir) if cache_dir else None
        self.shard_size = shard_size
        self.target_shards = max(1, target_shards)
        self.progress = progress
        #: per-trial watchdog in seconds; None disables the watchdog
        self.trial_timeout = trial_timeout
        #: reuse the session-wide warm executor (False = spawn a fresh
        #: pool per run and tear it down after — the cold-pool baseline)
        self.reuse_pool = reuse_pool
        self.last_stats = CampaignStats()

    # -- sharding ---------------------------------------------------------

    def shards(self, trials: int) -> list[tuple[int, int]]:
        """Deterministic ``[lo, hi)`` shard boundaries for a trial count."""
        if trials <= 0:
            return []
        size = self.shard_size or -(-trials // self.target_shards)
        return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

    # -- execution --------------------------------------------------------

    def run(self, campaign: Campaign,
            shard_order: Optional[Sequence[int]] = None) -> list:
        """All per-trial results of ``campaign``, in trial-index order.

        ``shard_order`` (a permutation of shard indices) controls the
        *submission* order only; it exists so tests can prove that
        merged output does not depend on execution order.
        """
        packed = self._execute(campaign, shard_order, bodies=True)
        return [result
                for shard in packed
                for result in shard.results()]

    def run_summaries(self, campaign: Campaign,
                      shard_order: Optional[Sequence[int]] = None
                      ) -> CampaignSummary:
        """Streaming-merged aggregates of ``campaign``, in trial order.

        The fast path for report-shaped consumers: executed shards
        contribute their columnar summary, cached shards contribute
        their cache-header meta line — no per-trial object is ever
        reconstructed, and warm re-runs never unpickle a shard body.
        """
        summary = CampaignSummary()
        for meta in self._execute(campaign, shard_order, bodies=False):
            summary.absorb(meta)
        return summary

    def _execute(self, campaign: Campaign,
                 shard_order: Optional[Sequence[int]],
                 bodies: bool) -> list:
        """Run/load every shard; per-shard payloads in shard order.

        Payloads are :class:`PackedShard` when ``bodies`` is true, meta
        dicts otherwise (cached shards then stay on disk).
        """
        shards = self.shards(campaign.trials)
        order = list(range(len(shards))) if shard_order is None \
            else list(shard_order)
        if sorted(order) != list(range(len(shards))):
            raise ValueError(
                f"shard_order must be a permutation of 0..{len(shards) - 1}")

        stats = CampaignStats(total_shards=len(shards))
        progress = self.progress
        if progress is not None:
            progress.start()
        base = campaign.fingerprint()
        if self.cache is not None:
            base = fingerprint({"campaign": base, "source": source_digest()})
        outputs: dict[int, Any] = {}

        def record(shard_index: int, packed: Optional[PackedShard],
                   meta: dict, cached: bool) -> None:
            outputs[shard_index] = packed if bodies else meta
            stats.trials += meta["count"]
            stats.operations += meta["sums"].get("operations", 0)
            violations = len(meta["violations"])
            stats.violations += violations
            if cached:
                stats.cached_shards += 1
            else:
                stats.executed_shards += 1
            if progress is not None:
                progress.shard_done(meta["count"], violations=violations,
                                    cached=cached)

        def record_executed(shard_index: int, packed: PackedShard) -> None:
            record(shard_index, packed, packed.meta(), cached=False)
            self._store(base, shards[shard_index], packed)

        pending: list[int] = []
        for shard_index in order:
            lo, hi = shards[shard_index]
            if self.cache is not None:
                key = fingerprint({"campaign": base, "lo": lo, "hi": hi})
                entry = self.cache.get_entry(key)
                if entry is not NO_VALUE:
                    if bodies:
                        value = entry.load()
                        if value is not NO_VALUE:
                            packed = _as_packed(value)
                            record(shard_index, packed, packed.meta(),
                                   cached=True)
                            continue
                        # body was corrupt (now purged): execute below
                    elif {"count", "sums", "violations"} <= entry.meta.keys():
                        record(shard_index, None, entry.meta, cached=True)
                        continue
                    else:
                        # header lacks the streaming meta (legacy or
                        # hand-written entry): fall back to the body
                        value = entry.load()
                        if value is not NO_VALUE:
                            packed = _as_packed(value)
                            record(shard_index, packed, packed.meta(),
                                   cached=True)
                            continue
            pending.append(shard_index)

        timeout = self.trial_timeout
        if self.jobs == 1 or len(pending) <= 1:
            for shard_index in pending:
                lo, hi = shards[shard_index]
                if timeout is None:
                    shard_results = run_shard(campaign, lo, hi)
                else:
                    shard_results = run_shard_watched(campaign, lo, hi,
                                                      timeout)
                record_executed(shard_index, pack_results(shard_results))
        elif timeout is not None:
            # Watchdogs need to spawn (and kill) child processes, which
            # pool workers cannot safely do; parent threads each babysit
            # one watched child process instead — same parallelism, and
            # the deterministic merge is oblivious to the difference.
            from concurrent.futures import (
                FIRST_COMPLETED,
                ThreadPoolExecutor,
                wait,
            )

            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                futures = {
                    pool.submit(run_shard_watched, campaign,
                                *shards[shard_index], timeout): shard_index
                    for shard_index in pending
                }
                outstanding = set(futures)
                while outstanding:
                    done, outstanding = wait(outstanding,
                                             return_when=FIRST_COMPLETED)
                    for future in done:
                        record_executed(futures[future],
                                        pack_results(future.result()))
        else:
            self._run_pooled(campaign, shards, pending, record_executed)

        self.last_stats = stats
        if progress is not None:
            progress.finish()
        return [outputs[shard_index] for shard_index in range(len(shards))]

    def _run_pooled(self, campaign: Campaign,
                    shards: list[tuple[int, int]], pending: list[int],
                    record_executed) -> None:
        """Fan pending shards across a process pool (warm by default)."""
        if self.reuse_pool:
            self._drain_pool(warm_executor(self.jobs), campaign,
                             shards, pending, record_executed)
        else:
            # imported where a pool starts, so that a serial campaign
            # never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                self._drain_pool(pool, campaign, shards, pending,
                                 record_executed)

    def _drain_pool(self, pool, campaign, shards, pending,
                    record_executed) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        try:
            futures = {
                pool.submit(run_shard_packed, campaign,
                            *shards[shard_index]): shard_index
                for shard_index in pending
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding,
                                         return_when=FIRST_COMPLETED)
                for future in done:
                    record_executed(futures[future], future.result())
        except BrokenProcessPool:
            # A worker died (OOM, signal).  The shared executor is
            # poisoned; drop it so the next campaign gets a fresh one.
            if self.reuse_pool:
                invalidate_executor(self.jobs)
            raise

    def _store(self, base: str, shard: tuple[int, int],
               packed: PackedShard) -> None:
        if self.cache is None:
            return
        lo, hi = shard
        key = fingerprint({"campaign": base, "lo": lo, "hi": hi})
        self.cache.put(key, packed, meta=packed.meta())
