"""Campaign orchestration: shard trial-indexed campaigns across processes.

Every fuzz campaign, sensitivity sweep, and figure benchmark in this
repository is *trial-indexed*: a pure function of ``(trial_index, rng)``
is evaluated many times and the per-trial results are merged.  The paper
validates LightPC by physically pulling AC from a prototype; we do it in
simulation thousands of times, which is embarrassingly parallel — but
parallelism is only useful if results are bit-identical regardless of
how the work is sharded.  This package provides that:

* :mod:`repro.orchestrate.seeding` — every trial gets an independent
  ``random.Random`` derived from ``(campaign_seed, trial_index)``, so
  the stream a trial sees never depends on shard boundaries, execution
  order, or earlier trials.
* :mod:`repro.orchestrate.runner` — :class:`CampaignRunner` splits the
  trial range into shards, executes them inline (``jobs=1``) or on the
  session's warm process pool, and always merges in trial-index order.
* :mod:`repro.orchestrate.pool` — the warm machinery: long-lived
  executors shared across campaigns, and the per-worker
  :class:`MachinePool` of reset-instead-of-rebuild machine templates.
* :mod:`repro.orchestrate.results` — shards cross the process boundary
  (and land in the cache) as columnar :class:`PackedShard` summaries,
  not pickled per-trial object lists.
* :mod:`repro.orchestrate.cache` — completed shards are persisted on
  disk keyed by a hash of (campaign name, config, seed, trial range)
  with a versioned meta header, so re-runs are incremental and warm
  aggregate merges never unpickle a body.
* :mod:`repro.orchestrate.progress` — throughput / ETA / violation
  reporting as the campaign runs.
"""

from repro.orchestrate.cache import (
    NO_VALUE,
    ShardCache,
    ShardEntry,
    fingerprint,
    source_digest,
)
from repro.orchestrate.pool import (
    MachinePool,
    lease_machine,
    machine_for_workload,
    machine_pool,
    shutdown_executors,
    warm_executor,
)
from repro.orchestrate.progress import CampaignProgress
from repro.orchestrate.results import CampaignSummary, PackedShard, pack_results
from repro.orchestrate.runner import (
    Campaign,
    CampaignRunner,
    CampaignStats,
    ShardTimeoutError,
    run_shard,
    run_shard_packed,
    run_shard_watched,
)
from repro.orchestrate.seeding import derive_seed, spawn_rngs, trial_rng

__all__ = [
    "Campaign",
    "CampaignProgress",
    "CampaignRunner",
    "CampaignStats",
    "CampaignSummary",
    "MachinePool",
    "NO_VALUE",
    "PackedShard",
    "ShardCache",
    "ShardEntry",
    "ShardTimeoutError",
    "derive_seed",
    "fingerprint",
    "source_digest",
    "lease_machine",
    "machine_for_workload",
    "machine_pool",
    "pack_results",
    "run_shard",
    "run_shard_packed",
    "run_shard_watched",
    "shutdown_executors",
    "spawn_rngs",
    "trial_rng",
    "warm_executor",
]
