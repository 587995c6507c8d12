"""Warm worker machinery: reusable executors and per-process machines.

Two costs dominate a campaign once the trials themselves are fast: the
``ProcessPoolExecutor`` torn down and respawned per campaign, and the
``Machine`` rebuilt from config inside every trial (the PecOS world —
~450 drivers, ~120 processes — is the expensive part, not the memory
model).  This module amortises both:

* :func:`warm_executor` hands out one long-lived process pool per
  ``jobs`` count, shared by every campaign in the session.  Workers are
  plain forked children; nothing about them is campaign-specific, so
  reuse is safe by construction and the deterministic merge makes it
  invisible.
* :class:`MachinePool` is a per-*worker* template cache: the first
  trial needing a platform builds it, later trials ``reset()`` it back
  to the fresh-boot state.  The reset contract — a reset machine is
  byte-identical to a newly constructed one, results and stats trees —
  is enforced by ``tests/test_campaign_fastpath.py``, not promised.

Trials opt in through :func:`lease_machine` (or the
``Machine.for_workload``-shaped :func:`machine_for_workload`); trials
that build machines directly are untouched.
"""

from __future__ import annotations

import atexit
import functools
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional

from repro.orchestrate.cache import fingerprint

__all__ = [
    "MachinePool",
    "lease_machine",
    "machine_for_workload",
    "machine_pool",
    "shutdown_executors",
    "warm_executor",
]


# -- process-local machine templates ----------------------------------------


class MachinePool:
    """LRU cache of machine templates, keyed by config fingerprint.

    ``lease`` hands back a machine reset to its fresh-boot state; the
    caller dirties it freely and never returns it (the next lease
    resets again).  ``built`` / ``reused`` counters make warm-path
    coverage observable from tests and benchmarks.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._machines: "OrderedDict[str, object]" = OrderedDict()
        self.built = 0
        self.reused = 0

    def lease(self, key: str, build: Callable[[], object]):
        machine = self._machines.get(key)
        if machine is None:
            machine = build()
            self.built += 1
            self._machines[key] = machine
            while len(self._machines) > self.capacity:
                self._machines.popitem(last=False)
        else:
            machine.reset()
            self.reused += 1
        self._machines.move_to_end(key)
        return machine

    def clear(self) -> None:
        self._machines.clear()

    def __len__(self) -> int:
        return len(self._machines)


#: one pool per process — the worker-side warm state
_MACHINE_POOL: Optional[MachinePool] = None


def machine_pool() -> MachinePool:
    global _MACHINE_POOL
    if _MACHINE_POOL is None:
        _MACHINE_POOL = MachinePool()
    return _MACHINE_POOL


def lease_machine(key: str, build: Callable[[], object]):
    """Lease a reset machine template from the process-local pool."""
    return machine_pool().lease(key, build)


def machine_for_workload(platform: str, workload, config=None,
                         functional: bool = False, engine=None):
    """Pooled equivalent of :meth:`repro.core.machine.Machine.for_workload`.

    The pool key fingerprints everything construction depends on —
    platform, the workload-sized config, functional mode, and the
    engine (its canonical name, or for an engine instance its class,
    name and constructor parameters) — so two trials share a template
    exactly when a fresh build would have produced interchangeable
    machines.  For an engine selected by name (or the process default)
    the key is computed once per argument tuple: the config is frozen
    and hashable, and the default is read on every call.
    """
    from repro.core.machine import Machine
    from repro.engine.base import (
        canonical_engine_name,
        default_engine_name,
        engine_key,
    )

    footprint = (
        workload.spec.profile.working_set_lines * 64 * workload.threads
    )
    if engine is None or isinstance(engine, str):
        name = (default_engine_name() if engine is None
                else canonical_engine_name(engine))
        key = _named_engine_pool_key(platform, config, footprint,
                                     functional, name)
    else:
        key = _pool_key(platform, config, footprint, functional,
                        engine_key(engine))
    return lease_machine(key, lambda: Machine(
        platform, _sized(config, footprint), functional, engine=engine))


def _sized(config, footprint: int):
    """``Machine.for_workload``'s config for a workload footprint."""
    from repro.core.config import PlatformConfig

    return (config or PlatformConfig()).sized_for(footprint * 2)


def _pool_key(platform: str, config, footprint: int, functional: bool,
              engine_id) -> str:
    return fingerprint({
        "platform": platform,
        "config": _sized(config, footprint),
        "functional": functional,
        "engine": engine_id,
    })


_named_engine_pool_key = functools.lru_cache(maxsize=64)(_pool_key)


# -- session-wide warm executors --------------------------------------------

_EXECUTORS: dict[int, ProcessPoolExecutor] = {}


def _worker_init() -> None:
    """Pool initializer: pre-touch the worker's machine pool.

    Forked workers inherit the parent's imports; the initializer exists
    so spawn-based platforms get the same warm-path state and so tests
    can assert workers really are pool workers.
    """
    machine_pool()


def warm_executor(jobs: int) -> ProcessPoolExecutor:
    """The session's shared executor for ``jobs`` workers.

    Created on first use, reused by every later campaign at the same
    parallelism — worker processes (and their machine pools) survive
    across campaigns, which is where the warm-path speedup for short
    campaigns comes from.
    """
    pool = _EXECUTORS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs,
                                   initializer=_worker_init)
        _EXECUTORS[jobs] = pool
    return pool


def invalidate_executor(jobs: int) -> None:
    """Drop (and shut down) the shared executor after a worker death."""
    pool = _EXECUTORS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_executors() -> None:
    """Shut every warm executor down (atexit, and test teardown)."""
    while _EXECUTORS:
        _, pool = _EXECUTORS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_executors)
