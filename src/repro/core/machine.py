"""The Machine: one platform wired end to end.

A Machine owns the memory backend (DRAM for LegacyPC, a PSM for
LightPC-B/LightPC), the multi-core complex, the PecOS kernel, the SnG
orchestrator (non-volatile backends only), the power model, and a PSU.
It runs workloads, injects power failures, and recovers — the same life
cycle the paper exercises by physically pulling AC from the prototype.

The Machine talks to memory exclusively through the
:class:`repro.memory.port.MemoryBackend` protocol: row-buffer ratios,
counters, the power-part inventory, and the SnG flush/capture ports all
dispatch through the port, so a new tier (a hybrid
:class:`~repro.memory.port.AddressRangePartition`, an interposer chain)
plugs in by registering a factory — no Machine edits.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import PlatformConfig, PlatformName
from repro.core.results import PowerFailOutcome, RunResult
from repro.cpu.complex import MultiCoreComplex
from repro.engine.base import (
    EngineSpec,
    ExecutionEngine,
    fresh_engine,
    resolve_engine,
)
from repro.memory.dram import DRAMSubsystem
from repro.memory.port import MemoryBackend, assert_memory_backend
from repro.ocpmem.psm import PSM
from repro.pecos.kernel import Kernel
from repro.pecos.sng import SnG
from repro.power.model import PowerModel
from repro.power.psu import ATX_PSU, PSUModel
from repro.sim.stats import StatsRegistry
from repro.workloads.suites import Workload, _Replayable
from repro.workloads.trace import LocalityProfile, TraceGenerator

__all__ = ["Machine"]

#: Background kernel-thread traffic profile (light, write-mixed).
_KERNEL_NOISE_PROFILE = LocalityProfile(
    working_set_lines=4096,
    hot_lines=128,
    hot_fraction=0.7,
    sequential_fraction=0.1,
    write_fraction=0.3,
    read_after_write=0.1,
    write_page_locality=0.6,
    instructions_per_access=6.0,
)

#: Builds the memory tier for one platform: (config, functional) -> backend.
BackendFactory = Callable[[PlatformConfig, bool], MemoryBackend]

_BACKEND_FACTORIES: dict[str, BackendFactory] = {
    "legacy": lambda config, functional: DRAMSubsystem(config.dram),
    "lightpc_b": lambda config, functional: PSM(
        config.psm_config(baseline=True), functional=functional
    ),
    "lightpc": lambda config, functional: PSM(
        config.psm_config(), functional=functional
    ),
}


class Machine:
    """One platform instance."""

    def __init__(
        self,
        platform: PlatformName,
        config: Optional[PlatformConfig] = None,
        functional: bool = False,
        engine: EngineSpec = None,
    ) -> None:
        factory = _BACKEND_FACTORIES.get(platform)
        if factory is None:
            raise ValueError(
                f"unknown platform {platform!r}; expected one of "
                f"{tuple(_BACKEND_FACTORIES)}"
            )
        self.platform = platform
        self.config = config or PlatformConfig()
        self.functional = functional
        self.power_model = PowerModel()
        self.engine: ExecutionEngine = resolve_engine(engine)
        #: the engine as built, whose class and ``params`` :meth:`reset`
        #: rebuilds (``set_engine`` and ``run(engine=...)`` do not
        #: outlive a reset)
        self._built_engine = self.engine

        backend = factory(self.config, functional)
        assert_memory_backend(backend, context=f"platform {platform!r}")
        self.stats = StatsRegistry()
        self.complex = MultiCoreComplex(
            backend, cores=self.config.cores,
            core_config=self.config.core, engine=self.engine,
        )
        # The complex's stat sources read its live cores, so they stay
        # registered across resets; only memory.* follows the backend.
        self.complex.register_stats(self.stats.scoped("cpu"))
        self._cpu_stats = self.stats.mark()
        self.kernel = Kernel(self.config.kernel)
        self.kernel.populate()
        self._wire(backend)
        self._powered = True
        self.runs: list[RunResult] = []

    # -- convenience constructors ------------------------------------------

    @classmethod
    def for_workload(
        cls,
        platform: PlatformName,
        workload: Workload,
        config: Optional[PlatformConfig] = None,
        functional: bool = False,
        engine: EngineSpec = None,
    ) -> "Machine":
        """Build a machine whose memory fits the workload (no paging)."""
        base = config or PlatformConfig()
        footprint = (
            workload.spec.profile.working_set_lines * 64 * workload.threads
        )
        return cls(platform, base.sized_for(footprint * 2), functional,
                   engine=engine)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> "Machine":
        """Return this machine to its fresh-construction state, in place.

        The warm-pool fast path: a campaign worker builds one machine
        template per platform config and resets it between trials
        instead of reconstructing.  A reset rebuilds what a trial may
        leave behind in a form nothing can rewind: a factory-fresh
        backend, a fresh engine of the class and constructor parameters
        the machine was built with (:func:`~repro.engine.base.fresh_engine`)
        and a fresh SnG.  It rewinds the rest in place: the kernel world
        is re-instantiated (:meth:`Kernel.reset_world`: the dpm list is
        kept, its drivers rewound), every core of the complex is rewound
        (:meth:`MultiCoreComplex.reset`), and the stats registry goes
        back to the complex's registrations with ``memory.*``
        re-registered.  A reset machine is byte-identical to a newly
        constructed one; ``tests/test_campaign_fastpath.py`` enforces
        that against a cold build, field by field.
        """
        self.engine = fresh_engine(self._built_engine)
        self.kernel.reset_world()
        self._wire(_BACKEND_FACTORIES[self.platform](self.config,
                                                     self.functional))
        self._powered = True
        self.runs = []
        return self

    # -- backend wiring ----------------------------------------------------

    def attach_backend(self, backend: MemoryBackend) -> None:
        """Swap the memory tier under a rewound complex (sensitivity
        sweeps).

        The replacement must satisfy the port protocol; the stats scopes
        and the SnG orchestrator are re-wired to the new backend.
        """
        assert_memory_backend(
            backend, context=f"platform {self.platform!r} backend swap"
        )
        self._wire(backend)

    def _wire(self, backend: MemoryBackend) -> None:
        """Run the machine over ``backend``: the one wiring path of
        construction, :meth:`reset` and :meth:`attach_backend`.

        Every core is rewound onto ``backend`` and the machine's engine,
        the stats registry goes back to the complex's registrations plus
        ``memory.*`` from ``backend``, and a fresh SnG drives the
        backend's ports (none over a volatile backend).
        """
        self.backend = backend
        self.complex.reset(backend, self.engine)
        self.stats.rewind(self._cpu_stats)
        backend.register_stats(self.stats.scoped("memory"))
        self.sng: Optional[SnG] = None
        if not backend.is_volatile:
            self.sng = SnG(
                kernel=self.kernel,
                dirty_lines_fn=self.complex.dump_caches,
                port=backend,
            )

    def stats_tree(self) -> dict:
        """One uniform hierarchical snapshot of every registered stat.

        The same schema for all platforms: ``memory.*`` from the backend
        (devices included), ``cpu.core<i>.*`` from the complex.
        """
        return {"platform": self.platform, **self.stats.snapshot()}

    # -- execution --------------------------------------------------------------

    def set_engine(self, engine: EngineSpec) -> ExecutionEngine:
        """Select the execution engine for subsequent runs (by registry
        name, alias, or instance); returns the resolved engine."""
        self.engine = self.complex.set_engine(engine)
        return self.engine

    def run(
        self,
        workload: Workload,
        refs: Optional[int] = None,
        engine: EngineSpec = None,
    ) -> RunResult:
        """Execute one workload to completion and meter it.

        ``engine`` switches the execution engine for this and later
        runs; ``None`` keeps the machine's current selection.
        """
        if not self._powered:
            raise RuntimeError("machine is powered off; recover() first")
        if engine is not None:
            self.set_engine(engine)
        traces = workload.traces(refs)
        if self.config.kernel_noise:
            total = refs if refs is not None else workload.refs
            noise_refs = max(
                1, int(total * self.config.kernel_noise_fraction) // 2
            )
            base = workload.spec.profile.working_set_lines * 64 * workload.threads
            for i in range(2):
                generator = TraceGenerator(
                    _KERNEL_NOISE_PROFILE,
                    seed=991 + i,
                    base_address=base + i * (1 << 20),
                )
                traces = list(traces) + [_Replayable(generator, noise_refs)]
        begin_run = getattr(self.engine, "begin_run", None)
        if begin_run is not None:
            begin_run()
        complex_result = self.complex.run_traces(traces)
        # Engines that advance epochs analytically report the estimated
        # backend-counter deltas for the traffic they never issued; fold
        # them in so the power model meters the whole run, not just the
        # exactly-replayed windows.
        take_report = getattr(self.engine, "take_run_report", None)
        report = take_report() if take_report is not None else None
        counters = dict(self.backend.counters())
        epoch_dict: Optional[dict] = None
        if report is not None:
            if report.windows_skipped:
                for key, value in report.counter_deltas.items():
                    base = counters.get(key, 0)
                    counters[key] = base + (
                        int(round(value)) if isinstance(base, int) else value
                    )
            epoch_dict = report.as_dict()
        result = RunResult(
            platform=self.platform,
            workload=workload.name,
            complex_result=complex_result,
            power=self.power_report(
                complex_result.wall_ns, counters_override=counters
            ),
            backend_counters=counters,
            mean_read_latency_ns=self._mean_read_latency(),
            cache_read_hit=self._mean_cache_ratio(read=True),
            cache_write_hit=self._mean_cache_ratio(read=False),
            row_buffer_hit=self.backend.buffer_hit_ratio,
            stats=self.stats.snapshot(),
            engine=self.engine.name,
            epoch=epoch_dict,
        )
        self.runs.append(result)
        return result

    def _mean_cache_ratio(self, read: bool) -> float:
        ratios = [
            (core.cache.read_hit_ratio if read else core.cache.write_hit_ratio)
            for core in self.complex.cores
            if (core.cache.read_hits.total if read else core.cache.write_hits.total)
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def _mean_read_latency(self) -> float:
        # Not part of the port protocol: interposer chains and partitions
        # have no single read distribution.  Backends that keep one
        # (DRAM, PSM) expose it as ``read_latency``.
        latency = getattr(self.backend, "read_latency", None)
        return latency.mean if latency is not None else 0.0

    # -- power ---------------------------------------------------------------------

    def power_report(self, duration_ns: float, busy_fraction: float = 1.0,
                     counters_override: Optional[dict] = None):
        """Full-system power over an interval (Fig. 18's quantity).

        ``counters_override`` substitutes the backend's cumulative
        counters — time-series callers pass per-window deltas.
        """
        model = self.power_model
        counters = counters_override or self.backend.counters()
        parts = model.cpu_parts(self.config.cores, busy_fraction)
        parts += self.backend.power_parts(counters)
        return model.report(duration_ns, parts)

    # -- power failure & recovery ----------------------------------------------------

    def power_fail(
        self, psu: PSUModel = ATX_PSU, at_ns: float = 0.0
    ) -> PowerFailOutcome:
        """Drop AC: SnG races the hold-up window, then the rails die."""
        if not self._powered:
            raise RuntimeError("machine is already off")
        # Steady-state draw: metered over the last run, or static if idle.
        window_ns = self.runs[-1].wall_ns if self.runs else 1e6
        load_w = self.power_report(max(window_ns, 1e3)).total_w
        holdup_ns = psu.holdup_ns(load_w)
        outcome = PowerFailOutcome(
            platform=self.platform, psu=psu.name, holdup_ns=holdup_ns
        )
        if self.sng is not None:
            stop = self.sng.stop(at_ns=at_ns)
            outcome.stop = stop
            outcome.survived = stop.total_ns <= holdup_ns
            if not outcome.survived:
                # The rails fell out of spec before Auto-Stop's final
                # commit landed: the EP-cut is not authoritative and the
                # next power-on must cold boot.
                self.kernel.bootloader.clear_commit()
                outcome.lost = "EP-cut incomplete: commit missing"
        else:
            outcome.survived = False
            outcome.lost = "DRAM contents (no persistence mechanism)"
        self.backend.power_cycle()
        self._powered = False
        return outcome

    def recover(self):
        """Power returns: Go (warm) or cold boot (legacy / failed Stop)."""
        if self._powered:
            raise RuntimeError("machine is still powered")
        self._powered = True
        if self.sng is not None:
            return self.sng.go()
        # LegacyPC: cold boot, everything rebuilt from scratch.
        self.kernel = Kernel(self.config.kernel)
        self.kernel.populate()
        return None

