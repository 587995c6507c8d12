"""Server consolidation: co-located workloads on one platform.

The paper's motivation is server-class consolidation — many services
sharing one machine, all of them expected to survive power loss.  This
experiment co-locates workload pairs on each platform and measures the
*interference slowdown*: co-located wall time over the slower partner's
solo wall time.  The interesting contrast: LightPC's 24 independent
dual-channel groups absorb co-location about as gracefully as the DRAM
rank pool, while LightPC-B's held channels make neighbours toxic.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.experiments import ExperimentResult
from repro.core.config import PlatformConfig
from repro.core.machine import Machine
from repro.sim.stats import geometric_mean
from repro.workloads.suites import load_workload
from repro.workloads.trace import TraceRecord

__all__ = ["consolidation_study"]

_PAIRS = (("redis", "mcf"), ("snap", "aes"), ("memcached", "wrf"))


class _Offset:
    """Shift a re-iterable trace into a disjoint address region."""

    def __init__(self, inner, offset: int) -> None:
        self.inner = inner
        self.offset = offset

    def __iter__(self):
        offset = self.offset
        for instructions, address, is_write in self.inner:
            yield TraceRecord(instructions, address + offset, is_write)


def _footprint(workload) -> int:
    return workload.spec.profile.working_set_lines * 64 * workload.threads


def _shared_config(first, second) -> PlatformConfig:
    total = _footprint(first) + _footprint(second) + (1 << 22)
    return PlatformConfig().sized_for(total * 2)


def _solo_wall(platform: str, workload, config: PlatformConfig) -> float:
    """Solo run through the same bare complex as the co-located run
    (no kernel noise on either side, same memory sizing)."""
    machine = Machine(platform, config)
    result = machine.complex.run_traces(list(workload.traces()))
    return result.wall_ns


def _co_located_wall(platform: str, first, second,
                     config: PlatformConfig) -> float:
    machine = Machine(platform, config)
    traces = list(first.traces())
    traces += [_Offset(t, _footprint(first) + (1 << 21))
               for t in second.traces()]
    result = machine.complex.run_traces(traces)
    return result.wall_ns


def consolidation_study(
    pairs: Optional[Sequence[tuple[str, str]]] = None,
    refs: int = 8_000,
) -> ExperimentResult:
    pairs = list(pairs) if pairs is not None else list(_PAIRS)
    rows = []
    slowdowns: dict[str, list[float]] = {
        "legacy": [], "lightpc_b": [], "lightpc": []}
    for first_name, second_name in pairs:
        first = load_workload(first_name, refs=refs)
        second = load_workload(second_name, refs=refs, seed=97)
        config = _shared_config(first, second)
        for platform in ("legacy", "lightpc_b", "lightpc"):
            solo = max(_solo_wall(platform, first, config),
                       _solo_wall(platform, second, config))
            together = _co_located_wall(platform, first, second, config)
            slowdown = together / solo
            slowdowns[platform].append(slowdown)
            rows.append([
                f"{first_name}+{second_name}", platform,
                round(solo / 1e6, 3), round(together / 1e6, 3),
                round(slowdown, 2),
            ])
    notes = {
        f"{platform}_mean_slowdown": geometric_mean(values)
        for platform, values in slowdowns.items()
    }
    notes["lightpc_vs_legacy_interference"] = (
        notes["lightpc_mean_slowdown"] / notes["legacy_mean_slowdown"])
    return ExperimentResult(
        experiment="consolidation",
        title="Co-located workload pairs: interference slowdown per platform",
        columns=["pair", "platform", "solo_ms", "together_ms", "slowdown"],
        rows=rows,
        notes=notes,
    )
