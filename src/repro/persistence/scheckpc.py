"""S-CheckPC: system-level periodic checkpointing (BLCR-style, paper §VI).

Implemented after Berkeley Lab Checkpoint/Restart: once per period
(1 second in the paper) the kernel dumps the target threads' virtual
memory structures (``vm_area_struct`` walks) from DRAM to OC-PMEM,
without understanding application semantics.  Each dump moves the bytes
dirtied since the previous period, stealing memory bandwidth from the
benchmark while it runs; the paper measures the periodic flush at
3.5x / 1.4x the ATX/server hold-up windows (Fig. 20) and the end-to-end
latency at 73% below A-CheckPC but still 52% above SysPC.

Like A-CheckPC it cannot checkpoint the kernel itself or machine-mode
registers, so recovery requires a cold reboot before the restart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.persistence.base import (
    OCPMEM_BULK_WRITE_BW,
    ExecutionProfile,
    PersistenceMechanism,
    PersistenceOutcome,
)

__all__ = ["SCheckPC"]


@dataclass(frozen=True)
class SCheckPC(PersistenceMechanism):
    """Periodic kernel-level VMA dumps."""

    period_ns: float = 1e9
    dump_bw: float = OCPMEM_BULK_WRITE_BW
    #: fraction by which a concurrent dump slows the benchmark (memory
    #: bandwidth and synchronization interference)
    interference: float = 0.55
    cold_reboot_ns: float = 1.8e9
    dump_power_w: float = 19.6
    reboot_power_w: float = 17.5

    name = "scheckpc"

    def dump_bytes_per_period(self, profile: ExecutionProfile) -> float:
        """Dirty bytes accumulated over one period, capped at the VMAs."""
        dirtied = profile.dirty_bytes_per_s * self.period_ns * 1e-9
        return min(profile.footprint_bytes, dirtied)

    def periods(self, profile: ExecutionProfile) -> float:
        return max(1.0, profile.wall_ns / self.period_ns)

    def outcome(self, profile: ExecutionProfile) -> PersistenceOutcome:
        per_dump_ns = (
            self.dump_bytes_per_period(profile) / self.dump_bw * 1e9
        )
        n = self.periods(profile)
        # The benchmark runs concurrently with the dumps but pays
        # bandwidth interference while each dump is in flight.
        execution_ns = profile.wall_ns + n * per_dump_ns * self.interference
        control_ns = n * per_dump_ns
        return PersistenceOutcome(
            mechanism=self.name,
            execution_ns=execution_ns,
            control_ns=control_ns,
            # At the power signal, the current period's dirty state is
            # mid-flight: one period's dump must complete to preserve the
            # newest committed checkpoint.
            flush_at_fail_ns=per_dump_ns,
            recover_ns=self.cold_reboot_ns,
            flush_power_w=self.dump_power_w,
            recover_power_w=self.reboot_power_w,
            survives_holdup_overrun=True,
        )
