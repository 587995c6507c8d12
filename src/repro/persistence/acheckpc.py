"""A-CheckPC: application-level checkpoint-restart (paper §VI, [59]).

Built on distributed multi-threaded HPC checkpointing: at the end of
*every function*, the stack and heap variables the function used are
selectively dumped from DRAM to OC-PMEM and committed.  The benchmark
stalls until each checkpoint commits, so the mechanism's cost scales
with the dynamic function-call count — which is why the paper measures
it as the slowest option by far (8.8x LightPC on average) even though
each individual dump is small.

Because every committed checkpoint is durable, a power failure costs
nothing extra at the signal (only un-committed work since the last call
boundary is lost), but a cold reboot is unavoidable before restarting
from the last checkpoint (kernel/machine state is not covered).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.persistence.base import (
    OCPMEM_BULK_WRITE_BW,
    ExecutionProfile,
    PersistenceMechanism,
    PersistenceOutcome,
)

__all__ = ["ACheckPC"]


@dataclass(frozen=True)
class ACheckPC(PersistenceMechanism):
    """Per-function selective stack/heap checkpointing."""

    #: mean dynamic instructions between function returns
    instructions_per_call: float = 1_150.0
    #: stack + heap variables a typical function touches (selective dump)
    checkpoint_bytes: float = 4096.0
    #: commit bookkeeping per checkpoint (transaction close, metadata)
    commit_ns: float = 5_200.0
    dump_bw: float = OCPMEM_BULK_WRITE_BW
    #: cold reboot before restart (kernel is not checkpointed)
    cold_reboot_ns: float = 1.8e9
    checkpoint_power_w: float = 19.2
    reboot_power_w: float = 17.5

    name = "acheckpc"

    def checkpoints(self, profile: ExecutionProfile) -> float:
        return profile.instructions / self.instructions_per_call

    def outcome(self, profile: ExecutionProfile) -> PersistenceOutcome:
        n = self.checkpoints(profile)
        per_ckpt_ns = (
            self.checkpoint_bytes / self.dump_bw * 1e9 + self.commit_ns
        )
        control_ns = n * per_ckpt_ns
        return PersistenceOutcome(
            mechanism=self.name,
            execution_ns=profile.wall_ns,
            control_ns=control_ns,
            # Committed checkpoints are already durable; nothing to flush.
            flush_at_fail_ns=0.0,
            recover_ns=self.cold_reboot_ns,
            flush_power_w=self.checkpoint_power_w,
            recover_power_w=self.reboot_power_w,
            survives_holdup_overrun=True,
        )
