"""Common vocabulary for the persistence mechanisms of the evaluation.

The paper compares four orthogonal persistence mechanisms (§VI): SnG on
LightPC/LightPC-B, and three LegacyPC-hosted baselines — SysPC (system
images), A-CheckPC (application-level checkpoint-restart) and S-CheckPC
(system-level periodic checkpointing, BLCR-style).  Each mechanism is
described by what it costs *during* execution (persistence control), *at*
a power failure (flush), and *after* power recovery (restore), over an
:class:`ExecutionProfile` of the host run.

Simulated traces are scaled-down samples of the paper's 10^8–10^9
reference runs; ``ExecutionProfile.scaled`` extrapolates a measured
sample to full-run magnitude so second-scale mechanisms (image dumps,
periodic checkpoints) sit in realistic proportion to execution time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace

__all__ = [
    "ExecutionProfile",
    "PersistenceMechanism",
    "PersistenceOutcome",
    "OCPMEM_BULK_WRITE_BW",
]

#: Sustained sequential write bandwidth into OC-PMEM for bulk dumps
#: (staggered row-buffer drains across all DIMM groups), bytes/second.
OCPMEM_BULK_WRITE_BW = 0.5e9

#: Sustained read bandwidth out of OC-PMEM for image reloads.
OCPMEM_BULK_READ_BW = 2.2e9


@dataclass(frozen=True)
class ExecutionProfile:
    """One workload execution as the persistence layer sees it."""

    workload: str
    wall_ns: float
    instructions: float
    #: resident working set (stack + heap + code) across all threads
    footprint_bytes: float
    #: rate at which the application dirties memory (bytes/second)
    dirty_bytes_per_s: float
    frequency_ghz: float = 1.6

    @property
    def cycles(self) -> float:
        return self.wall_ns * self.frequency_ghz

    def scaled(self, factor: float) -> "ExecutionProfile":
        """Extrapolate a trace sample to full-run magnitude."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            wall_ns=self.wall_ns * factor,
            instructions=self.instructions * factor,
        )


@dataclass(frozen=True)
class PersistenceOutcome:
    """What one mechanism costs around one power-down event."""

    mechanism: str
    #: benchmark execution time including any slowdown the mechanism's
    #: runtime interference causes
    execution_ns: float
    #: explicit persistence-control time spent during execution
    #: (checkpoint stalls, commit waits)
    control_ns: float
    #: flush work at the power signal (must fit the hold-up to survive)
    flush_at_fail_ns: float
    #: restore work at power recovery before the benchmark resumes
    recover_ns: float
    #: average power during the flush phase (watts)
    flush_power_w: float
    #: average power during recovery (watts)
    recover_power_w: float
    #: can the mechanism lose committed work if the flush exceeds hold-up?
    survives_holdup_overrun: bool

    @property
    def total_ns(self) -> float:
        return self.execution_ns + self.control_ns

    def total_cycles(self, frequency_ghz: float = 1.6) -> float:
        return self.total_ns * frequency_ghz

    @property
    def flush_energy_j(self) -> float:
        return self.flush_power_w * self.flush_at_fail_ns * 1e-9

    @property
    def recover_energy_j(self) -> float:
        return self.recover_power_w * self.recover_ns * 1e-9


class PersistenceMechanism(abc.ABC):
    """One orthogonal persistence mechanism."""

    name: str = "abstract"

    @abc.abstractmethod
    def outcome(self, profile: ExecutionProfile) -> PersistenceOutcome:
        """Cost the mechanism over one execution + one power-down."""

    def flush_latency_ns(self, profile: ExecutionProfile) -> float:
        """The Fig. 20 quantity: work required when the power signal hits."""
        return self.outcome(profile).flush_at_fail_ns
