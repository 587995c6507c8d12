"""Interrupt fabric: the power-event signal and the IPI latency.

The power-event interrupt nominates the first core that seizes it as the
SnG *master*; the master then drives *workers* through IPIs — first to
park just-woken tasks, later to offline cores one by one (paper §III-B).
SnG prices each IPI at :data:`IPI_LATENCY_NS` and counts the ones it
sends in :attr:`InterruptController.ipis_sent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["InterruptController", "IPI_LATENCY_NS"]

#: Cross-core interrupt delivery latency (fabric + handler entry).
IPI_LATENCY_NS = 5_000.0


@dataclass
class InterruptController:
    """Delivers the power-event signal and prices IPIs between cores."""

    cores: int
    ipi_latency_ns: float = IPI_LATENCY_NS
    master: Optional[int] = None
    ipis_sent: int = 0

    def raise_power_event(self, seized_by: int = 0) -> int:
        """AC-loss interrupt: the seizing core becomes the SnG master."""
        if not 0 <= seized_by < self.cores:
            raise ValueError(f"no core {seized_by}")
        if self.master is not None:
            raise RuntimeError("power event already seized")
        self.master = seized_by
        return seized_by

    def reset(self) -> None:
        self.master = None
        self.ipis_sent = 0
