"""Power supply hold-up model (Fig. 8a, §III-B).

A PSU's output capacitors keep the rails in specification for a *hold-up
time* after AC input is lost.  The ATX specification mandates 16 ms at
full load; the paper measures a Super Flower ATX unit at ~22 ms and a
Dell server unit at ~55 ms with the processor fully busy, and longer when
idle (lower draw discharges the capacitors more slowly).

The model stores energy in the capacitors and discharges it at the
platform's draw; hold-up = stored energy / load, capped by the rail-decay
limit at very light load.  The hold-up is the deadline SnG's Stop must
beat after the AC loss.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ATX_PSU", "SERVER_PSU", "PSUModel"]

NS_PER_MS = 1e6


@dataclass(frozen=True)
class PSUModel:
    """One PSU: stored hold-up energy and spec behaviour."""

    name: str
    #: Energy available in the output capacitors after AC loss (joules).
    stored_j: float
    #: Rail self-decay bound: hold-up cannot exceed this even unloaded.
    max_holdup_ms: float
    #: The hold-up time the governing spec guarantees (ATX: 16 ms).
    spec_holdup_ms: float

    def holdup_ms(self, load_w: float) -> float:
        """Measured hold-up at a given steady draw."""
        if load_w <= 0:
            return self.max_holdup_ms
        return min(self.max_holdup_ms, self.stored_j / load_w * 1e3)

    def holdup_ns(self, load_w: float) -> float:
        return self.holdup_ms(load_w) * NS_PER_MS


#: Super Flower SF-600R12A-class ATX unit: ~22 ms at the paper's busy
#: draw (~18.9 W full system on the prototype board).
ATX_PSU = PSUModel(
    name="atx", stored_j=0.416, max_holdup_ms=40.0, spec_holdup_ms=16.0
)

#: Dell 770-BCBD server-class unit: ~55 ms busy.
SERVER_PSU = PSUModel(
    name="server", stored_j=1.04, max_holdup_ms=95.0, spec_holdup_ms=55.0
)
