"""Multi-cut power-failure injection on one continuous tick count.

:class:`~repro.memory.port.FaultInjector` fires once and is done; real
power problems cluster (a failing PSU browns out again seconds into the
reboot it caused).  :class:`CompoundFaultInjector` generalizes the
injector to a *schedule* of cuts over one global operation count: when
the rails die (:meth:`power_fail`) the next scheduled cut re-arms
**without rewinding** ``op_index``, so cut indices keep counting through
whatever recovery traffic follows — a cut at ``cuts[0] + 1`` lands on
the very first access Go issues, i.e. inside recovery, before the wear
registers are restored.

Every port operation ticks the count once, so a later cut landing
inside a cut's dirty-line write-back serves exactly the lines before it
(a torn extent).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.memory.port import FaultInjector, MemoryBackend

__all__ = ["CompoundFaultInjector"]


class CompoundFaultInjector(FaultInjector):
    """A :class:`FaultInjector` driven by a schedule of cuts.

    ``cuts`` are strictly increasing global operation indices.  The
    first is armed at construction; each :meth:`power_fail` (the rails
    actually dying) re-arms the next.  ``cuts_fired`` counts cuts that
    tripped, for drill accounting.
    """

    def __init__(
        self,
        inner: MemoryBackend,
        cuts: Sequence[int] = (),
        *,
        count_drains: bool = True,
    ) -> None:
        schedule = tuple(cuts)
        previous = -1
        for cut in schedule:
            if cut <= previous:
                raise ValueError(
                    f"cuts must be strictly increasing and >= 0, "
                    f"got {schedule}")
            previous = cut
        super().__init__(
            inner,
            crash_at_op=schedule[0] if schedule else None,
            count_drains=count_drains,
        )
        self.cuts = schedule
        #: index into ``cuts`` of the next cut to arm after a power_fail
        self._next_cut = 1 if schedule else 0
        self.cuts_fired = 0

    def power_fail(self) -> None:
        """Rails die; the next scheduled cut arms on the same tick count.

        ``op_index`` deliberately keeps counting: recovery traffic
        shares the global tick space, which is what lets a plan schedule
        a cut *inside* Go (crash-during-recovery) deterministically.
        """
        if self.tripped:
            self.cuts_fired += 1
        super().power_fail()
        if self._next_cut < len(self.cuts):
            self.crash_at_op = self.cuts[self._next_cut]
            self._next_cut += 1
            self.tripped = False
        else:
            self.crash_at_op = None

    def disarm(self) -> None:
        """Drop any remaining schedule (final observation must not cut)."""
        self.crash_at_op = None

    @property
    def cuts_remaining(self) -> int:
        """Scheduled cuts that have not yet tripped."""
        remaining = len(self.cuts) - self._next_cut
        if self.crash_at_op is not None and not self.tripped:
            remaining += 1
        return remaining

    def schedule(self, crash_at_op: Optional[int]) -> None:
        """Single-cut re-arming is a litmus-enumerator contract; a
        compound schedule is fixed at construction."""
        raise NotImplementedError(
            "CompoundFaultInjector takes its whole schedule at "
            "construction; build a fresh injector per plan")
