"""The persistency-model oracle: which recovered states are allowed.

The model is the LightPC port contract as documented in DESIGN.md §5:

* a store is *speculative* — it may or may not have reached media at a
  crash (row buffers drain in the background on page conflicts);
* the flush port is the only durability barrier: after ``flush()``
  every line reads its youngest stored version;
* a fence (``drain``) orders traffic but persists **nothing**;
* an SnG cut is a flush plus a wear-register capture, so it commits.

``allowed_after`` folds a timeline prefix into, per line, the version
guaranteed durable at the last barrier plus the set of versions stored
since — any of which a legal implementation may have drained early.
The rule booleans exist so tests can *break* the model on purpose
(e.g. pretend fences persist) and prove the engine reports the
violation with a minimized counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

__all__ = [
    "AllowedState",
    "Counterexample",
    "PersistencyModel",
    "allowed_after",
    "check_observation",
]


@dataclass(frozen=True)
class PersistencyModel:
    """Durability rules; defaults describe the real LightPC port."""

    #: the PSM flush port persists every outstanding store
    flush_is_barrier: bool = True
    #: a drain/fence persists outstanding stores (WRONG for LightPC —
    #: enable only to prove the engine detects oracle violations)
    fence_is_barrier: bool = False
    #: stores may drain to media early (row-buffer page conflicts); when
    #: False the oracle wrongly demands crash states never expose an
    #: unflushed store
    stores_may_drain_early: bool = True
    #: degraded media must stay *contained*: a worn/stuck line either
    #: corrects, retires to a spare, or machine-checks — it never hands
    #: the host corrupt bytes.  Torn observations are violations.  When
    #: False the oracle wrongly accepts torn lines as a legal degraded
    #: outcome, hiding broken remap/retirement paths.
    media_errors_contained: bool = True
    #: recovery must be idempotent: however many extra cuts land inside
    #: Go, the recovered state is one the *first* cut already allowed.
    #: When False the oracle wrongly widens a crash's allowed set to
    #: every version ever stored in the prefix — nested-cut data loss
    #: (a store regressing past its durability barrier) goes unseen.
    recovery_is_idempotent: bool = True


@dataclass
class AllowedState:
    """Per-line allowed outcomes after some event prefix."""

    #: version guaranteed durable (0 = initial zeroed media)
    base: int = 0
    #: versions stored since the last barrier; possibly durable
    maybe: set[int] = field(default_factory=set)
    #: youngest stored version (what a completed run must read)
    latest: int = 0

    def allowed(self, model: PersistencyModel) -> set[int]:
        if model.stores_may_drain_early:
            return {self.base} | self.maybe
        return {self.base}


def allowed_after(
    events: Iterable[tuple],
    lines: Iterable[int],
    model: Optional[PersistencyModel] = None,
) -> dict[int, AllowedState]:
    """Fold an applied-event prefix into per-line allowed outcomes."""
    model = model or PersistencyModel()
    events = list(events)
    states: dict[int, AllowedState] = {line: AllowedState() for line in lines}

    def barrier() -> None:
        for state in states.values():
            state.base = state.latest
            state.maybe.clear()

    for event in events:
        kind = event[0]
        if kind == "store":
            _, line, version = event
            state = states.setdefault(line, AllowedState())
            state.latest = version
            state.maybe.add(version)
        elif kind == "flush":
            if model.flush_is_barrier:
                barrier()
        elif kind == "fence":
            if model.fence_is_barrier:
                barrier()
        # loads, writebacks, commits and checkpoints never move the
        # allowed set: a writeback only re-dirties a row buffer (its
        # data is already in the maybe-set) and commit is about wear
        # registers, not data.
    if not model.recovery_is_idempotent:
        # Wrong-loose recoverable-state rule: fold every version a line
        # ever stored back into its maybe-set, as if repeated recovery
        # could legally resurrect (or lose) barrier-committed data.
        history: dict[int, set[int]] = {}
        for event in events:
            if event[0] == "store":
                history.setdefault(event[1], set()).add(event[2])
        for line, versions in history.items():
            states.setdefault(line, AllowedState()).maybe.update(versions)
    return states


@dataclass(frozen=True)
class Counterexample:
    """One oracle violation, with everything needed to replay it."""

    program: str          # rendered (possibly minimized) program
    crash_at: Optional[int]
    line: int
    observed: int
    allowed: tuple[int, ...]
    torn: bool = False
    trace: tuple[str, ...] = ()   # applied events up to the crash

    def render(self) -> str:
        where = "completion" if self.crash_at is None \
            else f"crash at op {self.crash_at}"
        if self.torn:
            what = f"line {self.line} torn (mixed versions)"
        else:
            what = (f"line {self.line} reads v{self.observed}, allowed "
                    f"{{{', '.join(f'v{v}' for v in self.allowed)}}}")
        return f"{self.program} [{where}]: {what}"


def check_observation(
    observed: Mapping[int, tuple[int, bool]],
    states: Mapping[int, AllowedState],
    model: PersistencyModel,
    *,
    final: bool = False,
) -> list[tuple[int, int, tuple[int, ...], bool]]:
    """Check a recovered (or final) state; returns raw violation tuples.

    ``observed`` maps line -> (version, torn).  For a completed run
    (``final=True``) every line must read its youngest stored version;
    after a crash it must read a member of the allowed set.
    """
    bad: list[tuple[int, int, tuple[int, ...], bool]] = []
    for line in sorted(observed):
        version, torn = observed[line]
        state = states.get(line, AllowedState())
        if torn:
            # A torn line is corrupt media reaching the host; only the
            # (wrong-loose) uncontained-media rule excuses it.
            if model.media_errors_contained:
                bad.append((line, version, tuple(sorted(state.maybe)), True))
            continue
        if final:
            allowed = {state.latest}
        else:
            allowed = state.allowed(model)
        if version not in allowed:
            bad.append((line, version, tuple(sorted(allowed)), False))
    return bad
