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
``allowed_prefixes`` is the same fold run once over a whole timeline,
yielding the allowed states of each of its prefixes in turn; it is the
only implementation, and ``allowed_after`` is its one-prefix case.
The rule booleans exist so tests can *break* the model on purpose
(e.g. pretend fences persist) and prove the engine reports the
violation with a minimized counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

__all__ = [
    "AllowedState",
    "Counterexample",
    "PersistencyModel",
    "allowed_after",
    "allowed_prefixes",
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


def allowed_prefixes(
    events: Sequence[tuple],
    cuts: Iterable[int],
    lines: Iterable[int],
    model: Optional[PersistencyModel] = None,
) -> Iterator[dict[int, AllowedState]]:
    """:func:`allowed_after` of ``events[:cut]`` for each of ``cuts``.

    ``cuts`` ascend.  The events are folded once, in order.  The fold
    never changes a state it has made: an event that moves a line's
    allowed set replaces that line's state.  So a cut yields a shallow
    copy of the running mapping, and two mappings yielded share the
    states of lines no event between them moved; read them, do not
    change them.
    """
    model = model or PersistencyModel()
    states: dict[int, AllowedState] = {line: AllowedState() for line in lines}
    # recovery_is_idempotent=False: every version a line stored so far
    history: Optional[dict[int, set[int]]] = \
        None if model.recovery_is_idempotent else {}

    def barrier() -> None:
        for line, state in states.items():
            if state.maybe:  # an empty maybe-set already has base == latest
                states[line] = AllowedState(state.latest, set(), state.latest)

    done = 0
    for cut in cuts:
        for event in events[done:cut]:
            kind = event[0]
            if kind == "store":
                _, line, version = event
                state = states.get(line) or AllowedState()
                states[line] = AllowedState(
                    state.base, state.maybe | {version}, version)
                if history is not None:
                    history.setdefault(line, set()).add(version)
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
        done = cut
        allowed = dict(states)
        if history is not None:
            # Wrong-loose recoverable-state rule: fold every version a
            # line ever stored back into its maybe-set, as if repeated
            # recovery could legally resurrect (or lose) barrier-committed
            # data.  Only the copy widens; the fold goes on unwidened.
            for line, versions in history.items():
                state = allowed[line]
                allowed[line] = AllowedState(
                    state.base, state.maybe | versions, state.latest)
        yield allowed


def allowed_after(
    events: Iterable[tuple],
    lines: Iterable[int],
    model: Optional[PersistencyModel] = None,
) -> dict[int, AllowedState]:
    """Fold an applied-event prefix into per-line allowed outcomes."""
    events = list(events)
    return next(allowed_prefixes(events, (len(events),), lines, model))


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
