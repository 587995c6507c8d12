"""Signal delivery: the kernel-exit path Drive-to-Idle rides (§IV-A).

Drive-to-Idle cannot just yank a user task off a core: it sets
TIF_SIGPENDING and posts a *fake signal*, so the task drains its pending
signals through the ordinary kernel-mode-stack exit path (``entry.S``)
and context-switches out through code that is already crash-safe.  The
flip side is why the terminal state is TASK_UNINTERRUPTIBLE: a task in
interruptible sleep can be woken by any stray signal, which would let it
run *after* the EP-cut is drawn — the non-determinism §III-B warns
about.  Uninterruptible tasks are immune.

This module models exactly those mechanics: per-task pending queues,
wake-on-signal semantics by task state, and delivery at the kernel-exit
boundary.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.pecos.task import Task, TaskState

__all__ = ["DeliveryRecord", "Signal", "SignalDelivery"]


class Signal(enum.IntEnum):
    """The signals the model distinguishes."""

    SIGHUP = 1
    SIGKILL = 9
    SIGUSR1 = 10
    SIGTERM = 15
    #: SnG's fake signal: carries no handler semantics, exists purely to
    #: drive the task through the kernel-exit path and off the core.
    SIGFAKE = 63


@dataclass
class DeliveryRecord:
    """One delivered signal (for audit in tests)."""

    pid: int
    signal: Signal
    woke_task: bool


class SignalDelivery:
    """Pending queues + delivery for a set of tasks."""

    def __init__(self) -> None:
        self._pending: dict[int, deque[Signal]] = {}
        self._handlers: dict[tuple[int, Signal], Callable[[Task], None]] = {}
        self.delivered: list[DeliveryRecord] = []

    # -- posting -----------------------------------------------------------

    def post(self, task: Task, signal: Signal) -> bool:
        """Queue a signal; returns True if it woke a sleeper.

        Interruptible sleepers wake (that is what the state means);
        uninterruptible tasks keep sleeping — SnG's lockdown relies on
        exactly this immunity.
        """
        self._pending.setdefault(task.pid, deque()).append(signal)
        task.set_sigpending()
        if task.state is TaskState.INTERRUPTIBLE:
            task.state = TaskState.RUNNABLE
            return True
        return False

    def post_fake_signal(self, task: Task) -> bool:
        """Drive-to-Idle's nudge for user tasks."""
        if not task.is_user:
            raise ValueError("fake signals target user tasks; kernel "
                             "threads handle pending work instead")
        return self.post(task, Signal.SIGFAKE)

    # -- handlers -------------------------------------------------------------

    def register_handler(
        self, task: Task, signal: Signal,
        handler: Callable[[Task], None],
    ) -> None:
        if signal is Signal.SIGKILL:
            raise ValueError("SIGKILL cannot be caught")
        self._handlers[(task.pid, signal)] = handler

    # -- delivery at the kernel-exit boundary -----------------------------------

    def has_pending(self, task: Task) -> bool:
        return bool(self._pending.get(task.pid))

    def deliver_pending(self, task: Task) -> list[DeliveryRecord]:
        """Drain the task's queue (the entry.S exit path).

        Returns the delivery records.  Clears TIF_SIGPENDING when done.
        """
        records: list[DeliveryRecord] = []
        queue = self._pending.get(task.pid)
        while queue:
            signal = queue.popleft()
            handler = self._handlers.get((task.pid, signal))
            if handler is not None:
                handler(task)
            elif signal is Signal.SIGKILL:
                task.state = TaskState.ZOMBIE
            records.append(DeliveryRecord(
                pid=task.pid, signal=signal, woke_task=False))
        task.clear_sigpending()
        self.delivered.extend(records)
        return records

    def pending_count(self, task: Task) -> int:
        return len(self._pending.get(task.pid, ()))
