"""Per-core run queues and the load-balanced task distribution SnG uses.

Drive-to-Idle wakes every sleeping task and must park them all; it
assigns the just-woken tasks across cores "in a balanced way" so stopping
completes as fast as the machine allows (paper §IV-A).  The scheduler
here provides the run-queue mechanics and that balanced assignment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.pecos.task import Task, TaskState

__all__ = ["RunQueue", "Scheduler", "balance_assign"]


@dataclass
class RunQueue:
    """One core's FIFO run queue."""

    cpu: int
    _queue: deque[Task] = field(default_factory=deque)

    def enqueue(self, task: Task) -> None:
        task.cpu = self.cpu
        task.state = TaskState.RUNNABLE
        self._queue.append(task)

    def dequeue(self, task: Task) -> None:
        try:
            self._queue.remove(task)
        except ValueError:
            raise RuntimeError(
                f"task {task.name!r} not on cpu{self.cpu} run queue"
            ) from None
        task.cpu = None

    def pop_next(self) -> Optional[Task]:
        if not self._queue:
            return None
        task = self._queue.popleft()
        task.state = TaskState.RUNNING
        return task

    def __len__(self) -> int:
        return len(self._queue)

    def tasks(self) -> tuple[Task, ...]:
        return tuple(self._queue)


class Scheduler:
    """All run queues plus the operations SnG needs."""

    def __init__(self, cores: int) -> None:
        if cores <= 0:
            raise ValueError("need at least one core")
        self.run_queues = [RunQueue(cpu=i) for i in range(cores)]

    @property
    def cores(self) -> int:
        return len(self.run_queues)

    def queue_of(self, cpu: int) -> RunQueue:
        return self.run_queues[cpu]

    def enqueue_balanced(self, tasks: Iterable[Task]) -> dict[int, list[Task]]:
        """Distribute tasks across the emptiest queues; returns placement.

        Each task goes to the first of the emptiest queues.  The queue
        lengths are tracked here rather than asked of every queue per
        task.
        """
        queues = self.run_queues
        placement: dict[int, list[Task]] = {q.cpu: [] for q in queues}
        lengths = [len(q) for q in queues]
        for task in tasks:
            index = lengths.index(min(lengths))
            lengths[index] += 1
            queue = queues[index]
            queue.enqueue(task)
            placement[queue.cpu].append(task)
        return placement

    def runnable_count(self) -> int:
        return sum(len(q) for q in self.run_queues)

    def drain_all(self) -> list[Task]:
        """Remove every task from every queue (Drive-to-Idle's endgame)."""
        removed: list[Task] = []
        for queue in self.run_queues:
            while True:
                task = queue.pop_next()
                if task is None:
                    break
                removed.append(task)
        return removed

    def occupancy(self) -> list[int]:
        return [len(q) for q in self.run_queues]


def balance_assign(
    items: Sequence[Task], cores: int
) -> list[list[Task]]:
    """Round-robin items over cores — SnG's worker assignment heuristic."""
    if cores <= 0:
        raise ValueError("need at least one core")
    buckets: list[list[Task]] = [[] for _ in range(cores)]
    for index, item in enumerate(items):
        buckets[index % cores].append(item)
    return buckets
