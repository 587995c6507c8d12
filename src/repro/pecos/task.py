"""Process control blocks — PecOS's task_struct model.

Drive-to-Idle (paper §IV-A) manipulates exactly this state: task states
(TASK_RUNNING/UNINTERRUPTIBLE/...), the TIF_SIGPENDING flag used to fake
signals into user tasks, the need_resched flag that forces a context
switch out, and the saved architectural registers (including the page
table root) that Go later reloads so processes resume at the EP-cut.
"""

from __future__ import annotations

import enum
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["Registers", "Task", "TaskFlags", "TaskState", "VMA", "VMAKind",
           "spawn"]

_pid_counter = itertools.count(1)


class TaskState(enum.Enum):
    """Linux-style task states (the subset SnG manipulates)."""

    RUNNING = "R"            # on a CPU
    RUNNABLE = "r"           # on a run queue
    INTERRUPTIBLE = "S"      # sleeping, wakeable by signal
    UNINTERRUPTIBLE = "D"    # sleeping, immune to signals (SnG's lockdown)
    STOPPED = "T"
    ZOMBIE = "Z"


class TaskFlags(enum.IntFlag):
    """thread_info flags SnG uses."""

    NONE = 0
    SIGPENDING = 1      # TIF_SIGPENDING: fake signal mask
    NEED_RESCHED = 2    # set_tsk_need_resched()
    KERNEL_THREAD = 4


#: every TaskFlags value by its int: flag updates index this table with
#: int arithmetic instead of running ``IntFlag``'s Python-level operators
#: (the members are the ones those operators return)
_FLAGS: tuple[TaskFlags, ...] = tuple(TaskFlags(value) for value in range(8))
_SIGPENDING = TaskFlags.SIGPENDING._value_
_NEED_RESCHED = TaskFlags.NEED_RESCHED._value_
_KERNEL_THREAD = TaskFlags.KERNEL_THREAD._value_


class VMAKind(enum.Enum):
    CODE = "code"
    HEAP = "heap"
    STACK = "stack"
    MMAP = "mmap"


@dataclass
class VMA:
    """One vm_area_struct: a virtual range with dirty-byte accounting.

    S-CheckPC dumps these periodically; SysPC dumps them all at the power
    signal; under LightPC they already live on OC-PMEM.
    """

    kind: VMAKind
    start: int
    length: int
    dirty_bytes: int = 0

    def touch(self, nbytes: int) -> None:
        self.dirty_bytes = min(self.length, self.dirty_bytes + nbytes)

    def clean(self) -> int:
        """Mark written-back; returns how many bytes were dumped."""
        dumped, self.dirty_bytes = self.dirty_bytes, 0
        return dumped


@dataclass(frozen=True)
class Registers:
    """Architectural state saved into the PCB at a context switch."""

    pc: int = 0
    sp: int = 0
    gpr_checksum: int = 0
    page_table_root: int = 0

    def advanced(self, delta_pc: int) -> "Registers":
        return Registers(self.pc + delta_pc, self.sp, self.gpr_checksum,
                         self.page_table_root)


@dataclass
class Task:
    """A process control block (task_struct)."""

    name: str
    kernel_thread: bool = False
    state: TaskState = TaskState.RUNNABLE
    flags: TaskFlags = TaskFlags.NONE
    registers: Registers = field(default_factory=Registers)
    vmas: list[VMA] = field(default_factory=list)
    pid: int = field(default_factory=lambda: next(_pid_counter))
    children: list["Task"] = field(default_factory=list)
    #: core whose run queue currently owns the task, if any
    cpu: Optional[int] = None
    #: pending wakeup work a sleeping task must handle before idling
    pending_work_items: int = 0
    #: weak reference behind :attr:`parent`; the tree's only strong
    #: links run parent to child, so a dropped tree is freed by
    #: reference counting, without the cyclic collector
    _parent: Optional["weakref.ref[Task]"] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kernel_thread:
            self.flags = _FLAGS[self.flags._value_ | _KERNEL_THREAD]

    # -- tree -------------------------------------------------------------

    @property
    def parent(self) -> Optional["Task"]:
        """The adopting task, while something else keeps it alive."""
        ref = self._parent
        return None if ref is None else ref()

    @parent.setter
    def parent(self, task: Optional["Task"]) -> None:
        self._parent = None if task is None else weakref.ref(task)

    def adopt(self, child: "Task") -> "Task":
        child.parent = self
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Task"]:
        """Depth-first preorder traversal from this task (init_task
        style), on an explicit stack rather than nested generators."""
        stack = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            task = pop()
            yield task
            if task.children:
                extend(reversed(task.children))

    # -- state transitions used by SnG --------------------------------------

    @property
    def is_sleeping(self) -> bool:
        return self.state in (TaskState.INTERRUPTIBLE, TaskState.UNINTERRUPTIBLE)

    @property
    def is_user(self) -> bool:
        return not self.kernel_thread

    def set_sigpending(self) -> None:
        self.flags = _FLAGS[self.flags._value_ | _SIGPENDING]

    def clear_sigpending(self) -> None:
        self.flags = _FLAGS[self.flags._value_ & ~_SIGPENDING]

    def set_need_resched(self) -> None:
        self.flags = _FLAGS[self.flags._value_ | _NEED_RESCHED]

    def lockdown(self) -> None:
        """Drive-to-Idle terminal state: uninterruptible, off any queue."""
        self.state = TaskState.UNINTERRUPTIBLE
        self.flags = _FLAGS[self.flags._value_ & ~_NEED_RESCHED]
        self.cpu = None

    def release(self) -> None:
        """Go: TASK_UNINTERRUPTIBLE -> TASK_NORMAL (runnable)."""
        if self.state is not TaskState.UNINTERRUPTIBLE:
            raise RuntimeError(
                f"release() on task {self.name!r} in state {self.state}"
            )
        self.state = TaskState.RUNNABLE
        self.clear_sigpending()

    def save_registers(self, registers: Registers) -> None:
        self.registers = registers

    def total_vma_bytes(self) -> int:
        return sum([v.length for v in self.vmas])

    def dirty_vma_bytes(self) -> int:
        return sum([v.dirty_bytes for v in self.vmas])


def spawn(parent: Task, specs) -> list[Task]:
    """New tasks adopted by ``parent``, one per ``(name, kernel_thread,
    registers, vmas, state, pending_work_items)`` of ``specs``, in order.

    Each VMA is given as its fields.  A task gets exactly the fields
    ``Task(name, kernel_thread, state, registers=registers, vmas=...,
    pending_work_items=...)`` followed by ``parent.adopt(task)`` would
    give it, its pid drawn from the global counter in order.  They are
    stored one by one, in the constructor's order (so the instances
    share its attribute layout), at about half the generated
    constructor's cost: a warm crash trial populates 120 tasks.
    """
    parent_ref = weakref.ref(parent)
    new = Task.__new__
    flags = (_FLAGS[0], _FLAGS[_KERNEL_THREAD])
    tasks: list[Task] = []
    for (name, kernel_thread, registers, vmas, state,
         pending_work_items) in specs:
        task = new(Task)
        task.name = name
        task.kernel_thread = kernel_thread
        task.state = state
        task.flags = flags[bool(kernel_thread)]
        task.registers = registers
        task.vmas = [VMA(*vma) for vma in vmas]
        task.pid = next(_pid_counter)
        task.children = []
        task.cpu = None
        task.pending_work_items = pending_work_items
        task._parent = parent_ref
        tasks.append(task)
    parent.children.extend(tasks)
    return tasks
