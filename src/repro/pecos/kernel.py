"""The PecOS kernel: init_task tree, process population, devices.

This is the OS state SnG operates on.  The busy configuration of the
paper's validation (§III-B) runs ~72 user and ~48 kernel processes on
top of a full default driver population; :func:`Kernel.populate` builds
that world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple, Optional

from repro.pecos.bootloader import Bootloader
from repro.pecos.device import default_dpm_list
from repro.pecos.scheduler import Scheduler
from repro.pecos.task import Registers, Task, TaskState, VMAKind, spawn

__all__ = ["Kernel", "KernelConfig", "TaskSpec", "WorldSpec", "world_spec"]

_CHILDREN = attrgetter("children")


@dataclass(frozen=True)
class KernelConfig:
    """Shape of the OS world SnG must stop."""

    cores: int = 8
    user_processes: int = 72
    kernel_threads: int = 48
    #: fraction of tasks asleep at any instant (the rest are on queues)
    sleeping_fraction: float = 0.6
    #: default driver population (the prototype loads all default
    #: packages; ~350 entries of dpm_list)
    extra_drivers: int = 400
    #: deterministic world-building seed
    seed: int = 7


class TaskSpec(NamedTuple):
    """One populated task, before it exists."""

    name: str
    kernel_thread: bool
    registers: Registers
    #: ``(kind, start, length, dirty_bytes)`` of each VMA
    vmas: tuple[tuple[VMAKind, int, int, int], ...]
    state: TaskState
    pending_work_items: int


@dataclass(frozen=True)
class WorldSpec:
    """The busy-configuration world of one :class:`KernelConfig`.

    ``tasks`` lists the populated tasks in creation order, which is also
    their order under init_task; ``queued`` indexes the runnable ones in
    the order the balanced enqueue places them.
    """

    tasks: tuple[TaskSpec, ...]
    queued: tuple[int, ...]


@lru_cache(maxsize=16)
def world_spec(config: KernelConfig) -> WorldSpec:
    """The populated world ``config`` describes: a pure function of it.

    ~72 user and ~48 kernel processes; every RNG draw happens here, in
    one fixed order from ``config.seed``: user registers and VMA sizes,
    then which tasks sleep and their pending work.
    """
    rng = random.Random(config.seed)
    made: list[tuple[str, bool, Registers, tuple]] = []
    for i in range(config.kernel_threads):
        made.append((f"kworker/{i}", True, Registers(
            pc=0x8000_0000 + i * 0x1000, sp=0x9000_0000 + i * 0x4000,
            page_table_root=0,
        ), ()))
    for i in range(config.user_processes):
        registers = Registers(
            pc=0x0001_0000 + i * 0x100, sp=0x7fff_0000 - i * 0x8000,
            gpr_checksum=rng.getrandbits(32),
            page_table_root=0x1_0000_0000 + i * 0x1000,
        )
        heap = rng.choice([1 << 16, 1 << 18, 1 << 20])
        vmas = (
            (VMAKind.CODE, 0x10000, 1 << 16, 0),
            (VMAKind.HEAP, 0x4000_0000, heap,
             rng.randrange(heap // 4, heap)),
            (VMAKind.STACK, 0x7fff_0000, 1 << 14,
             rng.randrange(0, 1 << 14)),
        )
        made.append((f"user{i:02d}", False, registers, vmas))

    # Scatter states: some running/runnable on queues, the rest asleep.
    order = list(range(len(made)))
    rng.shuffle(order)
    n_sleeping = int(len(order) * config.sleeping_fraction)
    pending = {index: rng.randrange(0, 3) for index in order[:n_sleeping]}
    tasks = tuple(
        TaskSpec(name, kernel_thread, registers, vmas,
                 TaskState.INTERRUPTIBLE if index in pending
                 else TaskState.RUNNABLE,
                 pending.get(index, 0))
        for index, (name, kernel_thread, registers, vmas) in enumerate(made)
    )
    return WorldSpec(tasks=tasks, queued=tuple(order[n_sleeping:]))


class Kernel:
    """Kernel state: task tree + scheduler + dpm list + bootloader."""

    def __init__(self, config: Optional[KernelConfig] = None) -> None:
        self.config = config or KernelConfig()
        self.dpm = default_dpm_list(self.config.extra_drivers)
        self._rewind()

    def _rewind(self) -> None:
        """Everything but the dpm list as constructed: no tasks yet."""
        self.scheduler = Scheduler(self.config.cores)
        self.bootloader = Bootloader()
        self.init_task = Task(name="init", kernel_thread=True,
                              state=TaskState.RUNNABLE)
        #: system-wide atomic persistent flag Drive-to-Idle sets
        self.persistent_flag = False
        self._populated = False

    # -- world building ----------------------------------------------------

    def populate(self) -> None:
        """Create the busy-configuration process population.

        Instantiates :func:`world_spec` of the config: the tasks under
        init_task in creation order (so pids follow it), then the
        runnable ones onto the run queues.  Tasks adopted under
        init_task before this call are left as they are.
        """
        if self._populated:
            raise RuntimeError("kernel already populated")
        spec = world_spec(self.config)
        tasks = spawn(self.init_task, spec.tasks)
        self.scheduler.enqueue_balanced([tasks[i] for i in spec.queued])
        self._populated = True

    def reset_world(self) -> None:
        """Rewind to the just-populated state without rebuilding devices.

        The dpm list is by far the most expensive part of kernel
        construction (hundreds of :class:`DeviceDriver` dataclasses),
        and nothing about it is world-specific: drivers only ever
        change power state, IRQ masking, and MMIO contents, all of
        which :meth:`DevicePMList.reset` rewinds in place.  Everything
        else — scheduler queues, the task tree, the bootloader commit,
        the persistent flag — is rebuilt, then :meth:`populate`
        instantiates the config's cached :func:`world_spec`, so a reset
        kernel is indistinguishable from a fresh one.  This is the
        kernel half of ``Machine.reset()``'s conformance contract.
        """
        self.dpm.reset()
        self.__dict__.pop("address_spaces", None)
        self._rewind()
        self.populate()

    # -- queries -------------------------------------------------------------

    def all_tasks(self) -> list[Task]:
        """Every PCB reachable from init_task (excluding init itself),
        in preorder."""
        children = self.init_task.children
        if not any(map(_CHILDREN, children)):
            # init's children are all leaves, as in a populated world
            return list(children)
        tasks = list(self.init_task.walk())
        del tasks[0]  # init_task, which the walk yields first
        return tasks

    def sleeping_tasks(self) -> list[Task]:
        return [t for t in self.all_tasks() if t.is_sleeping]

    def user_tasks(self) -> list[Task]:
        return [t for t in self.all_tasks() if t.is_user]

    def task_count(self) -> int:
        return len(self.all_tasks())

    def total_dirty_vma_bytes(self) -> int:
        return sum(t.dirty_vma_bytes() for t in self.all_tasks())

    def total_vma_bytes(self) -> int:
        return sum(t.total_vma_bytes() for t in self.all_tasks())

    # -- virtual memory integration (§IV-C) -----------------------------

    def attach_address_spaces(self, backend, table_base: int,
                              table_bytes: int = 1 << 22) -> int:
        """Give every user task a real page table in ``backend`` memory.

        Each task's VMAs are mapped at 4 KB granularity; the PCB's
        ``page_table_root`` then points at a table that physically lives
        in the backend — persistent on OC-PMEM, gone with DRAM — which is
        exactly what lets Go "restore the virtual memory space" by just
        reloading the root per process.  Returns the number of spaces
        built.  Physical frames are assigned bump-style after the table
        region (layout fidelity is not the point; persistence is).
        """
        from dataclasses import replace

        from repro.pecos.vm import (
            AddressSpace,
            PAGE_BYTES,
            PageFlags,
            PageTableAllocator,
        )

        allocator = PageTableAllocator(
            base=table_base, limit=table_base + table_bytes)
        next_frame = table_base + table_bytes
        self.address_spaces: dict[int, AddressSpace] = {}
        for index, task in enumerate(self.user_tasks()):
            space = AddressSpace(backend, allocator, asid=index + 1)
            for vma in task.vmas:
                length = ((vma.length + PAGE_BYTES - 1)
                          // PAGE_BYTES) * PAGE_BYTES
                space.map_range(vma.start, next_frame, length,
                                flags=PageFlags.ALL)
                next_frame += length
            task.registers = replace(task.registers,
                                     page_table_root=space.root)
            self.address_spaces[task.pid] = space
        return len(self.address_spaces)

    def everything_locked_down(self) -> bool:
        """Drive-to-Idle's postcondition: no task can change anything."""
        return (
            self.scheduler.runnable_count() == 0
            and all(
                t.state is TaskState.UNINTERRUPTIBLE for t in self.all_tasks()
            )
        )
