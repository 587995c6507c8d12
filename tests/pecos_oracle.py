"""Reference PecOS world and Stop/Go bookkeeping: the per-call formulation.

A warm crash trial resets the machine, runs Stop and Go and checks the
resumed PCBs.  Before those steps were made lean, each of them went
through the general-purpose formulation: the stats registry scanned every
registered path for collisions, ``Kernel.reset_world`` re-ran the world's
RNG and rebuilt every driver's MMIO image, the dpm chains called one
method per driver per pass, task flags went through ``IntFlag``
arithmetic, the task tree was walked recursively (twice by Go) and the
balanced enqueue asked ``min`` for the emptiest queue per task.

This module keeps a verbatim copy of every class and function whose body
changed for that (the stats registry, the task and its registers, the
scheduler, the device driver, its DCB and the dpm list with the default
driver population, signal delivery, the kernel, SnG, and the D$ whose
dirty-line count and dump changed), so ``tests/test_pecos_oracle.py`` can
demand the same reports, exceptions, world state and stats trees from
both.  Two changed bodies are checked there against their old expression
instead of a copy: a core's ``exec`` stats (``dataclasses.asdict``) and
a columnar trace window's records (:func:`iter_range` below, the old
per-element read).

Everything that did not change is imported: ``KernelConfig``, the task
state and flag enums, the VMA, the run queue and ``balance_assign``, the
bootloader, the interrupt controller, the report types and the stats
accumulators.  The task's pid counter is the shared global one, so both
sides draw pids from one sequence, as two kernels in one process do.
The SnG copy builds the imported interrupt controller the way the
controller is built now, from the core count alone; the simulator it
once took was never scheduled on or advanced.
"""

from __future__ import annotations

import pickle
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional

from repro.cpu.cache import CacheConfig
from repro.memory.port import MemoryBackend
from repro.pecos.bootloader import BCB, Bootloader, MachineRegisters
from repro.pecos.device import DevicePMError, DeviceState, _RAMP
from repro.pecos.interrupt import InterruptController
from repro.pecos.kernel import KernelConfig
from repro.pecos.scheduler import RunQueue, balance_assign
from repro.pecos.signals import DeliveryRecord, Signal
from repro.pecos.sng import GoReport, SnGTiming, StopReport
from repro.pecos.task import (
    TaskFlags,
    TaskState,
    VMA,
    VMAKind,
    _pid_counter,
)
from repro.sim.stats import (
    _PATH_SEGMENT,
    Counter,
    LatencyStats,
    RatioStat,
    StatSource,
)
from repro.workloads.trace import TraceRecord
from repro.workloads.trace_io import _FLAG_WRITE

__all__ = ["Cache", "DCB", "DeviceDriver", "DevicePMList", "Kernel",
           "Registers", "Scheduler", "SignalDelivery", "SnG",
           "StatsRegistry", "Task", "default_dpm_list", "iter_range"]


# -- repro.sim.stats ----------------------------------------


class StatsRegistry:
    """Hierarchical registry of named statistics sources.

    Every device registers its stats under a dotted path — the PSM's
    third DIMM's first CE group publishes ``memory.devices.dimm3.group0``
    — and the machine exports one uniform tree via :meth:`snapshot`.
    Sources are resolved lazily at snapshot time, so registering is free
    on hot paths and the tree always reflects current values:

    * :class:`LatencyStats` resolve to their :meth:`LatencyStats.summary`,
    * :class:`RatioStat` to ``{"hits", "total", "ratio"}``,
    * :class:`Counter` to its dict,
    * numbers pass through, and
    * zero-argument callables are invoked and resolved recursively —
      the idiom for live attributes (``lambda: psm.mce_count``) and for
      objects the owner replaces wholesale (``lambda: cache.read_hits``).

    ``scoped(prefix)`` returns a view that shares the same entries but
    prepends ``prefix`` to every path, which is how a parent hands each
    child device its own subtree without the child knowing where it sits.
    """

    def __init__(self) -> None:
        self._entries: dict[str, StatSource] = {}
        self._prefix = ""

    # -- registration -------------------------------------------------------

    def _join(self, path: str) -> str:
        if not path:
            raise ValueError("stat path must be non-empty")
        for segment in path.split("."):
            if not _PATH_SEGMENT.match(segment):
                raise ValueError(
                    f"invalid stat path segment {segment!r} in {path!r}; "
                    f"use [A-Za-z0-9_]+ joined by dots"
                )
        return f"{self._prefix}.{path}" if self._prefix else path

    def scoped(self, prefix: str) -> "StatsRegistry":
        """A view over the same registry with ``prefix`` prepended."""
        view = StatsRegistry.__new__(StatsRegistry)
        view._entries = self._entries
        view._prefix = self._join(prefix)
        return view

    def register(self, path: str, source: StatSource) -> StatSource:
        """Bind ``source`` at ``path`` (relative to this scope)."""
        full = self._join(path)
        for existing in self._entries:
            if (existing == full or existing.startswith(full + ".")
                    or full.startswith(existing + ".")):
                raise ValueError(
                    f"stat path {full!r} collides with registered "
                    f"{existing!r}"
                )
        self._entries[full] = source
        return source

    def drop(self, prefix: str = "") -> int:
        """Remove every entry under ``prefix``; returns how many."""
        full = self._join(prefix) if prefix else self._prefix
        doomed = [key for key in self._entries
                  if not full or key == full or key.startswith(full + ".")]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    # -- export -------------------------------------------------------------

    def paths(self) -> list[str]:
        """Sorted registered paths visible from this scope (relative)."""
        if not self._prefix:
            return sorted(self._entries)
        cut = len(self._prefix) + 1
        return sorted(
            key[cut:] for key in self._entries
            if key.startswith(self._prefix + ".")
        )

    @staticmethod
    def _resolve(source: StatSource):
        if isinstance(source, LatencyStats):
            return source.summary()
        if isinstance(source, RatioStat):
            return {"hits": source.hits, "total": source.total,
                    "ratio": source.ratio}
        if isinstance(source, Counter):
            return {k: float(v) for k, v in source.as_dict().items()}
        if isinstance(source, bool):
            return float(source)
        if isinstance(source, (int, float)):
            return source
        if isinstance(source, dict):
            return {key: StatsRegistry._resolve(value)
                    for key, value in source.items()}
        if callable(source):
            return StatsRegistry._resolve(source())
        raise TypeError(f"cannot resolve stat source {type(source).__name__}")

    def snapshot(self) -> dict:
        """The stats tree under this scope as plain nested dicts."""
        tree: dict = {}
        for path in self.paths():
            node = tree
            parts = path.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = self._resolve(
                self._entries[self._join(path)]
            )
        return tree

    def flat(self) -> dict[str, float]:
        """The snapshot flattened to dotted-path -> float leaves."""
        out: dict[str, float] = {}

        def walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key, child in value.items():
                    walk(f"{prefix}.{key}" if prefix else key, child)
            else:
                out[prefix] = float(value)

        walk("", self.snapshot())
        return out


# -- repro.pecos.task ----------------------------------------


@dataclass(frozen=True)
class Registers:
    """Architectural state saved into the PCB at a context switch."""

    pc: int = 0
    sp: int = 0
    gpr_checksum: int = 0
    page_table_root: int = 0

    def advanced(self, delta_pc: int) -> "Registers":
        return replace(self, pc=self.pc + delta_pc)


# -- repro.pecos.task ----------------------------------------


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
    parent: Optional["Task"] = None
    children: list["Task"] = field(default_factory=list)
    #: core whose run queue currently owns the task, if any
    cpu: Optional[int] = None
    #: pending wakeup work a sleeping task must handle before idling
    pending_work_items: int = 0

    def __post_init__(self) -> None:
        if self.kernel_thread:
            self.flags |= TaskFlags.KERNEL_THREAD

    # -- tree -------------------------------------------------------------

    def adopt(self, child: "Task") -> "Task":
        child.parent = self
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Task"]:
        """Depth-first traversal from this task (init_task style)."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- state transitions used by SnG --------------------------------------

    @property
    def is_sleeping(self) -> bool:
        return self.state in (TaskState.INTERRUPTIBLE, TaskState.UNINTERRUPTIBLE)

    @property
    def is_user(self) -> bool:
        return not self.kernel_thread

    def set_sigpending(self) -> None:
        self.flags |= TaskFlags.SIGPENDING

    def set_need_resched(self) -> None:
        self.flags |= TaskFlags.NEED_RESCHED

    def lockdown(self) -> None:
        """Drive-to-Idle terminal state: uninterruptible, off any queue."""
        self.state = TaskState.UNINTERRUPTIBLE
        self.flags &= ~TaskFlags.NEED_RESCHED
        self.cpu = None

    def release(self) -> None:
        """Go: TASK_UNINTERRUPTIBLE -> TASK_NORMAL (runnable)."""
        if self.state is not TaskState.UNINTERRUPTIBLE:
            raise RuntimeError(
                f"release() on task {self.name!r} in state {self.state}"
            )
        self.state = TaskState.RUNNABLE
        self.flags &= ~TaskFlags.SIGPENDING

    def save_registers(self, registers: Registers) -> None:
        self.registers = registers

    def total_vma_bytes(self) -> int:
        return sum(v.length for v in self.vmas)

    def dirty_vma_bytes(self) -> int:
        return sum(v.dirty_bytes for v in self.vmas)


# -- repro.pecos.scheduler ----------------------------------------


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
        """Distribute tasks across the emptiest queues; returns placement."""
        placement: dict[int, list[Task]] = {q.cpu: [] for q in self.run_queues}
        for task in tasks:
            queue = min(self.run_queues, key=len)
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


# -- repro.pecos.device ----------------------------------------


@dataclass
class DCB:
    """Device control block: the persistent snapshot of one device."""

    device: str
    context_bytes: int
    mmio_image: bytes
    irq_enabled: bool


# -- repro.pecos.device ----------------------------------------


@dataclass
class DeviceDriver:
    """One entry of dpm_list with its callback costs.

    ``order`` encodes the dependency position dpm regulates; suspension
    walks ascending order, resume walks descending.
    """

    name: str
    order: int
    #: callback latencies, nanoseconds
    prepare_ns: float = 2_500.0
    suspend_ns: float = 14_000.0
    suspend_noirq_ns: float = 4_000.0
    resume_noirq_ns: float = 3_500.0
    resume_ns: float = 9_000.0
    complete_ns: float = 1_500.0
    #: device context + MMIO region dumped into the DCB
    context_bytes: int = 512
    mmio_bytes: int = 256
    #: SPI/GPIO-style peripherals need manual handling (extra cost)
    manual: bool = False

    state: DeviceState = DeviceState.ACTIVE
    irq_enabled: bool = True
    _mmio: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        if not self._mmio:
            seed = sum(self.name.encode()) & 0xFF
            period = _RAMP[seed:] + _RAMP[:seed]
            size = self.mmio_bytes
            self._mmio = (period * ((size + 255) // 256))[:size]

    def reset(self) -> None:
        """Rewind to the just-constructed state (``Kernel.reset_world``).

        Everything mutable is rewound: power state, IRQ masking, and
        the MMIO image (regenerated from the name-derived pattern, so a
        trial's ``scribble_mmio`` churn does not leak into the next)."""
        self.state = DeviceState.ACTIVE
        self.irq_enabled = True
        self._mmio = b""
        self.__post_init__()

    # -- suspend chain ------------------------------------------------------

    def dpm_prepare(self) -> float:
        if self.state is not DeviceState.ACTIVE:
            raise DevicePMError(f"{self.name}: prepare from {self.state}")
        self.state = DeviceState.PREPARED
        return self.prepare_ns

    def dpm_suspend(self) -> float:
        if self.state is not DeviceState.PREPARED:
            raise DevicePMError(f"{self.name}: suspend from {self.state}")
        self.irq_enabled = False
        self.state = DeviceState.SUSPENDED
        cost = self.suspend_ns
        if self.manual:
            cost *= 1.5  # hand-rolled SPI/GPIO quiescing
        return cost

    def dpm_suspend_noirq(self) -> tuple[float, DCB]:
        if self.state is not DeviceState.SUSPENDED:
            raise DevicePMError(f"{self.name}: noirq from {self.state}")
        self.state = DeviceState.SUSPENDED_NOIRQ
        dcb = DCB(
            device=self.name,
            context_bytes=self.context_bytes,
            mmio_image=self._mmio,
            irq_enabled=False,
        )
        return self.suspend_noirq_ns, dcb

    # -- resume chain ---------------------------------------------------------

    def dpm_resume_noirq(self, dcb: DCB) -> float:
        if self.state is not DeviceState.SUSPENDED_NOIRQ:
            raise DevicePMError(f"{self.name}: resume_noirq from {self.state}")
        if dcb.device != self.name:
            raise DevicePMError(f"DCB for {dcb.device} applied to {self.name}")
        self._mmio = dcb.mmio_image
        self.irq_enabled = True
        self.state = DeviceState.SUSPENDED
        return self.resume_noirq_ns

    def dpm_resume(self) -> float:
        if self.state is not DeviceState.SUSPENDED:
            raise DevicePMError(f"{self.name}: resume from {self.state}")
        self.state = DeviceState.PREPARED
        return self.resume_ns

    def dpm_complete(self) -> float:
        if self.state is not DeviceState.PREPARED:
            raise DevicePMError(f"{self.name}: complete from {self.state}")
        self.state = DeviceState.ACTIVE
        return self.complete_ns

    @property
    def mmio_snapshot(self) -> bytes:
        return self._mmio

    def scribble_mmio(self) -> None:
        """Simulate runtime MMIO churn (so restore is observable)."""
        self._mmio = bytes((b + 1) & 0xFF for b in self._mmio)


# -- repro.pecos.device ----------------------------------------


class DevicePMList:
    """dpm_list: drivers in dependency order plus the DCB store."""

    def __init__(self, drivers: list[DeviceDriver]) -> None:
        names = [d.name for d in drivers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate driver names in dpm_list")
        self.drivers = sorted(drivers, key=lambda d: d.order)
        self.dcbs: dict[str, DCB] = {}

    def __len__(self) -> int:
        return len(self.drivers)

    def suspend_all(self) -> float:
        """Run the full suspend chain in dpm order; returns total ns."""
        total = 0.0
        for driver in self.drivers:
            total += driver.dpm_prepare()
        for driver in self.drivers:
            total += driver.dpm_suspend()
        for driver in self.drivers:
            cost, dcb = driver.dpm_suspend_noirq()
            self.dcbs[driver.name] = dcb
            total += cost
        return total

    def resume_all(self) -> float:
        """Inverse-order resume chain from the stored DCBs."""
        total = 0.0
        for driver in reversed(self.drivers):
            dcb = self.dcbs.get(driver.name)
            if dcb is None:
                raise DevicePMError(f"no DCB stored for {driver.name}")
            total += driver.dpm_resume_noirq(dcb)
        for driver in reversed(self.drivers):
            total += driver.dpm_resume()
        for driver in reversed(self.drivers):
            total += driver.dpm_complete()
        self.dcbs.clear()
        return total

    def all_state(self, state: DeviceState) -> bool:
        return all(d.state is state for d in self.drivers)


# -- repro.pecos.device ----------------------------------------


def default_dpm_list(extra_drivers: int = 0) -> DevicePMList:
    """The prototype's default device population.

    The base set mirrors a small RISC-V SoC board (UART, SPI, GPIO, net,
    block, timers, ...).  ``extra_drivers`` pads the list toward the
    worst-case 730-entry dpm_list of the scalability study (Fig. 22).
    """
    base = [
        DeviceDriver("uart0", order=0, context_bytes=128, mmio_bytes=64),
        DeviceDriver("uart1", order=1, context_bytes=128, mmio_bytes=64),
        DeviceDriver("spi0", order=2, manual=True, context_bytes=256),
        DeviceDriver("gpio0", order=3, manual=True, context_bytes=64,
                     mmio_bytes=32),
        DeviceDriver("eth0", order=4, context_bytes=2048, mmio_bytes=1024,
                     suspend_ns=26_000.0, resume_ns=21_000.0),
        DeviceDriver("blk0", order=5, context_bytes=1024,
                     suspend_ns=32_000.0, resume_ns=24_000.0),
        DeviceDriver("rtc0", order=6, context_bytes=32, mmio_bytes=32),
        DeviceDriver("timer0", order=7, context_bytes=64, mmio_bytes=32),
        DeviceDriver("plic", order=8, context_bytes=512, mmio_bytes=512),
        DeviceDriver("clint", order=9, context_bytes=128, mmio_bytes=64),
    ]
    for i in range(extra_drivers):
        base.append(
            DeviceDriver(
                f"dev{i:03d}", order=10 + i,
                prepare_ns=1_200.0, suspend_ns=5_000.0,
                suspend_noirq_ns=1_800.0, resume_noirq_ns=1_400.0,
                resume_ns=3_200.0, complete_ns=700.0,
                context_bytes=256, mmio_bytes=128,
            )
        )
    return DevicePMList(base)


# -- repro.pecos.signals ----------------------------------------


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
        task.flags &= ~TaskFlags.SIGPENDING
        self.delivered.extend(records)
        return records

    def pending_count(self, task: Task) -> int:
        return len(self._pending.get(task.pid, ()))


# -- repro.pecos.kernel ----------------------------------------


class Kernel:
    """Kernel state: task tree + scheduler + dpm list + bootloader."""

    def __init__(self, config: Optional[KernelConfig] = None) -> None:
        self.config = config or KernelConfig()
        self.scheduler = Scheduler(self.config.cores)
        self.dpm = default_dpm_list(self.config.extra_drivers)
        self.bootloader = Bootloader()
        self.init_task = Task(name="init", kernel_thread=True,
                              state=TaskState.RUNNABLE)
        #: system-wide atomic persistent flag Drive-to-Idle sets
        self.persistent_flag = False
        self._populated = False

    # -- world building ----------------------------------------------------

    def populate(self) -> None:
        """Create the busy-configuration process population."""
        if self._populated:
            raise RuntimeError("kernel already populated")
        cfg = self.config
        rng = random.Random(cfg.seed)
        for i in range(cfg.kernel_threads):
            task = Task(name=f"kworker/{i}", kernel_thread=True)
            task.registers = Registers(
                pc=0x8000_0000 + i * 0x1000, sp=0x9000_0000 + i * 0x4000,
                page_table_root=0,
            )
            self.init_task.adopt(task)
        for i in range(cfg.user_processes):
            task = Task(name=f"user{i:02d}")
            task.registers = Registers(
                pc=0x0001_0000 + i * 0x100, sp=0x7fff_0000 - i * 0x8000,
                gpr_checksum=rng.getrandbits(32),
                page_table_root=0x1_0000_0000 + i * 0x1000,
            )
            heap = rng.choice([1 << 16, 1 << 18, 1 << 20])
            task.vmas = [
                VMA(VMAKind.CODE, start=0x10000, length=1 << 16),
                VMA(VMAKind.HEAP, start=0x4000_0000, length=heap,
                    dirty_bytes=rng.randrange(heap // 4, heap)),
                VMA(VMAKind.STACK, start=0x7fff_0000, length=1 << 14,
                    dirty_bytes=rng.randrange(0, 1 << 14)),
            ]
            self.init_task.adopt(task)

        # Scatter states: some running/runnable on queues, the rest asleep.
        tasks = self.all_tasks()
        rng.shuffle(tasks)
        n_sleeping = int(len(tasks) * cfg.sleeping_fraction)
        for task in tasks[:n_sleeping]:
            task.state = TaskState.INTERRUPTIBLE
            task.pending_work_items = rng.randrange(0, 3)
        self.scheduler.enqueue_balanced(tasks[n_sleeping:])
        self._populated = True

    def reset_world(self) -> None:
        """Rewind to the just-populated state without rebuilding devices.

        The dpm list is by far the most expensive part of kernel
        construction (hundreds of :class:`DeviceDriver` dataclasses),
        and nothing about it is world-specific: drivers only ever
        change power state, IRQ masking, and MMIO contents, all of
        which :meth:`DeviceDriver.reset` rewinds in place.  Everything
        else — scheduler queues, the task tree, the bootloader commit,
        the persistent flag — is rebuilt, then :meth:`populate` reruns
        deterministically from ``config.seed``, so a reset kernel is
        indistinguishable from a fresh one.  This is the kernel half of
        ``Machine.reset()``'s conformance contract.
        """
        for driver in self.dpm.drivers:
            driver.reset()
        self.dpm.dcbs.clear()
        self.scheduler = Scheduler(self.config.cores)
        self.bootloader = Bootloader()
        self.init_task = Task(name="init", kernel_thread=True,
                              state=TaskState.RUNNABLE)
        self.persistent_flag = False
        if hasattr(self, "address_spaces"):
            del self.address_spaces
        self._populated = False
        self.populate()

    # -- queries -------------------------------------------------------------

    def all_tasks(self) -> list[Task]:
        """Every PCB reachable from init_task (excluding init itself)."""
        return [t for t in self.init_task.walk() if t is not self.init_task]

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


# -- repro.pecos.sng ----------------------------------------


class SnG:
    """Stop-and-Go orchestrator bound to a kernel and a memory port.

    The memory side is wired either from a whole ``port`` (any
    :class:`repro.memory.port.MemoryBackend`, whose ``flush`` /
    ``capture_registers`` / ``restore_wear_registers`` ports SnG drives)
    or from the individual callables — ``flush_port`` is
    ``(time_ns) -> done_ns``.  Explicit callables win over the port, so
    tests can still stub a single surface.  ``dirty_lines_fn`` reports
    per-core dirty cacheline counts at the cut.
    """

    def __init__(
        self,
        kernel: Kernel,
        flush_port: Optional[Callable[[float], float]] = None,
        dirty_lines_fn: Optional[Callable[[], list[int]]] = None,
        timing: Optional[SnGTiming] = None,
        capture_hw_state: Optional[Callable[[], bytes]] = None,
        restore_hw_state: Optional[Callable[[bytes], None]] = None,
        port: Optional[MemoryBackend] = None,
    ) -> None:
        if port is not None:
            flush_port = flush_port or port.flush
            capture_hw_state = capture_hw_state or port.capture_registers
            restore_hw_state = restore_hw_state or port.restore_wear_registers
        if flush_port is None:
            raise TypeError("SnG needs flush_port= or port=")
        if dirty_lines_fn is None:
            raise TypeError("SnG needs dirty_lines_fn")
        self.kernel = kernel
        self.port = port
        self.flush_port = flush_port
        self.dirty_lines_fn = dirty_lines_fn
        self.capture_hw_state = capture_hw_state
        self.restore_hw_state = restore_hw_state
        self.timing = timing or SnGTiming()
        self.interrupts = InterruptController(cores=kernel.config.cores)
        self.signals = SignalDelivery()
        self.last_stop: Optional[StopReport] = None
        self.last_go: Optional[GoReport] = None
        #: pickled PCB snapshot taken at the EP-cut, used by the
        #: consistency checks to prove Go resumed identical state
        self._pcb_snapshot: Optional[bytes] = None
        #: pid -> (state key, canonical entry pickle); unchanged tasks
        #: reuse their previous serialization at the next cut
        self._pcb_cache: dict[int, tuple[tuple, bytes]] = {}
        self.pcb_entries_serialized = 0
        self.pcb_entries_reused = 0

    # ------------------------------------------------------------------
    # Stop
    # ------------------------------------------------------------------

    def stop(self, at_ns: float = 0.0, seized_by: int = 0) -> StopReport:
        """Run the full Stop sequence; returns its latency decomposition."""
        kernel = self.kernel
        t = self.timing
        cores = kernel.config.cores
        self.interrupts.reset()
        master = self.interrupts.raise_power_event(seized_by)

        # ---- Drive-to-Idle -------------------------------------------------
        kernel.persistent_flag = True
        tasks = kernel.all_tasks()
        traversal_ns = len(tasks) * t.pcb_visit_ns

        sleeping = [task for task in tasks if task.is_sleeping]
        for task in sleeping:
            if task.is_user:
                # fake signal: ride the entry.S exit path off the core
                self.signals.post_fake_signal(task)
        assignments = balance_assign(sleeping, cores)
        ipis = sum(1 for bucket in assignments if bucket)

        # Worker timelines run in parallel; each parks its waken tasks and
        # then the tasks already on its run queue.
        worker_ns = [0.0] * cores
        for cpu, bucket in enumerate(assignments):
            for task in bucket:
                worker_ns[cpu] += t.task_wake_ns + t.task_park_ns
                worker_ns[cpu] += task.pending_work_items * t.pending_work_ns
                task.pending_work_items = 0
                self._park(task)
        for queue in kernel.scheduler.run_queues:
            for task in queue.tasks():
                worker_ns[queue.cpu] += t.task_park_ns
                task.set_need_resched()
        for task in kernel.scheduler.drain_all():
            self._park(task)
        # Each core finally places its idle task and synchronizes.
        idle_sync_ns = t.idle_place_ns
        process_stop_ns = (
            traversal_ns + max(worker_ns, default=0.0) + idle_sync_ns
        )

        if not kernel.everything_locked_down():
            raise RuntimeError("Drive-to-Idle failed to lock down all tasks")
        self._pcb_snapshot = self._snapshot_pcbs()

        # ---- Auto-Stop: device stop ---------------------------------------
        device_stop_ns = kernel.dpm.suspend_all()
        mmio_bytes = sum(d.mmio_bytes for d in kernel.dpm.drivers)
        device_stop_ns += mmio_bytes * t.mmio_dump_ns_per_byte
        # master flushes its own cache after writing the DCBs
        dirty = self.dirty_lines_fn()
        if len(dirty) != cores:
            raise ValueError(
                f"dirty_lines_fn returned {len(dirty)} cores, expected {cores}"
            )
        device_stop_ns += dirty[master] * t.cacheline_flush_ns

        # ---- Auto-Stop: offline -------------------------------------------
        # Clear the per-core execution pointers so Go can resynchronize.
        cpu_up_pointers = tuple(0 for _ in range(cores))
        offline_ns = 0.0
        flushed = dirty[master]
        worker_dump_ns = 0.0
        for cpu in range(cores):
            if cpu == master:
                continue
            # The IPI chain and ready reports serialize worker by worker;
            # each worker dumps its own cache concurrently once poked, so
            # the dump term is the slowest worker, not the sum.
            offline_ns += self.interrupts.ipi_latency_ns + t.core_offline_ns
            worker_dump_ns = max(
                worker_dump_ns, dirty[cpu] * t.cacheline_flush_ns
            )
            flushed += dirty[cpu]
            self.interrupts.ipis_sent += 1
        offline_ns += worker_dump_ns
        # Exception into the bootloader: machine registers + MEPC -> BCB.
        kernel.bootloader.enter_from_exception()
        bcb = BCB(
            machine_registers=MachineRegisters(
                mstatus=0x8000_0000_0000_0000, mie=0x888, mtvec=0x8000_1000
            ),
            mepc=0x8020_0000,
            cpu_up_task_pointers=cpu_up_pointers,
            wear_registers_blob=self._wear_blob(),
        )
        offline_ns += kernel.bootloader.store_bcb(bcb)
        kernel.persistent_flag = False  # cleared before the final commit
        offline_ns += kernel.bootloader.commit()
        # Final master cache dump + memory synchronization (flush port).
        start = at_ns + process_stop_ns + device_stop_ns + offline_ns
        offline_ns += max(0.0, self.flush_port(start) - start)
        offline_ns += t.core_offline_ns  # the master offlines last

        report = StopReport(
            process_stop_ns=process_stop_ns,
            device_stop_ns=device_stop_ns,
            offline_ns=offline_ns,
            tasks_stopped=len(tasks),
            drivers_suspended=len(kernel.dpm),
            cachelines_flushed=flushed,
            ipis=self.interrupts.ipis_sent + ipis,
            commit_stored=kernel.bootloader.has_commit,
        )
        self.last_stop = report
        return report

    def _park(self, task: Task) -> None:
        """Context-switch a task out for good (registers land in the PCB)."""
        if self.signals.has_pending(task):
            # the kernel-exit path drains pending signals first (entry.S)
            self.signals.deliver_pending(task)
        task.save_registers(task.registers.advanced(0))
        task.lockdown()

    def _snapshot_pcbs(self) -> bytes:
        """Incremental per-task PCB digest.

        Each task serializes to a standalone canonical pickle of
        ``(pid, name, registers, dirty_vma_bytes)``; the snapshot is the
        concatenation in traversal order.  A per-pid cache keyed on the
        tuple's value skips re-serializing tasks whose state is unchanged
        since the previous cut — re-parked tasks save
        ``registers.advanced(0)``, which compares *equal*, so steady-state
        cuts re-pickle only tasks that actually progressed.  Equal values
        pickle to equal bytes, which is why Go's byte-match audit
        (:meth:`verify_resumed_state`) still holds under reuse.
        """
        cache = self._pcb_cache
        fresh: dict[int, tuple[tuple, bytes]] = {}
        entries: list[bytes] = []
        for task in self.kernel.all_tasks():
            pid = task.pid
            key = (task.name, task.registers, task.dirty_vma_bytes())
            cached = cache.get(pid)
            if cached is not None and cached[0] == key:
                blob = cached[1]
                self.pcb_entries_reused += 1
            else:
                blob = pickle.dumps((pid,) + key)
                self.pcb_entries_serialized += 1
            fresh[pid] = (key, blob)
            entries.append(blob)
        self._pcb_cache = fresh  # dead pids fall out of the cache
        return b"".join(entries)

    def _wear_blob(self) -> bytes:
        if self.capture_hw_state is not None:
            return self.capture_hw_state()
        return b""

    # ------------------------------------------------------------------
    # Go
    # ------------------------------------------------------------------

    def go(self) -> GoReport:
        """Power recovery: re-execute everything from the EP-cut."""
        kernel = self.kernel
        t = self.timing
        cores = kernel.config.cores

        decision, bcb_restore_ns = kernel.bootloader.power_on()
        if not decision.warm:
            return GoReport(
                bcb_restore_ns=0.0, core_online_ns=0.0,
                device_resume_ns=0.0, reschedule_ns=0.0,
                tasks_resumed=0, warm=False,
            )
        assert decision.bcb is not None
        if self.restore_hw_state is not None:
            self.restore_hw_state(decision.bcb.wear_registers_blob)

        # Workers power up one by one: idle-task pointer + IPI each.
        core_online_ns = 0.0
        for _cpu in range(cores - 1):
            core_online_ns += (
                t.core_online_ns + self.interrupts.ipi_latency_ns
            )
        core_online_ns += t.core_online_ns  # the master reconfigures itself

        # Devices come back in inverse dpm order; MMIO regions restored.
        device_resume_ns = kernel.dpm.resume_all()
        mmio_bytes = sum(d.mmio_bytes for d in kernel.dpm.drivers)
        device_resume_ns += mmio_bytes * t.mmio_dump_ns_per_byte

        # Ready-to-schedule: TLB flush per core, then kernel tasks first,
        # user tasks second, all flipped back to TASK_NORMAL.
        reschedule_ns = cores * t.tlb_flush_ns
        kernel_tasks = [t_ for t_ in kernel.all_tasks() if not t_.is_user]
        user_tasks = [t_ for t_ in kernel.all_tasks() if t_.is_user]
        resumed = 0
        for task in kernel_tasks + user_tasks:
            task.release()
            resumed += 1
            reschedule_ns += t.task_resched_ns
        kernel.scheduler.enqueue_balanced(kernel_tasks + user_tasks)
        kernel.bootloader.clear_commit()

        report = GoReport(
            bcb_restore_ns=bcb_restore_ns,
            core_online_ns=core_online_ns,
            device_resume_ns=device_resume_ns,
            reschedule_ns=reschedule_ns,
            tasks_resumed=resumed,
            warm=True,
        )
        self.last_go = report
        return report

    # ------------------------------------------------------------------
    # Consistency audit
    # ------------------------------------------------------------------

    def verify_resumed_state(self) -> bool:
        """Go's world must byte-match the EP-cut's PCB snapshot."""
        if self._pcb_snapshot is None:
            raise RuntimeError("no EP-cut snapshot recorded")
        return self._snapshot_pcbs() == self._pcb_snapshot


# -- repro.cpu.cache ----------------------------------------


class Cache:
    """One write-back cache with true-LRU replacement."""

    def __init__(self, config: Optional[CacheConfig] = None, name: str = "d$") -> None:
        self.config = config or CacheConfig()
        self.name = name
        # geometry read once here, not through the config's properties on
        # every access
        self._set_count = self.config.sets
        self._line_bytes = self.config.line_bytes
        self._assoc = self.config.ways
        # per-set OrderedDict: tag -> dirty flag, LRU at the front
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self._set_count)
        ]
        self.read_hits = RatioStat()
        self.write_hits = RatioStat()
        self.evictions = 0
        self.dirty_evictions = 0

    def access(self, address: int, is_write: bool) -> tuple[bool, Optional[int]]:
        """Look up (and allocate) a line.

        Returns ``(hit, victim_address)`` where ``victim_address`` is the
        base address of a dirty line evicted to make room, or None.
        """
        line = address // self._line_bytes
        set_count = self._set_count
        set_index = line % set_count
        tag = line // set_count
        ways = self._sets[set_index]
        stats = self.write_hits if is_write else self.read_hits
        stats.total += 1
        if tag in ways:
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            stats.hits += 1
            return True, None
        victim_address: Optional[int] = None
        if len(ways) >= self._assoc:
            victim_tag, victim_dirty = ways.popitem(last=False)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
                victim_line = victim_tag * set_count + set_index
                victim_address = victim_line * self._line_bytes
        ways[tag] = is_write
        return False, victim_address

    def dirty_lines(self) -> list[int]:
        """Base addresses of all dirty lines (what a cache dump must write)."""
        out = []
        for set_index, ways in enumerate(self._sets):
            for tag, dirty in ways.items():
                if dirty:
                    line = tag * self._set_count + set_index
                    out.append(line * self._line_bytes)
        return out

    def flush_dirty(self) -> list[int]:
        """Write back every dirty line; returns their base addresses."""
        flushed = self.dirty_lines()
        for ways in self._sets:
            for tag in list(ways):
                ways[tag] = False
        return flushed

    def invalidate_all(self) -> None:
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        """Zero the hit/eviction counters (contents stay resident) —
        used to measure steady-state ratios after a warmup pass."""
        self.read_hits = RatioStat()
        self.write_hits = RatioStat()
        self.evictions = 0
        self.dirty_evictions = 0

    def dirty_count(self) -> int:
        return sum(1 for ways in self._sets for d in ways.values() if d)

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)

    @property
    def read_hit_ratio(self) -> float:
        return self.read_hits.ratio

    @property
    def write_hit_ratio(self) -> float:
        return self.write_hits.ratio

    def register_stats(self, stats: StatsRegistry) -> None:
        """Publish hit/eviction stats under this scope.

        Sources are lambdas (not the objects) because
        :meth:`reset_stats` replaces the accumulators wholesale.
        """
        stats.register("read_hits", lambda: self.read_hits)
        stats.register("write_hits", lambda: self.write_hits)
        stats.register("evictions", lambda: self.evictions)
        stats.register("dirty_evictions", lambda: self.dirty_evictions)
        stats.register("occupancy", lambda: self.occupancy)


# -- repro.workloads.trace_io ----------------------------------------


def iter_range(self, lo: int, hi: int) -> Iterator[TraceRecord]:
    """``ColumnarTrace._iter_range`` as it was; ``self`` is the trace."""
    instructions, addresses, flags = self._columns_range(lo, hi)
    new_record = tuple.__new__
    for i in range(hi - lo):
        yield new_record(TraceRecord, (
            int(instructions[i]),
            int(addresses[i]),
            bool(int(flags[i]) & _FLAG_WRITE),
        ))
