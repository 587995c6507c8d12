"""Stop-and-Go: the single execution persistence cut (paper §III-B, §IV).

``Stop`` has two phases:

* **Drive-to-Idle** — triggered by the power-event interrupt.  The seizing
  core (master) sets the system-wide persistent flag and traverses all
  PCBs from init_task; sleeping tasks are woken and assigned to workers in
  a balanced way via IPIs; user tasks get a fake signal (TIF_SIGPENDING),
  kernel tasks run their pending work; every task is context-switched out
  as soon as possible, made TASK_UNINTERRUPTIBLE, and removed from its run
  queue.  No cache flush or fence happens here, which is why this phase is
  only ~12% of Stop.

* **Auto-Stop** — suspends devices through the dpm callback chain (DCBs
  into OC-PMEM, the dominant cost), clears the per-core kernel task/stack
  pointers, dumps each core's dirty cachelines and offlines the workers
  one by one over IPIs, then raises an exception into the bootloader,
  which stores the machine-mode registers + MEPC into the BCB, writes the
  Stop commit, and performs the final cache dump + memory synchronization
  through the PSM's flush port.

``Go`` inverts it: bootloader checks the commit, restores the BCB, powers
workers up one by one, resumes devices in inverse dpm order, restores
MMIO regions and the wear-leveler registers, flushes TLBs, and reschedules
kernel then user tasks by flipping TASK_UNINTERRUPTIBLE back to normal.

Timing constants are documented inline; Fig. 8b's decomposition, Fig. 20's
flush latency, Fig. 21's down/up timelines, and Fig. 22's scalability
sweep all read off this implementation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Optional

from repro.memory.port import MemoryBackend
from repro.pecos.bootloader import BCB, MachineRegisters
from repro.pecos.interrupt import InterruptController
from repro.pecos.kernel import Kernel
from repro.pecos.scheduler import balance_assign
from repro.pecos.signals import SignalDelivery
from repro.pecos.task import Task

__all__ = ["GoReport", "SnG", "SnGTiming", "StopReport"]


@dataclass(frozen=True)
class SnGTiming:
    """Per-item costs (nanoseconds) of the SnG code paths.

    Calibrated so the default busy configuration (120 processes, full
    driver population, 8 cores) lands in the paper's 8.6–10.5 ms band
    with roughly the Fig. 8b split (process stop ~12%, device stop ~38%,
    offline the rest).
    """

    #: master's PCB traversal per task (walk + mask bookkeeping)
    pcb_visit_ns: float = 900.0
    #: waking one sleeping task on a worker (IPI handled separately)
    task_wake_ns: float = 22_000.0
    #: driving one task to idle: fake-signal handling on the kernel-mode
    #: stack / pending work, context switch out, dequeue, lockdown
    task_park_ns: float = 42_000.0
    #: extra cost per pending work item a woken kernel task must finish
    pending_work_ns: float = 9_000.0
    #: swapping the idle task into a core's run queue
    idle_place_ns: float = 15_000.0
    #: reading one byte of peripheral MMIO into the DCB
    mmio_dump_ns_per_byte: float = 6.0
    #: flushing one dirty cacheline into OC-PMEM
    cacheline_flush_ns: float = 200.0
    #: one core's offline handshake: register dump, ready report, power-off
    core_offline_ns: float = 230_000.0
    #: one core's power-up + register reconfiguration during Go
    core_online_ns: float = 260_000.0
    #: per-core TLB flush when preparing ready-to-schedule state
    tlb_flush_ns: float = 30_000.0
    #: re-enqueueing one task during Go
    task_resched_ns: float = 6_000.0


@dataclass
class StopReport:
    """Stop latency decomposition (Fig. 8b) plus audit facts."""

    process_stop_ns: float
    device_stop_ns: float
    offline_ns: float
    tasks_stopped: int
    drivers_suspended: int
    cachelines_flushed: int
    ipis: int
    commit_stored: bool

    @property
    def total_ns(self) -> float:
        return self.process_stop_ns + self.device_stop_ns + self.offline_ns

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    def fractions(self) -> dict[str, float]:
        total = self.total_ns
        if total <= 0:
            return {"process_stop": 0.0, "device_stop": 0.0, "offline": 0.0}
        return {
            "process_stop": self.process_stop_ns / total,
            "device_stop": self.device_stop_ns / total,
            "offline": self.offline_ns / total,
        }


@dataclass
class GoReport:
    """Go latency decomposition and recovery audit."""

    bcb_restore_ns: float
    core_online_ns: float
    device_resume_ns: float
    reschedule_ns: float
    tasks_resumed: int
    warm: bool

    @property
    def total_ns(self) -> float:
        return (
            self.bcb_restore_ns + self.core_online_ns
            + self.device_resume_ns + self.reschedule_ns
        )

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6


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
        wake_park_ns = t.task_wake_ns + t.task_park_ns
        pending_work_ns = t.pending_work_ns
        park = self._park
        for cpu, bucket in enumerate(assignments):
            busy = 0.0
            for task in bucket:
                busy += wake_park_ns
                busy += task.pending_work_items * pending_work_ns
                task.pending_work_items = 0
                park(task)
            worker_ns[cpu] = busy
        park_ns = t.task_park_ns
        for queue in kernel.scheduler.run_queues:
            busy = worker_ns[queue.cpu]
            for task in queue.tasks():
                busy += park_ns
                task.set_need_resched()
            worker_ns[queue.cpu] = busy
        for task in kernel.scheduler.drain_all():
            park(task)
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
        device_stop_ns += kernel.dpm.mmio_bytes() * t.mmio_dump_ns_per_byte
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
        """Context-switch a task out for good.

        Its registers already sit in the PCB: :class:`Registers` is
        immutable, so saving them again would store an equal value.
        """
        if self.signals.has_pending(task):
            # the kernel-exit path drains pending signals first (entry.S)
            self.signals.deliver_pending(task)
        task.lockdown()

    def _snapshot_pcbs(self) -> bytes:
        """Incremental per-task PCB digest.

        Each task serializes to a standalone canonical pickle of
        ``(pid, name, pc, sp, gpr_checksum, page_table_root,
        dirty_vma_bytes)``; the snapshot is the concatenation in
        traversal order.  A per-pid cache keyed on everything but the
        pid skips re-serializing tasks whose state is unchanged since
        the previous cut — a re-parked task keeps its registers, so
        steady-state cuts re-pickle only tasks that actually progressed.
        Equal values pickle to equal bytes, which is why Go's byte-match
        audit (:meth:`verify_resumed_state`) still holds under reuse.
        """
        cache = self._pcb_cache
        fresh: dict[int, tuple[tuple, bytes]] = {}
        entries: list[bytes] = []
        dumps = pickle.dumps
        for task in self.kernel.all_tasks():
            pid = task.pid
            registers = task.registers
            key = (task.name, registers.pc, registers.sp,
                   registers.gpr_checksum, registers.page_table_root,
                   task.dirty_vma_bytes() if task.vmas else 0)
            cached = cache.get(pid)
            if cached is not None and cached[0] == key:
                blob = cached[1]
                self.pcb_entries_reused += 1
            else:
                blob = dumps((pid,) + key)
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
        device_resume_ns += kernel.dpm.mmio_bytes() * t.mmio_dump_ns_per_byte

        # Ready-to-schedule: TLB flush per core, then kernel tasks first,
        # user tasks second, all flipped back to TASK_NORMAL.
        reschedule_ns = cores * t.tlb_flush_ns
        tasks = kernel.all_tasks()
        ordered = [task for task in tasks if task.kernel_thread]
        ordered += [task for task in tasks if not task.kernel_thread]
        resumed = 0
        resched_ns = t.task_resched_ns
        for task in ordered:
            task.release()
            resumed += 1
            reschedule_ns += resched_ns
        kernel.scheduler.enqueue_balanced(ordered)
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
