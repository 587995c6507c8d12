"""Tests for PCBs, the scheduler, and task state transitions."""

import dataclasses

import pytest

from repro.pecos import (
    Registers,
    RunQueue,
    Scheduler,
    Task,
    TaskFlags,
    TaskState,
    VMA,
    VMAKind,
    balance_assign,
)


class TestTask:
    def test_pids_unique(self):
        a, b = Task(name="a"), Task(name="b")
        assert a.pid != b.pid

    def test_kernel_thread_flag(self):
        t = Task(name="kthread", kernel_thread=True)
        assert TaskFlags.KERNEL_THREAD in t.flags
        assert not t.is_user

    def test_tree_walk(self):
        init = Task(name="init")
        a = init.adopt(Task(name="a"))
        a.adopt(Task(name="a1"))
        init.adopt(Task(name="b"))
        names = [t.name for t in init.walk()]
        assert names == ["init", "a", "a1", "b"]

    def test_sleep_detection(self):
        t = Task(name="t", state=TaskState.INTERRUPTIBLE)
        assert t.is_sleeping
        t.state = TaskState.RUNNING
        assert not t.is_sleeping

    def test_sigpending_and_resched_flags(self):
        t = Task(name="t")
        t.set_sigpending()
        t.set_need_resched()
        assert TaskFlags.SIGPENDING in t.flags
        assert TaskFlags.NEED_RESCHED in t.flags

    def test_lockdown(self):
        t = Task(name="t", state=TaskState.RUNNING)
        t.cpu = 3
        t.set_need_resched()
        t.lockdown()
        assert t.state is TaskState.UNINTERRUPTIBLE
        assert t.cpu is None
        assert TaskFlags.NEED_RESCHED not in t.flags

    def test_release_requires_lockdown(self):
        t = Task(name="t")
        with pytest.raises(RuntimeError):
            t.release()
        t.lockdown()
        t.release()
        assert t.state is TaskState.RUNNABLE

    def test_registers_saved(self):
        t = Task(name="t")
        regs = Registers(pc=0x1000, sp=0x2000, page_table_root=0x3000)
        t.save_registers(regs)
        assert t.registers.pc == 0x1000
        assert t.registers.advanced(4).pc == 0x1004

    def test_vma_dirty_accounting(self):
        vma = VMA(VMAKind.HEAP, start=0, length=4096)
        vma.touch(1000)
        vma.touch(10_000)  # clamps at length
        assert vma.dirty_bytes == 4096
        assert vma.clean() == 4096
        assert vma.dirty_bytes == 0

    def test_task_vma_totals(self):
        t = Task(name="t")
        t.vmas = [
            VMA(VMAKind.HEAP, 0, 4096, dirty_bytes=100),
            VMA(VMAKind.STACK, 8192, 1024, dirty_bytes=50),
        ]
        assert t.total_vma_bytes() == 5120
        assert t.dirty_vma_bytes() == 150


class TestSpawn:
    def test_spawned_tasks_hold_what_the_constructor_gives(self):
        from repro.pecos.kernel import KernelConfig, world_spec
        from repro.pecos.task import spawn

        specs = world_spec(KernelConfig(user_processes=4,
                                        kernel_threads=3)).tasks
        init, reference = Task(name="init"), Task(name="init")
        spawned = spawn(init, specs)
        built = [reference.adopt(Task(
            name, kernel_thread, state, registers=registers,
            vmas=[VMA(*vma) for vma in vmas],
            pending_work_items=pending_work_items))
            for name, kernel_thread, registers, vmas, state,
            pending_work_items in specs]
        assert init.children == spawned
        for task, expected in zip(spawned, built, strict=True):
            assert list(vars(task)) == list(vars(expected))
            assert task == dataclasses.replace(expected, pid=task.pid)
            assert type(task.flags) is TaskFlags
            assert task.parent is init
        pids = [task.pid for task in spawned]
        assert pids == list(range(pids[0], pids[0] + len(pids)))


class TestScheduler:
    def test_enqueue_dequeue(self):
        q = RunQueue(cpu=0)
        t = Task(name="t")
        q.enqueue(t)
        assert t.cpu == 0 and len(q) == 1
        q.dequeue(t)
        assert t.cpu is None and len(q) == 0

    def test_dequeue_missing_raises(self):
        q = RunQueue(cpu=0)
        with pytest.raises(RuntimeError):
            q.dequeue(Task(name="ghost"))

    def test_pop_next_marks_running(self):
        q = RunQueue(cpu=0)
        t = Task(name="t")
        q.enqueue(t)
        popped = q.pop_next()
        assert popped is t and t.state is TaskState.RUNNING
        assert q.pop_next() is None

    def test_balanced_enqueue(self):
        sched = Scheduler(cores=4)
        tasks = [Task(name=f"t{i}") for i in range(10)]
        sched.enqueue_balanced(tasks)
        occupancy = sched.occupancy()
        assert max(occupancy) - min(occupancy) <= 1
        assert sched.runnable_count() == 10

    def test_drain_all(self):
        sched = Scheduler(cores=2)
        sched.enqueue_balanced([Task(name=f"t{i}") for i in range(5)])
        removed = sched.drain_all()
        assert len(removed) == 5
        assert sched.runnable_count() == 0

    def test_core_count_validation(self):
        with pytest.raises(ValueError):
            Scheduler(cores=0)

    def test_balance_assign_round_robin(self):
        tasks = [Task(name=f"t{i}") for i in range(7)]
        buckets = balance_assign(tasks, cores=3)
        assert [len(b) for b in buckets] == [3, 2, 2]

    def test_balance_assign_validation(self):
        with pytest.raises(ValueError):
            balance_assign([], cores=0)
