"""PecOS Stop/Go bookkeeping and the stats registry against their references.

:mod:`tests.pecos_oracle` keeps the stats registry, the task, the
scheduler, the device driver and dpm list, signal delivery, the kernel,
SnG and the D$ as they were before warm crash trials were made lean.
Every stream here drives a reference and the current code in lockstep
and demands the same outcome of every step (report fields with their
types, returned values, exception type and message) and the same world
afterwards, down to the digest :func:`world_digest` takes of it.

The kernel streams mix Stop (with right and wrong dirty-line vectors and
out-of-range seizing cores), Go, the resumed-state check, ``reset_world``,
MMIO scribbles, posted signals, VMA and register changes, and state the
dpm chains and Go refuse: wedged drivers and tasks, lost and swapped
DCBs.  The last part of this file holds the reset contract at the
kernel level: ``reset_world`` must leave the digest a fresh, populated
kernel has.
"""

from __future__ import annotations

import dataclasses
import random
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cpu.cache import Cache, CacheConfig
from repro.cpu.core import CoreStats
from repro.memory import DRAMSubsystem
from repro.pecos.device import DCB, DeviceDriver, DevicePMList, DeviceState
from repro.pecos.kernel import Kernel, KernelConfig
from repro.pecos.signals import Signal
from repro.pecos.sng import SnG
from repro.pecos.task import TaskState
from repro.sim.stats import Counter, LatencyStats, RatioStat, StatsRegistry
from repro.workloads.trace_io import open_trace, save_trace_columnar
from tests import pecos_oracle

CURRENT = types.SimpleNamespace(Kernel=Kernel, SnG=SnG)


# -- the world digest ---------------------------------------------------------


def _registers(registers) -> tuple:
    return (type(registers).__name__, registers.pc, registers.sp,
            registers.gpr_checksum, registers.page_table_root)


def world_digest(kernel, sng=None) -> dict:
    """Everything observable about a kernel (and its SnG) but pids.

    Tasks are named by their preorder position under init_task, so the
    run queues, parents and pending signals compare across two kernels
    whose pids differ.
    """
    tasks = list(kernel.init_task.walk())
    at = {id(task): index for index, task in enumerate(tasks)}
    by_pid = {task.pid: index for index, task in enumerate(tasks)}
    digest = {
        "tasks": [
            (task.name, task.kernel_thread, task.state, type(task.flags),
             int(task.flags), _registers(task.registers), task.cpu,
             task.pending_work_items, at.get(id(task.parent)),
             [at[id(child)] for child in task.children],
             [(vma.kind, vma.start, vma.length, vma.dirty_bytes)
              for vma in task.vmas])
            for task in tasks
        ],
        "queues": [(queue.cpu, [at.get(id(task), "stray")
                                for task in queue.tasks()])
                   for queue in kernel.scheduler.run_queues],
        "drivers": [(driver.name, driver.order, driver.state,
                     driver.irq_enabled, driver.mmio_snapshot)
                    for driver in kernel.dpm.drivers],
        "dcbs": [(key, dcb.device, dcb.context_bytes, dcb.mmio_image,
                  dcb.irq_enabled) for key, dcb in kernel.dpm.dcbs.items()],
        "bootloader": (kernel.bootloader._reserved,
                       kernel.bootloader.exception_entries),
        "flags": (kernel.persistent_flag, kernel._populated,
                  hasattr(kernel, "address_spaces")),
    }
    if sng is not None:
        signals = sng.signals
        digest["sng"] = (
            sng.pcb_entries_serialized, sng.pcb_entries_reused,
            sng._pcb_snapshot is None, len(sng._pcb_cache),
            sng.interrupts.master, sng.interrupts.ipis_sent,
            sng.last_stop, sng.last_go,
            [(by_pid.get(pid, "gone"), list(queue))
             for pid, queue in signals._pending.items()],
            [(by_pid.get(record.pid, "gone"), record.signal,
              record.woke_task) for record in signals.delivered],
        )
    return digest


def _typed(values) -> tuple:
    return tuple((type(value), value) for value in values)


def _report(report) -> tuple:
    return type(report).__name__, _typed(dataclasses.astuple(report))


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # a failure is an outcome both must share
        return "raised", type(exc), str(exc)
    return "ok", type(result), result


# -- kernel and SnG streams --------------------------------------------------


class World:
    """One side of the lockstep: a populated kernel and an SnG over stub
    ports whose dirty lines, flush delay and wear blob each Stop sets."""

    def __init__(self, side, config: KernelConfig) -> None:
        self.kernel = side.Kernel(config)
        self.kernel.populate()
        self.dirty: list[int] = []
        self.flush_delta = 0.0
        self.blob = b""
        self.restored: list[bytes] = []
        self.sng = side.SnG(
            self.kernel,
            flush_port=lambda t: t + self.flush_delta,
            dirty_lines_fn=lambda: list(self.dirty),
            capture_hw_state=lambda: self.blob,
            restore_hw_state=self.restored.append,
        )

    def digest(self) -> tuple:
        return world_digest(self.kernel, self.sng), self.restored

    def apply(self, op):
        kind = op[0]
        kernel, sng = self.kernel, self.sng
        if kind == "stop":
            _, at_ns, seized_by, fits, dirty, delta = op
            cores = kernel.config.cores
            self.dirty = (dirty + [0] * cores)[:cores] if fits else dirty
            self.flush_delta = delta
            self.blob = bytes([len(dirty), seized_by & 0xFF])
            return _report(sng.stop(at_ns=at_ns, seized_by=seized_by))
        if kind == "go":
            return _report(sng.go())
        if kind == "verify":
            return sng.verify_resumed_state()
        if kind == "reset":
            return kernel.reset_world()
        tasks = list(kernel.init_task.walk())
        task = tasks[op[1] % len(tasks)]
        drivers = kernel.dpm.drivers
        driver = drivers[op[1] % len(drivers)]
        dcbs = kernel.dpm.dcbs
        if kind == "scribble":
            return driver.scribble_mmio()
        if kind == "signal":
            return sng.signals.post(task, op[2])
        if kind == "fake":
            return sng.signals.post_fake_signal(task)
        if kind == "touch":
            if task.vmas:
                task.vmas[op[2] % len(task.vmas)].touch(op[3])
            return None
        if kind == "advance":
            return task.save_registers(task.registers.advanced(op[2]))
        if kind == "wedge-driver":
            driver.state = op[2]
            return None
        if kind == "wedge-task":
            task.state = op[2]
            return None
        keys = list(dcbs)
        if kind == "lose-dcb":
            if keys:
                del dcbs[keys[op[1] % len(keys)]]
            return None
        assert kind == "swap-dcb"
        if keys:
            a, b = keys[op[1] % len(keys)], keys[op[2] % len(keys)]
            dcbs[a], dcbs[b] = dcbs[b], dcbs[a]
        return None


configs = st.builds(
    KernelConfig,
    cores=st.integers(1, 8),
    user_processes=st.integers(0, 80),
    kernel_threads=st.integers(0, 50),
    sleeping_fraction=st.sampled_from((0.0, 0.6, 1.0)),
    extra_drivers=st.integers(0, 40),
    seed=st.sampled_from((0, 1, 7, 2026)),
)

_index = st.integers(0, 1 << 12)
_stop = st.tuples(
    st.just("stop"), st.sampled_from((0.0, 1_500.0, 2.5e6)),
    st.integers(-1, 8), st.booleans(),
    st.lists(st.integers(0, 400), max_size=9),
    st.sampled_from((0.0, 250.0, -90.0, 40_000.0)),
)
ops = st.one_of(
    _stop, _stop, _stop,
    st.just(("go",)), st.just(("go",)), st.just(("go",)),
    st.just(("verify",)), st.just(("verify",)),
    st.just(("reset",)),
    st.tuples(st.just("scribble"), _index),
    st.tuples(st.just("signal"), _index, st.sampled_from(tuple(Signal))),
    st.tuples(st.just("fake"), _index),
    st.tuples(st.just("touch"), _index, st.integers(0, 2),
              st.integers(1, 1 << 16)),
    st.tuples(st.just("advance"), _index, st.integers(-8, 8)),
    st.tuples(st.just("wedge-driver"), _index,
              st.sampled_from(tuple(DeviceState))),
    st.tuples(st.just("wedge-task"), _index,
              st.sampled_from(tuple(TaskState))),
    st.tuples(st.just("lose-dcb"), _index),
    st.tuples(st.just("swap-dcb"), _index, _index),
)


def run_world_lockstep(config: KernelConfig, steps) -> None:
    reference = World(pecos_oracle, config)
    world = World(CURRENT, config)
    assert world.digest() == reference.digest(), "populated worlds differ"
    for index, op in enumerate(steps):
        expected = _outcome(reference.apply, op)
        got = _outcome(world.apply, op)
        assert got == expected, (index, op)
        assert world.digest() == reference.digest(), (index, op)


@settings(max_examples=120, deadline=None)
@given(config=configs, steps=st.lists(ops, max_size=30))
def test_kernel_streams_match_reference(config, steps):
    run_world_lockstep(config, steps)


@pytest.mark.parametrize("config", [
    KernelConfig(),
    KernelConfig(cores=1, sleeping_fraction=1.0),
    KernelConfig(user_processes=0, kernel_threads=0, extra_drivers=0),
], ids=["default", "one-core-all-asleep", "empty"])
def test_stop_go_cycles_match_reference(config):
    """The crash trial's own chain, repeated, on full-size worlds, with a
    second Stop, a Go without a Stop and a reset between cycles."""
    cores = config.cores
    stop = ("stop", 0.0, 0, True, list(range(3, 3 + cores)), 500.0)
    steps = [stop, ("go",), ("verify",), stop, ("verify",), ("go",),
             ("go",), ("verify",), ("reset",), ("signal", 5, Signal.SIGKILL),
             stop, stop, ("go",), ("verify",), ("touch", 70, 1, 64),
             ("verify",), ("reset",), ("verify",)]
    run_world_lockstep(config, steps)


# -- the dpm chains ------------------------------------------------------------


_costs = st.floats(0.0, 1e5, allow_nan=False)
#: mostly active drivers, so whole chains run as often as refused ones
_driver_states = st.one_of(st.just(DeviceState.ACTIVE),
                           st.sampled_from(tuple(DeviceState)))
driver_specs = st.lists(
    st.tuples(_costs, _costs, _costs, _costs, _costs, _costs, st.booleans(),
              _driver_states, st.booleans()),
    min_size=1, max_size=12,
)


def _dpm(side, specs):
    drivers = []
    for index, (prepare, suspend, noirq, resume_noirq, resume, complete,
                manual, state, scribbled) in enumerate(specs):
        driver = side.DeviceDriver(
            f"d{index}", order=(index * 7) % len(specs),
            prepare_ns=prepare, suspend_ns=suspend,
            suspend_noirq_ns=noirq, resume_noirq_ns=resume_noirq,
            resume_ns=resume, complete_ns=complete, manual=manual,
            mmio_bytes=16 + index)
        driver.state = state
        if scribbled:
            driver.scribble_mmio()
        drivers.append(driver)
    return side.DevicePMList(drivers)


def _dpm_state(dpm) -> tuple:
    return ([(d.name, d.state, d.irq_enabled, d.mmio_snapshot)
             for d in dpm.drivers],
            [(key, dcb.device, dcb.context_bytes, dcb.mmio_image,
              dcb.irq_enabled) for key, dcb in dpm.dcbs.items()])


#: three drivers whose six passes each sum to another total in reverse
_ORDERED = [costs + (False, DeviceState.ACTIVE, False) for costs in (
    (96.7, 6.4, 26.5, 21.1, 20.2, 7.2),
    (81.2, 69.9, 91.4, 97.2, 34.6, 74.2),
    (61.5, 34.3, 20.8, 20.8, 50.3, 31.3),
)]


@settings(max_examples=150, deadline=None)
@example(specs=_ORDERED, chain=["suspend", "resume"], lost=0)
@given(specs=driver_specs,
       chain=st.lists(st.sampled_from(("suspend", "resume") * 3
                                      + ("lose", "reset")),
                      min_size=1, max_size=8),
       lost=_index)
def test_dpm_chains_match_reference(specs, chain, lost):
    """Fractional costs make any change of summation order visible."""
    current = types.SimpleNamespace(DeviceDriver=DeviceDriver,
                                    DevicePMList=DevicePMList)
    sides = (_dpm(pecos_oracle, specs), _dpm(current, specs))
    for step in chain:
        outcomes = []
        for dpm in sides:
            if step == "suspend":
                outcomes.append(_outcome(dpm.suspend_all))
            elif step == "resume":
                outcomes.append(_outcome(dpm.resume_all))
            elif step == "lose":
                keys = list(dpm.dcbs)
                if keys:
                    del dpm.dcbs[keys[lost % len(keys)]]
                outcomes.append(None)
            else:
                for driver in dpm.drivers:
                    driver.reset()
                outcomes.append(None)
        assert outcomes[0] == outcomes[1], step
        assert _dpm_state(sides[1]) == _dpm_state(sides[0]), step


def test_dcb_has_slots():
    dcb = DCB("d", 1, b"x", False)
    assert not hasattr(dcb, "__dict__")
    assert dataclasses.astuple(dcb) == ("d", 1, b"x", False)


# -- the stats registry -----------------------------------------------------


_SEGMENTS = ("a", "a", "b", "b", "c", "x1", "_", "a-b", "", "a\n", "é")
paths = st.lists(st.sampled_from(_SEGMENTS), min_size=1,
                 max_size=3).map(".".join)


def _sources() -> dict:
    latency = LatencyStats("l")
    latency.extend([3.0, 1.0, 2.0])
    counter = Counter()
    counter.add("x", 2)
    return {
        "int": 3, "float": 2.5, "bool": True, "latency": latency,
        "ratio": RatioStat(1, 4), "counter": counter,
        "dict": {"k": 1, "n": {"m": 2.0, "t": False}},
        "callable": lambda: 7, "nested": lambda: {"z": RatioStat(0, 0)},
        "unresolvable": object(),
    }


_SOURCES = _sources()
_view = st.integers(0, 7)
registry_ops = st.one_of(
    st.tuples(st.just("register"), _view, paths,
              st.sampled_from(sorted(_SOURCES))),
    st.tuples(st.just("register"), _view, paths,
              st.sampled_from(sorted(_SOURCES))),
    st.tuples(st.just("register"), _view, paths,
              st.sampled_from(("int", "callable", "latency"))),
    st.tuples(st.just("scoped"), _view, paths),
    st.tuples(st.just("drop"), _view, st.one_of(st.just(""), paths)),
)


def _registry_step(views, op):
    kind, which, arg = op[:3]
    view = views[which % len(views)]
    if kind == "register":
        source = _SOURCES[op[3]]
        return view.register(arg, source) is source
    if kind == "scoped":
        views.append(view.scoped(arg))
        return None
    return view.drop(arg)


def _read(view) -> tuple:
    return (_outcome(view.paths), _outcome(view.snapshot),
            _outcome(view.flat))


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(registry_ops, min_size=1, max_size=40))
def test_registry_streams_match_reference(steps):
    reference = [pecos_oracle.StatsRegistry()]
    views = [StatsRegistry()]
    for index, op in enumerate(steps):
        expected = _outcome(_registry_step, reference, op)
        got = _outcome(_registry_step, views, op)
        assert got == expected, (index, op)
        assert len(views) == len(reference)
        for view, ref in zip(views, reference):
            assert _read(view) == _read(ref), (index, op)


def test_collision_names_first_registered_path():
    registry = StatsRegistry()
    for path in ("a.c", "a.b", "a.d.e"):
        registry.register(path, 1)
    for first in ("a.c", "a.b", "a.d.e"):
        with pytest.raises(ValueError,
                           match=f"'a' collides with registered '{first}'"):
            registry.register("a", 2)
        assert registry.drop(first) == 1
    registry.register("a", 2)
    with pytest.raises(ValueError,
                       match="'a.x.y' collides with registered 'a'"):
        registry.scoped("a").register("x.y", 3)


# -- the D$ dump, a core's exec stats, trace windows ------------------------


cache_ops = st.lists(st.one_of(
    st.tuples(st.just("access"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("access"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("access"), st.integers(0, 63), st.booleans()),
    st.sampled_from((("count",), ("lines",), ("flush",), ("occupancy",),
                     ("invalidate",))),
), max_size=80)


def _cache_step(cache, op):
    kind = op[0]
    if kind == "access":
        return cache.access(op[1] * 64 + 5, op[2])
    if kind == "count":
        return cache.dirty_count()
    if kind == "lines":
        return cache.dirty_lines()
    if kind == "flush":
        return cache.flush_dirty()
    if kind == "occupancy":
        return cache.occupancy
    return cache.invalidate_all()


@settings(max_examples=150, deadline=None)
@given(steps=cache_ops)
def test_cache_dump_matches_reference(steps):
    config = CacheConfig(size_bytes=1024, ways=2)
    reference, cache = pecos_oracle.Cache(config), Cache(config)
    for op in steps:
        assert _cache_step(cache, op) == _cache_step(reference, op), op
        assert [list(ways.items()) for ways in cache._sets] == \
            [list(ways.items()) for ways in reference._sets]


@given(values=st.lists(st.one_of(st.integers(0, 1 << 40),
                                 st.floats(0, 1e9, allow_nan=False)),
                       min_size=8, max_size=8))
def test_core_exec_stats_match_asdict(values):
    stats = CoreStats(*values)
    got = stats.as_dict()
    assert list(got.items()) == list(dataclasses.asdict(stats).items())


def test_trace_windows_match_reference(tmp_path):
    rng = random.Random(5)
    count = 10_000  # windows of several bulk-conversion chunks
    # odd addresses up to 2**64 - 1, so bit 63 is set in about half
    records = [(rng.randrange(1 << 32), rng.randrange(1 << 63) * 2 + 1,
                rng.randrange(2) == 1) for _ in range(count)]
    path = tmp_path / "t.lpct"
    save_trace_columnar(records, path)
    trace = open_trace(path, shared=False)

    def typed(records):
        return [(type(record), _typed(record)) for record in records]

    for lo, hi in ((0, count), (0, 0), (17, 209), (count - 1, count),
                   (1_000, 1_192), (4_095, 8_193)):
        assert typed(trace.window(lo, hi)) == \
            typed(pecos_oracle.iter_range(trace, lo, hi))


# -- the reset contract at the kernel level -------------------------------


RESET_CONFIGS = {
    "default": KernelConfig(),
    "no-tasks": KernelConfig(user_processes=0, kernel_threads=0),
    "no-extra-drivers": KernelConfig(extra_drivers=0),
    "small": KernelConfig(cores=2, user_processes=6, kernel_threads=4,
                          extra_drivers=3),
}


def _fresh_digest(config: KernelConfig) -> dict:
    kernel = Kernel(config)
    kernel.populate()
    return world_digest(kernel)


def _dirty_everything(kernel: Kernel, attach: bool) -> None:
    sng = SnG(kernel, flush_port=lambda t: t + 10.0,
              dirty_lines_fn=lambda: [4] * kernel.config.cores)
    tasks = kernel.all_tasks()
    for driver in kernel.dpm.drivers[::3]:
        driver.scribble_mmio()
    sng.stop(at_ns=100.0)
    sng.go()
    assert sng.verify_resumed_state()
    # every task is runnable now, so a signal wakes nobody off a queue
    for index, task in enumerate(tasks[:9]):
        sng.signals.post(task, (Signal.SIGUSR1, Signal.SIGKILL)[index % 2])
    for driver in kernel.dpm.drivers[1::4]:
        driver.scribble_mmio()
    if attach:
        kernel.attach_address_spaces(DRAMSubsystem(), table_base=1 << 24)
    for task in tasks:
        for vma in task.vmas:
            vma.touch(4096)
    sng.stop()


@pytest.mark.parametrize("name", sorted(RESET_CONFIGS))
def test_reset_world_matches_a_fresh_kernel(name):
    config = RESET_CONFIGS[name]
    kernel = Kernel(config)
    kernel.populate()
    _dirty_everything(kernel, attach=name in ("small", "no-tasks"))
    assert world_digest(kernel) != _fresh_digest(config)
    kernel.reset_world()
    assert world_digest(kernel) == _fresh_digest(config)
    assert not hasattr(kernel, "address_spaces")
    # and again, after a second dirty trial on the reset world
    _dirty_everything(kernel, attach=False)
    kernel.reset_world()
    assert world_digest(kernel) == _fresh_digest(config)


def test_reset_world_keeps_drivers_and_draws_new_pids():
    kernel = Kernel(KernelConfig(user_processes=3, kernel_threads=2))
    kernel.populate()
    drivers = list(kernel.dpm.drivers)
    pids = [task.pid for task in kernel.init_task.walk()]
    kernel.reset_world()
    assert kernel.dpm.drivers == drivers
    assert all(a is b for a, b in zip(kernel.dpm.drivers, drivers))
    fresh = [task.pid for task in kernel.init_task.walk()]
    assert fresh == sorted(fresh) and fresh[0] > pids[-1]
    assert len(fresh) == len(pids)
