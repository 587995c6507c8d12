"""Event-driven Stop and Go: the oracle of SnG's closed-form cross-check.

:class:`repro.pecos.sng.SnG` computes Stop's and Go's latencies in closed
form: parallel worker timelines are folded with ``max``, serial chains
are summed.  This module executes the same protocol as concurrent
processes on a small discrete-event simulator: a master process raising
IPIs, worker processes parking tasks and dumping caches, and the dpm
chain as timed steps.  It reports where the simulated clock lands.

``tests/test_sng_events.py`` holds the closed form and this run within a
few percent of each other.  That guards the closed form against ordering
mistakes (say, serializing work the protocol does in parallel) whenever
the timing model changes.  No product path runs this module; it lives
beside ``psm_oracle.py`` and ``pecos_oracle.py`` as a reference.

The simulator is a monotonically advancing clock, a priority queue of
timestamped events, and generator-based processes in the style of SimPy.
Time is a ``float`` in nanoseconds.  ``tests/test_sim_engine.py`` pins
its scheduling semantics.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from repro.pecos.interrupt import IPI_LATENCY_NS
from repro.pecos.kernel import Kernel
from repro.pecos.scheduler import balance_assign
from repro.pecos.sng import SnGTiming

__all__ = [
    "Event",
    "EventGoReport",
    "EventStopReport",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "run_event_driven_go",
    "run_event_driven_stop",
]


# -- the discrete-event simulator -------------------------------------------


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling into the past)."""


@dataclass(order=True)
class _QueueEntry:
    time: float
    priority: int
    seq: int
    event: "Event" = field(compare=False)


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event may carry a ``value`` and a list of callbacks.  Processes that
    ``yield`` an event are resumed with its value when it fires.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.fired = False
        self.cancelled = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.fired:
            raise SimulationError("cannot add a callback to a fired event")
        if self.cancelled:
            raise SimulationError(
                "cannot add a callback to a cancelled event"
            )
        self._callbacks.append(callback)

    def cancel(self) -> None:
        """Prevent the event from firing when popped from the queue.

        Callbacks are dropped immediately: a callback registered before
        the cancel can never run afterwards, and registering one after
        raises — without this, a cancel racing a late ``add_callback``
        left the callback parked on a dead event forever (the silent
        lost-wakeup that hung SnG phase chains), and the cancelled event
        pinned every callback closure until the queue entry drained.
        """
        self.cancelled = True
        self._callbacks.clear()

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay from its creation time."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        super().__init__(sim, name=f"timeout({delay})")
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.value = value
        sim._schedule(self, sim.now + delay)


class Process(Event):
    """A generator-driven simulated process.

    The generator yields :class:`Event` objects (most commonly timeouts) and
    is resumed with each event's value.  The process itself is an event that
    fires with the generator's return value when it finishes, so processes
    can wait on one another.
    """

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        bootstrap = Event(sim, name=f"start:{self.name}")
        bootstrap.add_callback(self._resume)
        sim._schedule(bootstrap, sim.now)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            self.value = stop.value
            self.sim._schedule(self, self.sim.now)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.fired:
            # Waiting on something already done resumes immediately (e.g.
            # a master joining a worker that finished first).
            relay = Event(self.sim, name=f"join:{target.name}")
            relay.value = target.value
            relay.add_callback(self._resume)
            self.sim._schedule(relay, self.sim.now)
        else:
            target.add_callback(self._resume)

    def interrupt(self) -> None:
        """Stop the process without firing it (close the generator)."""
        self._generator.close()
        self.cancel()


class Simulator:
    """Event queue plus clock.

    Events at equal times fire in (priority, insertion) order so runs are
    fully deterministic.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count()
        self.events_processed = 0

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, when: float, priority: int = 0) -> Event:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at {when} (now is {self.now})"
            )
        heapq.heappush(
            self._queue, _QueueEntry(when, priority, next(self._seq), event)
        )
        return event

    def event(self, name: str = "") -> Event:
        """Create an unscheduled event; fire it with :meth:`succeed`."""
        return Event(self, name)

    def succeed(self, event: Event, value: Any = None, delay: float = 0.0) -> Event:
        event.value = value
        return self._schedule(event, self.now + delay)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, generator, name)

    def call_at(self, when: float, fn: Callable[[], None], name: str = "") -> Event:
        """Run ``fn`` at absolute time ``when``."""
        event = Event(self, name or f"call_at({when})")
        event.add_callback(lambda _e: fn())
        return self._schedule(event, when)

    def call_after(self, delay: float, fn: Callable[[], None], name: str = "") -> Event:
        return self.call_at(self.now + delay, fn, name=name)

    # -- execution --------------------------------------------------------

    def step(self) -> float:
        """Fire the next event; returns its timestamp."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        entry = heapq.heappop(self._queue)
        self.now = entry.time
        if not entry.event.cancelled:
            self.events_processed += 1
            entry.event._fire()
        return entry.time

    def run(
        self,
        until: Optional[float] = None,
        until_event: Optional[Event] = None,
        max_events: int = 50_000_000,
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or an event fires.

        ``until`` is an absolute time; the clock is advanced to it even if the
        queue drains earlier, which keeps power-integration windows exact.
        """
        remaining = max_events
        while self._queue:
            if until is not None and self._queue[0].time > until:
                break
            if until_event is not None and until_event.fired:
                return
            self.step()
            remaining -= 1
            if remaining <= 0:
                raise SimulationError("max_events exceeded; runaway simulation?")
        if until is not None and until > self.now:
            self.now = until

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or None."""
        return self._queue[0].time if self._queue else None

    def advance(self, delta: float) -> None:
        """Advance the clock in bulk (trace-driven users).

        Raises if events are pending before the target time: bulk advancing
        must never skip over scheduled work.
        """
        if delta < 0:
            raise SimulationError(f"cannot advance by negative delta {delta}")
        target = self.now + delta
        nxt = self.peek()
        if nxt is not None and nxt < target:
            raise SimulationError(
                f"advance({delta}) would skip event at {nxt}; run() first"
            )
        self.now = target

    def drain(self, events: Iterable[Event]) -> None:
        """Run until every event in ``events`` has fired."""
        pending = [e for e in events if not e.fired]
        for event in pending:
            self.run(until_event=event)


# -- Stop and Go as simulator processes -------------------------------------


@dataclass
class EventStopReport:
    """Phase boundaries observed on the simulated clock."""

    process_stop_ns: float
    device_stop_ns: float
    offline_ns: float
    ipis: int

    @property
    def total_ns(self) -> float:
        return self.process_stop_ns + self.device_stop_ns + self.offline_ns

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6


def run_event_driven_stop(
    kernel: Kernel,
    dirty_lines: list[int],
    timing: Optional[SnGTiming] = None,
    flush_ns: float = 2_000.0,
    master: int = 0,
    flush_port: Optional[Callable[[float], float]] = None,
) -> EventStopReport:
    """Execute Stop as simulator processes; returns measured phase times.

    The kernel world is treated read-only (task states are not mutated) —
    this is a timing validator, not a second implementation of the state
    machine.  ``flush_port`` (``time_ns -> done_ns``, the same surface
    :class:`repro.pecos.sng.SnG` drives — e.g. a real backend's extent
    drain followed by its flush port) supersedes the flat ``flush_ns``
    charge when given, so the validator can ride the same memory model as
    the closed form.
    """
    t = timing or SnGTiming()
    cores = kernel.config.cores
    if len(dirty_lines) != cores:
        raise ValueError(f"need {cores} dirty-line counts")
    sim = Simulator()
    ipis = 0

    # ---- phase 1: Drive-to-Idle as master + worker processes -------------
    tasks = kernel.all_tasks()
    sleeping = [task for task in tasks if task.is_sleeping]
    on_queues = {
        queue.cpu: list(queue.tasks()) for queue in kernel.scheduler.run_queues
    }
    assignments = balance_assign(sleeping, cores)

    def worker_park(cpu: int):
        for task in assignments[cpu]:
            yield sim.timeout(
                t.task_wake_ns + t.task_park_ns
                + task.pending_work_items * t.pending_work_ns
            )
        for _task in on_queues.get(cpu, []):
            yield sim.timeout(t.task_park_ns)

    def drive_to_idle():
        nonlocal ipis
        # master traverses every PCB, masking and assigning as it goes
        yield sim.timeout(len(tasks) * t.pcb_visit_ns)
        workers = []
        for cpu in range(cores):
            if assignments[cpu] or on_queues.get(cpu):
                ipis += 1
                workers.append(sim.process(worker_park(cpu),
                                           name=f"park@cpu{cpu}"))
        for worker in workers:
            yield worker
        yield sim.timeout(t.idle_place_ns)

    phase1 = sim.process(drive_to_idle(), name="drive-to-idle")
    sim.run(until_event=phase1)
    process_stop_end = sim.now

    # ---- phase 2: Auto-Stop device stop (serialized dpm walk) -------------

    def device_stop():
        for driver in kernel.dpm.drivers:
            yield sim.timeout(driver.prepare_ns)
        for driver in kernel.dpm.drivers:
            cost = driver.suspend_ns * (1.5 if driver.manual else 1.0)
            yield sim.timeout(cost)
        for driver in kernel.dpm.drivers:
            yield sim.timeout(driver.suspend_noirq_ns)
            yield sim.timeout(driver.mmio_bytes * t.mmio_dump_ns_per_byte)
        # the master dumps its own cache after writing the DCBs
        yield sim.timeout(dirty_lines[master] * t.cacheline_flush_ns)

    phase2 = sim.process(device_stop(), name="device-stop")
    sim.run(until_event=phase2)
    device_stop_end = sim.now

    # ---- phase 3: offline — serialized IPI chain, concurrent dumps --------
    dumps: list[Event] = []

    def worker_dump(cpu: int):
        yield sim.timeout(dirty_lines[cpu] * t.cacheline_flush_ns)

    def offline():
        nonlocal ipis
        for cpu in range(cores):
            if cpu == master:
                continue
            ipis += 1
            yield sim.timeout(IPI_LATENCY_NS)
            dumps.append(sim.process(worker_dump(cpu), name=f"dump@cpu{cpu}"))
            yield sim.timeout(t.core_offline_ns)  # ready-report handshake
        for dump in dumps:
            yield dump
        yield sim.timeout(kernel.bootloader.BCB_STORE_NS)
        yield sim.timeout(kernel.bootloader.COMMIT_STORE_NS)
        if flush_port is not None:  # PSM flush port, real memory model
            yield sim.timeout(max(0.0, flush_port(sim.now) - sim.now))
        else:
            yield sim.timeout(flush_ns)  # PSM flush port, flat charge
        yield sim.timeout(t.core_offline_ns)  # the master goes last

    phase3 = sim.process(offline(), name="offline")
    sim.run(until_event=phase3)

    return EventStopReport(
        process_stop_ns=process_stop_end,
        device_stop_ns=device_stop_end - process_stop_end,
        offline_ns=sim.now - device_stop_end,
        ipis=ipis,
    )


@dataclass
class EventGoReport:
    """Go's phase boundaries on the simulated clock."""

    bcb_restore_ns: float
    core_online_ns: float
    device_resume_ns: float
    reschedule_ns: float

    @property
    def total_ns(self) -> float:
        return (self.bcb_restore_ns + self.core_online_ns
                + self.device_resume_ns + self.reschedule_ns)


def run_event_driven_go(
    kernel: Kernel,
    timing: Optional[SnGTiming] = None,
) -> EventGoReport:
    """Execute Go as simulator processes; returns measured phase times.

    Like :func:`run_event_driven_stop`, a timing validator: the bootloader
    check, the one-by-one worker power-up, the inverse-order dpm resume,
    and the reschedule pass run as processes, and the phase boundaries
    must agree with :meth:`repro.pecos.sng.SnG.go`'s closed form.
    """
    t = timing or SnGTiming()
    cores = kernel.config.cores
    sim = Simulator()

    def bcb_restore():
        yield sim.timeout(kernel.bootloader.BCB_LOAD_NS)

    phase0 = sim.process(bcb_restore(), name="bcb-restore")
    sim.run(until_event=phase0)
    bcb_end = sim.now

    def power_up():
        for _cpu in range(cores - 1):
            yield sim.timeout(t.core_online_ns + IPI_LATENCY_NS)
        yield sim.timeout(t.core_online_ns)  # the master reconfigures last

    phase1 = sim.process(power_up(), name="power-up")
    sim.run(until_event=phase1)
    online_end = sim.now

    def device_resume():
        for driver in reversed(kernel.dpm.drivers):
            yield sim.timeout(driver.resume_noirq_ns)
        for driver in reversed(kernel.dpm.drivers):
            yield sim.timeout(driver.resume_ns)
        for driver in reversed(kernel.dpm.drivers):
            yield sim.timeout(driver.complete_ns)
        mmio = sum(d.mmio_bytes for d in kernel.dpm.drivers)
        yield sim.timeout(mmio * t.mmio_dump_ns_per_byte)

    phase2 = sim.process(device_resume(), name="device-resume")
    sim.run(until_event=phase2)
    resume_end = sim.now

    def reschedule():
        yield sim.timeout(cores * t.tlb_flush_ns)
        for _task in kernel.all_tasks():
            yield sim.timeout(t.task_resched_ns)

    phase3 = sim.process(reschedule(), name="reschedule")
    sim.run(until_event=phase3)

    return EventGoReport(
        bcb_restore_ns=bcb_end,
        core_online_ns=online_end - bcb_end,
        device_resume_ns=resume_end - online_end,
        reschedule_ns=sim.now - resume_end,
    )
