"""Tests for the discrete-event simulator under the event-driven Stop/Go
oracle."""

import pytest

from tests.sng_event_oracle import Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_timeout_fires_at_delay():
    sim = Simulator()
    fired = []
    t = sim.timeout(10.0, value="x")
    t.add_callback(lambda e: fired.append((sim.now, e.value)))
    sim.run()
    assert fired == [(10.0, "x")]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_call_at_and_after():
    sim = Simulator()
    log = []
    sim.call_at(7.0, lambda: log.append(("at", sim.now)))
    sim.call_after(3.0, lambda: log.append(("after", sim.now)))
    sim.run()
    assert log == [("after", 3.0), ("at", 7.0)]


def test_call_at_past_rejected():
    sim = Simulator()
    sim.now = 10.0
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_equal_time_events_fire_in_insertion_order():
    sim = Simulator()
    log = []
    for i in range(5):
        sim.call_at(4.0, lambda i=i: log.append(i))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    log = []
    event = sim.call_at(2.0, lambda: log.append("boom"))
    event.cancel()
    sim.run()
    assert log == []
    assert not event.fired


def test_run_until_time_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run(until=50.0)
    assert sim.now == 50.0


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    log = []
    sim.call_at(100.0, lambda: log.append("late"))
    sim.run(until=10.0)
    assert log == []
    sim.run()
    assert log == ["late"]


def test_run_until_event_stops_early():
    sim = Simulator()
    log = []
    marker = sim.call_at(5.0, lambda: log.append("marker"))
    sim.call_at(10.0, lambda: log.append("late"))
    sim.run(until_event=marker)
    assert log == ["marker"]


def test_process_sequences_timeouts():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(3.0)
        log.append(sim.now)
        yield sim.timeout(4.0)
        log.append(sim.now)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert log == [3.0, 7.0]
    assert p.fired and p.value == "done"


def test_process_receives_event_values():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value=42)
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == [42]


def test_processes_can_wait_on_each_other():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(5.0)
        return "child-result"

    def parent():
        result = yield sim.process(child(), name="child")
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(5.0, "child-result")]


def test_process_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_succeed_delivers_value():
    sim = Simulator()
    event = sim.event("manual")
    got = []
    event.add_callback(lambda e: got.append(e.value))
    sim.succeed(event, value="v", delay=2.0)
    sim.run()
    assert got == ["v"] and sim.now == 2.0


def test_callback_after_fire_rejected():
    sim = Simulator()
    event = sim.call_at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        event.add_callback(lambda e: None)


def test_advance_moves_clock():
    sim = Simulator()
    sim.advance(12.5)
    assert sim.now == 12.5


def test_advance_cannot_skip_pending_events():
    sim = Simulator()
    sim.timeout(5.0)
    with pytest.raises(SimulationError):
        sim.advance(10.0)


def test_advance_negative_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.advance(-1.0)


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_max_events_guard():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_drain_waits_for_all_events():
    sim = Simulator()
    a = sim.timeout(3.0)
    b = sim.timeout(9.0)
    sim.drain([a, b])
    assert a.fired and b.fired
    assert sim.now == 9.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.timeout(float(i + 1))
    sim.run()
    assert sim.events_processed == 4


def test_waiting_on_already_fired_event_resumes_immediately():
    sim = Simulator()
    log = []

    def fast():
        yield sim.timeout(1.0)
        return "early"

    def joiner(child):
        yield sim.timeout(10.0)   # child fires long before this
        result = yield child      # must not blow up; resumes at once
        log.append((sim.now, result))

    child = sim.process(fast())
    sim.process(joiner(child))
    sim.run()
    assert log == [(10.0, "early")]


# ---------------------------------------------------------------------------
# edge cases: past scheduling, same-timestamp ordering, mid-yield exits
# ---------------------------------------------------------------------------


def test_schedule_into_past_raises():
    sim = Simulator()
    sim.advance(10.0)
    with pytest.raises(SimulationError):
        sim._schedule(Event(sim, "stale"), when=3.0)


def test_succeed_with_negative_delay_schedules_into_past():
    sim = Simulator()
    sim.advance(5.0)
    with pytest.raises(SimulationError):
        sim.succeed(sim.event("late"), delay=-1.0)


def test_same_timestamp_priority_beats_insertion_order():
    sim = Simulator()
    log = []
    for name, priority in (("low-a", 1), ("high", 0), ("low-b", 1),
                           ("urgent", -1)):
        event = Event(sim, name)
        event.add_callback(lambda _e, name=name: log.append(name))
        sim._schedule(event, when=4.0, priority=priority)
    sim.run()
    assert log == ["urgent", "high", "low-a", "low-b"]


def test_same_timestamp_equal_priority_is_fifo():
    sim = Simulator()
    log = []
    for i in range(6):
        event = Event(sim, f"e{i}")
        event.add_callback(lambda _e, i=i: log.append(i))
        sim._schedule(event, when=2.0, priority=7)
    sim.run()
    assert log == [0, 1, 2, 3, 4, 5]


def test_interrupted_process_does_not_wedge_queue():
    """A process torn down mid-yield must not stall unrelated events."""
    sim = Simulator()
    log = []

    def waiter():
        yield sim.timeout(100.0)
        log.append("waiter-ran")  # must never happen

    proc = sim.process(waiter())
    sim.call_at(1.0, lambda: proc.interrupt())
    sim.call_at(5.0, lambda: log.append("bystander"))
    sim.run()
    assert log == ["bystander"]
    assert not proc.fired


def test_process_exiting_mid_yield_releases_joiners_queue():
    """A generator that returns between yields still fires its Process
    event, so joiners resume instead of waiting forever."""
    sim = Simulator()
    log = []

    def quits_early():
        yield sim.timeout(2.0)
        return "bail"  # exits with a pending sibling timeout outstanding

    def joiner(child):
        result = yield child
        log.append((sim.now, result))

    child = sim.process(quits_early())
    sim.process(joiner(child))
    sim.timeout(50.0)  # unrelated later event; queue must reach it
    sim.run()
    assert log == [(2.0, "bail")]
    assert sim.now == 50.0


def test_cancel_drops_registered_callbacks():
    """cancel() must clear the callback list immediately — a callback
    registered before the cancel can never run, even if the event is
    somehow fired afterwards."""
    sim = Simulator()
    log = []
    event = Event(sim, "doomed")
    event.add_callback(lambda _e: log.append("ran"))
    event.cancel()
    assert event._callbacks == []
    event._fire()  # even a forced fire finds nothing to run
    assert log == []


def test_add_callback_after_cancel_raises():
    """The cancel/add race resolves deterministically: late registration
    is an error, not a silently-dropped (or forever-parked) callback."""
    sim = Simulator()
    event = sim.call_at(2.0, lambda: None)
    event.cancel()
    with pytest.raises(SimulationError):
        event.add_callback(lambda _e: None)
    sim.run()
    assert not event.fired


def test_cancelled_event_releases_callback_references():
    """Cancelling must drop the closures it holds (they pin arbitrary
    object graphs until the queue entry drains otherwise)."""
    import weakref

    class Payload:
        pass

    sim = Simulator()
    payload = Payload()
    ref = weakref.ref(payload)
    event = sim.call_at(1_000_000.0, lambda p=payload: p)
    del payload
    assert ref() is not None  # the callback closure keeps it alive
    event.cancel()
    assert ref() is None


def test_generator_close_during_yield_runs_cleanup():
    sim = Simulator()
    cleaned = []

    def careful():
        try:
            yield sim.timeout(10.0)
        finally:
            cleaned.append(sim.now)

    proc = sim.process(careful())
    sim.call_at(3.0, lambda: proc.interrupt())
    sim.run()
    assert cleaned == [3.0]
