"""The trace generator against its stdlib-helper reference.

``TraceGenerator.records`` spells out ``randrange``, ``choice`` and
``expovariate`` as their arithmetic on the bound ``random`` and
``getrandbits`` methods.  :mod:`tests.trace_oracle` keeps the generator
written with the helpers; every stream here must match it record for
record, field types included, and a degenerate profile must raise the
same exception after the same number of records.
"""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.machine import _KERNEL_NOISE_PROFILE
from repro.workloads import WORKLOAD_SPECS
from repro.workloads.trace import LocalityProfile, TraceGenerator, TraceRecord
from tests.trace_oracle import ReferenceTraceGenerator

PROFILES = {name: spec.profile for name, spec in WORKLOAD_SPECS.items()}
PROFILES["kernel-noise"] = _KERNEL_NOISE_PROFILE


@contextmanager
def deadline(seconds: float):
    """Fail instead of hanging where SIGALRM exists (a rejection loop
    that never exits is the failure the degenerate cases guard)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def outcome(generator, count):
    """Records yielded (as typed tuples) and the exception that ended
    the stream early, if any."""
    records = []
    try:
        for record in generator.records(count):
            records.append(tuple((type(v), v) for v in record))
    except (ValueError, ZeroDivisionError) as exc:
        return records, (type(exc), str(exc))
    return records, None


def assert_matches_reference(profile, seed, count, base_address=0,
                             footprint_limit=None):
    args = (profile, seed, base_address, footprint_limit)
    with deadline(10):
        got = outcome(TraceGenerator(*args), count)
    assert got == outcome(ReferenceTraceGenerator(*args), count)
    return got


@pytest.mark.parametrize("footprint_limit", [None, 4096])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_streams_match_reference(name, seed, footprint_limit):
    records, error = assert_matches_reference(
        PROFILES[name], seed, 3000, base_address=(5 << 20) + 8 * seed,
        footprint_limit=footprint_limit)
    assert error is None and len(records) == 3000


def test_zero_base_and_zero_count_match_reference():
    profile = PROFILES["mcf"]
    assert_matches_reference(profile, 3, 2000)
    assert assert_matches_reference(profile, 3, 0) == ([], None)


@settings(max_examples=60, deadline=None)
@given(
    working_set_lines=st.integers(1, 1 << 17),
    hot_share=st.floats(0.0, 1.0),
    hot_fraction=st.floats(0.0, 1.0),
    sequential_run=st.floats(0.5, 64.0),
    sequential_fraction=st.floats(0.0, 1.0),
    write_fraction=st.floats(0.0, 1.0),
    read_after_write=st.floats(0.0, 1.0),
    write_page_locality=st.floats(0.0, 1.0),
    write_line_reuse=st.floats(0.0, 1.0),
    instructions_per_access=st.one_of(
        st.just(0.0), st.floats(0.01, 400.0)),
    seed=st.integers(0, 1 << 20),
    base_address=st.integers(0, 1 << 40),
    footprint_limit=st.one_of(st.none(), st.integers(1, 1 << 22)),
)
def test_any_profile_matches_reference(
        working_set_lines, hot_share, hot_fraction, sequential_run,
        sequential_fraction, write_fraction, read_after_write,
        write_page_locality, write_line_reuse, instructions_per_access,
        seed, base_address, footprint_limit):
    profile = LocalityProfile(
        working_set_lines=working_set_lines,
        hot_lines=max(1, int(working_set_lines * hot_share)),
        hot_fraction=hot_fraction,
        sequential_run=sequential_run,
        sequential_fraction=sequential_fraction,
        write_fraction=write_fraction,
        read_after_write=read_after_write,
        write_page_locality=write_page_locality,
        write_line_reuse=write_line_reuse,
        instructions_per_access=instructions_per_access,
    )
    _, error = assert_matches_reference(
        profile, seed, 600, base_address, footprint_limit)
    assert error is None


#: knobs where ``x / (1.0 / mean)`` (what ``expovariate`` computes) and
#: ``x * mean`` truncate to different integers on an early exponential
#: draw of the seed's stream (found by search): the instruction gap of
#: record 0, and the length of the first sequential run
@pytest.mark.parametrize("seed, knobs", [
    (4, dict(instructions_per_access=7.754068697795927)),
    (3, dict(instructions_per_access=0.0, write_fraction=0.0,
             sequential_fraction=1.0, sequential_run=4.191252609759888)),
])
def test_exponential_draws_divide_by_the_rate(seed, knobs):
    profile = LocalityProfile(working_set_lines=1024, hot_lines=128, **knobs)
    assert_matches_reference(profile, seed, 64)


# -- degenerate profiles: the helpers raise partway through the stream; the
# inlined draws must raise the same way after the same records, not spin
# in a rejection loop over an empty range


#: each case keeps its empty range (or zero run length) off the common
#: paths, so the stream fails partway through, not on record 0; between
#: them they reach every draw site that can see an empty range
DEGENERATE = {
    # the hot draw of a plain read
    "hot_lines=0": (
        LocalityProfile(hot_lines=0, hot_fraction=0.05,
                        sequential_fraction=0.0), None, ValueError),
    # the hot start of a sequential run
    "hot_lines=0,sequential": (
        LocalityProfile(hot_lines=0, hot_fraction=0.05,
                        sequential_fraction=1.0), None, ValueError),
    # a write outside the write page
    "working_set_lines=0": (
        LocalityProfile(working_set_lines=0, hot_lines=0, write_fraction=0.99,
                        write_page_locality=0.98, read_after_write=1.0),
        None, ValueError),
    # a read that is neither read-after-write nor write-page traffic
    "footprint_limit=0": (
        LocalityProfile(write_fraction=0.95, write_page_locality=1.0,
                        read_after_write=0.9), 0, ValueError),
    "sequential_run=0": (
        LocalityProfile(sequential_run=0.0, sequential_fraction=0.02), None,
        ZeroDivisionError),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_profile_raises_like_reference(case):
    profile, footprint_limit, expected = DEGENERATE[case]
    for seed in (0, 1, 7):
        records, error = assert_matches_reference(
            profile, seed, 5000, base_address=1 << 20,
            footprint_limit=footprint_limit)
        assert error is not None and error[0] is expected
        assert 0 < len(records) < 5000


# -- the record type


def test_trace_record_is_an_immutable_named_triple():
    record = TraceRecord(3, 4096, True)
    assert isinstance(record, tuple) and len(record) == 3
    assert record == (3, 4096, True)
    assert TraceRecord._fields == ("instructions", "address", "is_write")
    assert (record.instructions, record.address, record.is_write) == (
        3, 4096, True)
    instructions, address, is_write = record
    assert (instructions, address, is_write) == (3, 4096, True)
    with pytest.raises(AttributeError):
        record.address = 0
    generated = next(iter(TraceGenerator(PROFILES["aes"]).records(1)))
    assert type(generated) is TraceRecord
