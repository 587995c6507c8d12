"""Zero-copy and caching contracts of the columnar window layer.

``RequestWindow.subwindow`` promises ndarray columns slice into *views*
(aliasing the parent's memory) while list columns shallow-copy;
``RequestWindow.from_arrays`` adopts matching-dtype buffers without
copying; ``ResponseWindow.latencies`` computes its column once and hands
back the same object; ``ResponseWindow`` indexing bounds-checks like the
scalar path's response list; ``LatencyStats.record_many`` on an ndarray
must be observationally identical to the scalar ``record`` loop.  These
are the load-bearing assumptions of the columnar kernels and the
campaign fast path, so they get pinned here rather than implied by the
equivalence suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.batch import RequestWindow, ResponseWindow
from repro.sim.stats import LatencyStats


def _list_window(n: int = 16) -> RequestWindow:
    return RequestWindow(
        [i % 3 == 0 for i in range(n)],
        [i * 64 for i in range(n)],
        [float(i) * 10.0 for i in range(n)],
    )


def _array_window(n: int = 16) -> RequestWindow:
    w = np.asarray([i % 3 == 0 for i in range(n)], dtype=np.bool_)
    a = np.arange(n, dtype=np.int64) * 64
    t = np.arange(n, dtype=np.float64) * 10.0
    return RequestWindow.from_arrays(w, a, t)


def test_from_arrays_adopts_matching_dtypes_without_copy():
    a = np.arange(8, dtype=np.int64) * 64
    t = np.arange(8, dtype=np.float64)
    w = np.zeros(8, dtype=np.bool_)
    window = RequestWindow.from_arrays(w, a, t)
    assert window.addresses is a
    assert window.times is t
    assert window.is_write is w
    # The ndarray mirror is the very same objects — arrays() is free.
    assert window.arrays() == (w, a, t)
    assert window.arrays()[1] is a


def test_subwindow_of_array_window_aliases_parent_memory():
    window = _array_window(16)
    sub = window.subwindow(4, 12)
    assert len(sub) == 8
    assert np.shares_memory(sub.addresses, window.addresses)
    assert np.shares_memory(sub.times, window.times)
    # The cached mirror slices into views too.
    sub_arrays = sub.arrays()
    assert np.shares_memory(sub_arrays[1], window.arrays()[1])
    assert sub.addresses.tolist() == window.addresses.tolist()[4:12]


def test_subwindow_of_list_window_copies_shallowly():
    window = _list_window(16)
    sub = window.subwindow(4, 12)
    assert sub.addresses == window.addresses[4:12]
    sub.addresses[0] = 0xDEAD
    assert window.addresses[4] == 4 * 64  # parent untouched


def test_replace_addresses_rebases_without_writing_through_views():
    window = _array_window(16)
    before = window.addresses.copy()
    sub = window.subwindow(0, 8)
    sub.replace_addresses(sub.addresses + 4096)
    # Rebasing replaced the column object; the parent's memory (which
    # the original subwindow columns aliased) must be untouched.
    assert window.addresses.tolist() == before.tolist()
    assert sub.addresses.tolist() == (before[:8] + 4096).tolist()
    assert sub.arrays()[1].tolist() == sub.addresses.tolist()


def test_request_at_coerces_ndarray_scalars_to_builtins():
    window = _array_window(4)
    request = window.request_at(1)
    assert type(request.address) is int
    assert type(request.time) is float


def test_arrays_cached_and_mirrors_list_columns():
    window = _list_window(8)
    first = window.arrays()
    assert window.arrays() is first
    assert first[1].tolist() == window.addresses
    assert first[2].tolist() == window.times


def test_latencies_cached_column_ndarray():
    window = _array_window(8)
    complete = window.arrays()[2] + 25.0
    responses = ResponseWindow(window, complete, complete, complete * 0.0)
    column = responses.latencies()
    assert isinstance(column, np.ndarray)
    assert responses.latencies() is column
    assert column.tolist() == [25.0] * 8
    assert [r.latency for r in responses] == column.tolist()


def test_getitem_bounds_match_a_response_list():
    window = _list_window(3)
    complete = [t + 5.0 for t in window.times]
    responses = ResponseWindow(window, complete, complete, [0.0] * 3)
    as_list = list(responses)
    for index in (-3, -1, 0, 2):
        assert repr(responses[index]) == repr(as_list[index])
    for index in (-5, -4, 3, 4):
        with pytest.raises(IndexError):
            as_list[index]
        with pytest.raises(IndexError):
            responses[index]


def test_latencies_cached_column_list_fallback():
    window = _list_window(8)
    complete = [t + 30.0 for t in window.times]
    responses = ResponseWindow(window, complete, complete, [0.0] * 8)
    column = responses.latencies()
    assert isinstance(column, list)
    assert responses.latencies() is column
    assert column == [30.0] * 8


def test_record_many_ndarray_identical_to_scalar_loop():
    rng = np.random.default_rng(7)
    values = rng.uniform(10.0, 500.0, size=20000)
    scalar = LatencyStats(capacity=256)
    for value in values.tolist():
        scalar.record(value)
    bulk = LatencyStats(capacity=256)
    bulk.record_many(values)
    assert bulk.count == scalar.count
    assert bulk.total == scalar.total
    assert bulk.total_sq == scalar.total_sq
    assert bulk.min == scalar.min
    assert bulk.max == scalar.max
    assert bulk._reservoir == scalar._reservoir
    assert bulk._cursor == scalar._cursor
    assert bulk._stride == scalar._stride
    assert bulk._skip == scalar._skip


def test_record_many_sequence_identical_to_scalar_loop():
    import random

    rng = random.Random(11)
    values = [rng.uniform(10.0, 500.0) for _ in range(5000)]
    scalar = LatencyStats(capacity=128)
    for value in values:
        scalar.record(value)
    bulk = LatencyStats(capacity=128)
    bulk.record_many(values)
    assert bulk.count == scalar.count
    assert bulk.total == scalar.total
    assert bulk._reservoir == scalar._reservoir
    assert bulk._stride == scalar._stride


def test_summarize_responses_consumes_cached_column():
    from repro.engine.columnar import summarize_responses

    window = _array_window(8)
    complete = window.arrays()[2] + 40.0
    blocked = np.zeros(8, dtype=np.float64)
    responses = ResponseWindow(window, complete, complete, blocked)
    summary = summarize_responses(responses)
    assert summary.responses == 8
    assert summary.latency_total == 8 * 40.0
    assert summary.latency_min == 40.0 == summary.latency_max
    # The summarizer consumed the cached column itself, not a copy.
    assert responses.latencies() is responses._latencies
