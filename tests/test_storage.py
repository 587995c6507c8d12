"""Block storage of the device models against a per-byte reference.

``_Storage`` keeps a device's bytes in 64 B blocks allocated on first
write.  ``tests.psm_oracle._Storage`` is the per-byte dict it replaced;
every operation stream here must give both the same bytes, the same
exceptions and the same "has data" state, which is what gates
``PRAMDevice.read`` and ``DRAMDevice.access`` returning bytes at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.device import DRAMDevice, PRAMDevice, _Storage
from repro.memory.request import AddressSpaceError
from tests import psm_oracle

CAPACITIES = (256, 300, 64 * 5 + 17)

#: addresses cluster on block edges, where the blocks split a request
_edge = st.sampled_from((0, 1, 31, 32, 63, 64, 65, 127, 128, 191, 192, 255))
_address = st.one_of(_edge, st.integers(-3, 330))
_size = st.one_of(st.sampled_from((0, 1, 8, 32, 63, 64, 65, 128, 129)),
                  st.integers(-2, 200))

_data = st.one_of(st.binary(min_size=0, max_size=150),
                  st.binary(min_size=64, max_size=64))  # whole blocks

_op = st.one_of(
    st.tuples(st.just("write"), _address, _data),
    st.tuples(st.just("read"), _address, _size),
    st.tuples(st.just("wipe"), st.just(0), st.just(0)),
)


def _apply(storage, op):
    kind, address, arg = op
    try:
        if kind == "write":
            storage.write(address, arg)
            result = None
        elif kind == "read":
            result = storage.read(address, arg)
        else:
            storage.wipe()
            result = None
    except Exception as exc:  # the reference's failures are outcomes
        return ("raised", type(exc), str(exc))
    return (type(result), result, bool(storage._bytes))


@pytest.mark.parametrize("capacity", CAPACITIES)
@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=40))
def test_streams_match_per_byte_reference(capacity, ops):
    blocks = _Storage(capacity)
    reference = psm_oracle._Storage(capacity)
    for index, op in enumerate(ops):
        assert _apply(blocks, op) == _apply(reference, op), (index, op)
    # every byte of the device reads back the same, never-written as zero
    assert blocks.read(0, capacity) == reference.read(0, capacity)


def test_unwritten_bytes_read_as_zero_across_blocks():
    storage = _Storage(512)
    storage.write(60, b"\xAA" * 10)
    assert storage.read(0, 200) == bytes(60) + b"\xAA" * 10 + bytes(130)
    assert sorted(storage._bytes) == [0, 1]


def test_capacity_edge():
    storage = _Storage(100)
    storage.write(90, bytes(range(10)))
    assert storage.read(96, 4) == bytes(range(6, 10))
    with pytest.raises(AddressSpaceError):
        storage.write(95, bytes(6))
    with pytest.raises(AddressSpaceError):
        storage.read(-1, 2)
    assert storage.read(100, 0) == b""
    assert storage.read(64, -1) == b""  # inside a written block too


def test_empty_write_stores_nothing():
    storage = _Storage(128)
    storage.write(64, b"")
    assert not storage._bytes
    storage.write(64, bytes(1))  # a written zero is still data
    assert storage._bytes


def test_devices_return_bytes_only_once_written():
    die = PRAMDevice(capacity=256)
    assert die.read(0.0, 0, 32)[1] is None
    die.write(0.0, 200, data=b"\x07" * 8)
    assert die.read(1e6, 0, 32)[1] == bytes(32)
    die.storage.wipe()
    assert die.read(2e6, 0, 32)[1] is None

    bank = DRAMDevice(capacity=256)
    assert bank.access(0.0, 8, 8, is_write=False, row_hit=True)[1] is None
    bank.access(0.0, 8, 8, is_write=True, row_hit=True, data=b"\x01" * 8)
    assert bank.access(1e3, 8, 8, is_write=False,
                       row_hit=True)[1] == b"\x01" * 8
    bank.power_cycle()  # volatile: the contents, and so the data, go
    assert bank.access(2e3, 8, 8, is_write=False, row_hit=True)[1] is None
