"""Tests for the libpmemobj-like object library."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pmem import (
    OID_NULL,
    PersistentObjectPool,
    PoolCorruptionError,
    TransactionAbort,
    TransactionError,
)

POOL_CAPACITY = 1 << 20


class TestPoolBasics:
    def test_root_created_once(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        root = pool.root(128)
        assert root != OID_NULL
        assert pool.root(128) == root

    def test_root_regrow_rejected(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        pool.root(64)
        with pytest.raises(ValueError):
            pool.root(128)

    def test_alloc_distinct_oids(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        a = pool.alloc(100)
        b = pool.alloc(100)
        assert a != b
        assert pool.size_of(a) == 100

    def test_write_read_roundtrip(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        pool.write(oid, 0, b"hello")
        assert pool.read(oid, 0, 5) == b"hello"

    def test_bounds_enforced(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(8)
        with pytest.raises(ValueError):
            pool.write(oid, 4, b"too-long")
        with pytest.raises(ValueError):
            pool.read(oid, 0, 9)

    def test_null_and_unknown_oid_rejected(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        with pytest.raises(ValueError):
            pool.direct(OID_NULL)
        with pytest.raises(ValueError):
            pool.direct(12345)

    def test_heap_exhaustion(self):
        pool = PersistentObjectPool(1 << 17)
        with pytest.raises(MemoryError):
            pool.alloc(1 << 18)

    def test_cost_model_accumulates(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        before = pool.cost.accumulated_ns
        pool.read(oid, 0, 8)
        assert pool.cost.accumulated_ns > before


class TestCrashSemantics:
    def test_unpersisted_write_lost_on_crash(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        pool.write(oid, 0, b"volatile")
        pool.crash()
        pool.recover()
        assert pool.read(oid, 0, 8) == bytes(8)

    def test_persisted_write_survives_crash(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        pool.write(oid, 0, b"durable!")
        pool.persist(oid, 64)
        pool.crash()
        pool.recover()
        assert pool.read(oid, 0, 8) == b"durable!"

    def test_allocations_survive_crash(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        pool.crash()
        pool.recover()
        # header is persisted at alloc time, so the heap pointer is intact
        new = pool.alloc(64)
        assert new > oid


class TestTransactions:
    def test_commit_is_durable(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        with pool.tx_begin():
            pool.write(oid, 0, b"committed")
        pool.crash()
        pool.recover()
        assert pool.read(oid, 0, 9) == b"committed"

    def test_crash_mid_tx_rolls_back(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        pool.write(oid, 0, b"origin")
        pool.persist(oid, 64)
        pool.tx_begin()
        pool.write(oid, 0, b"newval")
        pool.persist(oid, 64)  # even persisted tx data must roll back
        pool.crash()
        pool.recover()
        assert pool.read(oid, 0, 6) == b"origin"

    def test_explicit_abort_rolls_back(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        pool.write(oid, 0, b"origin")
        pool.persist(oid, 64)
        with pool.tx_begin():
            pool.write(oid, 0, b"newval")
            raise TransactionAbort()
        assert pool.read(oid, 0, 6) == b"origin"

    def test_exception_propagates_but_rolls_back(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        pool.write(oid, 0, b"origin")
        pool.persist(oid, 64)
        with pytest.raises(RuntimeError):
            with pool.tx_begin():
                pool.write(oid, 0, b"newval")
                raise RuntimeError("boom")
        assert pool.read(oid, 0, 6) == b"origin"

    def test_nested_tx_rejected(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        pool.tx_begin()
        with pytest.raises(TransactionError):
            pool.tx_begin()

    def test_log_overflow_detected(self):
        pool = PersistentObjectPool(POOL_CAPACITY, log_bytes=256)
        oid = pool.alloc(1024)
        with pytest.raises(TransactionError):
            with pool.tx_begin():
                for i in range(16):
                    pool.write(oid, i * 64, bytes(64))
                    # force distinct undo records
                    pool._tx_ranges.clear()

    def test_multiple_commits_in_sequence(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        for value in (b"one", b"two"):
            with pool.tx_begin():
                pool.write(oid, 0, value.ljust(8, b"\x00"))
        pool.crash()
        pool.recover()
        assert pool.read(oid, 0, 3) == b"two"

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 7), st.binary(min_size=8, max_size=8)),
                    min_size=1, max_size=8),
           st.booleans())
    def test_tx_atomicity_property(self, writes, crash_before_commit):
        """After a crash, the object reflects either all of the transaction
        or none of it — never a mix."""
        pool = PersistentObjectPool(POOL_CAPACITY)
        oid = pool.alloc(64)
        baseline = bytes(range(64))
        pool.write(oid, 0, baseline)
        pool.persist(oid, 64)

        tx = pool.tx_begin()
        image = bytearray(baseline)
        for slot, payload in writes:
            pool.write(oid, slot * 8, payload)
            image[slot * 8: slot * 8 + 8] = payload
        if crash_before_commit:
            pool.crash()
            pool.recover()
            assert pool.read(oid, 0, 64) == baseline
        else:
            tx.__exit__(None, None, None)
            pool.crash()
            pool.recover()
            assert pool.read(oid, 0, 64) == bytes(image)


class TestPoolValidation:
    def test_bad_magic_detected(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        pool._media[0:8] = b"GARBAGE!"
        with pytest.raises(PoolCorruptionError):
            pool.recover()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PersistentObjectPool(1024)

    def test_objects_enumeration(self):
        pool = PersistentObjectPool(POOL_CAPACITY)
        a = pool.alloc(10)
        b = pool.alloc(20)
        assert dict(pool.objects()) == {a: 10, b: 20}
