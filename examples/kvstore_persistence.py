#!/usr/bin/env python3
"""In-memory key-value store surviving crashes — two ways.

The paper's motivation: in-memory databases (Redis, Memcached, ...) want
their data to survive power loss.  The conventional route is PMDK-style
software persistence — objects, persistent pointers, transactions, and
explicit flushes, the very overheads §II-B quantifies.  LightPC's route
is to run *unchanged* on OC-PMEM and let SnG make everything persistent.

This example builds a tiny hash-map KV store both ways:

* :class:`PMDKStore` — on the libpmemobj-like pool, with every update
  wrapped in a durable transaction (the "trans-mode" discipline).  We
  crash it mid-transaction and show recovery rolls back cleanly, and
  tally the software-intervention time the pool's cost model accumulated.
* :class:`LightPCStore` — ordinary bytes in OC-PMEM via the functional
  PSM, zero persistence code.  We pull AC mid-run; SnG's flush + EP-cut
  make the same guarantees with ~no runtime cost.

Run:  python examples/kvstore_persistence.py
"""

import struct
import zlib

from repro.core import Machine
from repro.memory import MemoryOp, MemoryRequest
from repro.pmem import PersistentObjectPool, TransactionAbort
from repro.power.psu import ATX_PSU
from repro.workloads import load_workload

_SLOT = struct.Struct("<16s40s")  # key, value
_BUCKETS = 64


def _bucket(key: str) -> int:
    """A key's bucket: a stable digest, not the per-process salted hash."""
    return zlib.crc32(key.encode()) % _BUCKETS


class PMDKStore:
    """Hash map over a persistent object pool with durable transactions."""

    def __init__(self, pool: PersistentObjectPool) -> None:
        self.pool = pool
        self.root = pool.root(_BUCKETS * _SLOT.size)

    def _slot(self, key: str) -> int:
        return _bucket(key) * _SLOT.size

    def put(self, key: str, value: str) -> None:
        record = _SLOT.pack(key.encode()[:16].ljust(16, b"\x00"),
                            value.encode()[:40].ljust(40, b"\x00"))
        with self.pool.tx_begin():
            self.pool.write(self.root, self._slot(key), record)

    def get(self, key: str) -> str | None:
        raw = self.pool.read(self.root, self._slot(key), _SLOT.size)
        stored_key, value = _SLOT.unpack(raw)
        if stored_key.rstrip(b"\x00").decode() != key:
            return None
        return value.rstrip(b"\x00").decode()


class LightPCStore:
    """The same map as plain bytes in OC-PMEM — no persistence code."""

    BASE = 0x4000  # heap address of the table

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def _address(self, key: str) -> int:
        return self.BASE + _bucket(key) * 64  # one cacheline per slot

    def put(self, key: str, value: str) -> None:
        record = _SLOT.pack(key.encode()[:16].ljust(16, b"\x00"),
                            value.encode()[:40].ljust(40, b"\x00"))
        self.machine.backend.access(MemoryRequest(
            MemoryOp.WRITE, address=self._address(key),
            data=record.ljust(64, b"\x00"), time=0.0))

    def get(self, key: str) -> str | None:
        response = self.machine.backend.access(MemoryRequest(
            MemoryOp.READ, address=self._address(key), time=0.0))
        stored_key, value = _SLOT.unpack(response.data[:_SLOT.size])
        if stored_key.rstrip(b"\x00").decode() != key:
            return None
        return value.rstrip(b"\x00").decode()


def pmdk_route() -> None:
    print("=== route 1: PMDK-style software persistence ===")
    pool = PersistentObjectPool(1 << 20)
    store = PMDKStore(pool)
    store.put("user:1", "alice")
    store.put("user:2", "bob")
    print(f"  stored user:1={store.get('user:1')} user:2={store.get('user:2')}")

    # crash in the middle of an update transaction
    try:
        with pool.tx_begin():
            pool.write(store.root, store._slot("user:1"),
                       _SLOT.pack(b"user:1".ljust(16, b"\x00"),
                                  b"MALLORY".ljust(40, b"\x00")))
            raise KeyboardInterrupt("power yanked mid-transaction")
    except KeyboardInterrupt:
        pass
    pool.crash()
    pool.recover()
    print(f"  after crash mid-tx, user:1={store.get('user:1')!r} "
          f"(rolled back, not MALLORY)")
    print(f"  software-intervention time so far: "
          f"{pool.cost.accumulated_ns / 1e3:.1f} us of pure persistence "
          f"bookkeeping\n")


def lightpc_route() -> None:
    print("=== route 2: LightPC — no persistence code at all ===")
    workload = load_workload("redis", refs=4_000)
    machine = Machine.for_workload("lightpc", workload, functional=True)
    store = LightPCStore(machine)
    store.put("user:1", "alice")
    store.put("user:2", "bob")
    print(f"  stored user:1={store.get('user:1')} user:2={store.get('user:2')}")

    outcome = machine.power_fail(ATX_PSU)
    print(f"  AC pulled: SnG Stop {outcome.stop.total_ms:.2f} ms, "
          f"survived={outcome.survived}")
    machine.recover()
    print(f"  after recovery, user:1={store.get('user:1')!r} "
          f"user:2={store.get('user:2')!r}")
    print("  the store never called a persistence API — the platform did "
          "the work.")


def main() -> None:
    pmdk_route()
    lightpc_route()


if __name__ == "__main__":
    main()
