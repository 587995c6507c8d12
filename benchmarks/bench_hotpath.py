"""Throughput baseline for the batched memory-access fast path.

Replays a STREAM-derived cacheline request stream through each hot
memory tier twice — once through the scalar ``access`` port (one
``MemoryRequest`` object, one dispatch, one ``MemoryResponse`` per
line) and once through ``access_batch``, whose columnar kernels serve
zero-copy ndarray windows (:meth:`RequestWindow.from_arrays` — the
``.coltrace`` memmap shape) — and reports accesses/second for both, per
tier and in aggregate.

Both runs start from a fresh backend instance and push the identical
request sequence, so the timing work is the same; the measured gap is
pure dispatch-and-object overhead, which is what the batch path exists
to remove (``tests/test_batch_equivalence.py`` guarantees the answers
match).  This is a plain script, not a pytest benchmark::

    python benchmarks/bench_hotpath.py --quick --min-speedup 3

writes ``BENCH_hotpath.json`` and exits non-zero if the aggregate
stream speedup falls below the gate (the CI perf-smoke job runs exactly
that).  Without ``--quick`` the stream is longer and each measurement
is the best of three fresh runs (best of two with ``--quick``); the
per-repeat runs interleave the scalar and batched paths so machine
drift cannot bias the gated ratio.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:
    from repro.memory.batch import RequestWindow, backend_access_batch
except ModuleNotFoundError:  # pragma: no cover - PYTHONPATH already set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.memory.batch import RequestWindow, backend_access_batch

from repro.memory.dram import DRAMSubsystem
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM
from repro.pmem.controller import PMEMController
from repro.pmem.dimm import PMEMDIMM
from repro.workloads.stream import stream_kernel

#: Nominal issue gap between consecutive cacheline misses (ns).  Dense
#: enough that device queues see pressure, sparse enough that backlogs
#: stay bounded; both paths replay the identical timestamps either way.
_ISSUE_GAP_NS = 4.0

_TIERS = {
    "dram": lambda: DRAMSubsystem(),
    "psm": lambda: PSM(),
    "pmem": lambda: PMEMController([PMEMDIMM(), PMEMDIMM()]),
}


def stream_columns(count: int, capacity: int) -> tuple[list[bool], list[int], list[float]]:
    """STREAM triad references as cacheline-granular request columns.

    Triad is the most read-heavy kernel (2 reads : 1 write), which is
    also the shape of post-cache memory traffic.  Addresses are aligned
    down to lines and wrapped into ``capacity`` so the same stream fits
    every tier.
    """
    kernel = stream_kernel("triad", elements=count // 3 + 1)
    lines = (capacity // CACHELINE_BYTES) or 1
    is_write: list[bool] = []
    addresses: list[int] = []
    times: list[float] = []
    t = 0.0
    for record in kernel:
        if len(addresses) == count:
            break
        addresses.append(
            (record.address // CACHELINE_BYTES) % lines * CACHELINE_BYTES
        )
        is_write.append(record.is_write)
        times.append(t)
        t += _ISSUE_GAP_NS
    return is_write, addresses, times


def _run_scalar(backend, columns) -> float:
    """Seconds to serve the stream one ``access`` call at a time."""
    is_write, addresses, times = columns
    access = backend.access
    read, write = MemoryOp.READ, MemoryOp.WRITE
    start = time.perf_counter()
    for w, address, t in zip(is_write, addresses, times):
        access(MemoryRequest(write if w else read, address, time=t))
    return time.perf_counter() - start


def _run_batched(backend, array_columns, window: int) -> float:
    """Seconds to serve the stream through the columnar kernels.

    Windows are zero-copy ndarray slices adopted via ``from_arrays`` —
    the shape a ``.coltrace`` memmap feeds the campaign fast path — so
    the measurement isolates kernel throughput, not column conversion.
    """
    is_write, addresses, times = array_columns
    start = time.perf_counter()
    for lo in range(0, len(addresses), window):
        hi = lo + window
        backend_access_batch(
            backend,
            RequestWindow.from_arrays(
                is_write[lo:hi], addresses[lo:hi], times[lo:hi]
            ),
        )
    return time.perf_counter() - start


def _as_arrays(columns):
    is_write, addresses, times = columns
    return (
        np.asarray(is_write, dtype=np.bool_),
        np.asarray(addresses, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
    )


def measure_tier(name: str, count: int, window: int, repeats: int) -> dict:
    """Best-of-``repeats`` accesses/sec for one tier, scalar vs batched."""
    capacity = _TIERS[name]().capacity if name == "psm" else (1 << 30)
    columns = stream_columns(count, capacity)
    array_columns = _as_arrays(columns)
    # Warm the process before timing: the first kernel invocation pays
    # one-time interpreter costs (lazy numpy sub-imports, bytecode
    # warmup) that would otherwise land on whichever tier runs first.
    head = min(count, 512)
    _run_batched(
        _TIERS[name](), tuple(c[:head] for c in array_columns), window
    )
    # Interleave the per-repeat measurements (scalar, batched, scalar,
    # ...) so slow phases of the machine hit both paths alike;
    # back-to-back blocks would let frequency drift between the blocks
    # masquerade as a speedup change in the gated ratio.
    scalar_s = batched_s = float("inf")
    for _ in range(repeats):
        scalar_s = min(scalar_s, _run_scalar(_TIERS[name](), columns))
        batched_s = min(
            batched_s, _run_batched(_TIERS[name](), array_columns, window)
        )
    return {
        "accesses": count,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "scalar_aps": count / scalar_s,
        "batched_aps": count / batched_s,
        "speedup": scalar_s / batched_s,
    }


def run(count: int, window: int, repeats: int) -> dict:
    tiers = {
        name: measure_tier(name, count, window, repeats) for name in _TIERS
    }
    scalar_total = sum(t["scalar_s"] for t in tiers.values())
    batched_total = sum(t["batched_s"] for t in tiers.values())
    total = count * len(tiers)
    stream = {
        "accesses": total,
        "scalar_aps": total / scalar_total,
        "batched_aps": total / batched_total,
        "speedup": scalar_total / batched_total,
    }
    return {
        "workload": "stream-triad",
        "window": window,
        "repeats": repeats,
        "tiers": tiers,
        "stream": stream,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short stream, single repeat (CI smoke)")
    parser.add_argument("--count", type=int, default=None,
                        help="accesses per tier (default 8000 quick, "
                             "40000 full)")
    parser.add_argument("--window", type=int, default=4096,
                        help="batch window size (default 4096)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N repeats per measurement "
                             "(default 2 quick, 3 full)")
    parser.add_argument("--out", default="BENCH_hotpath.json",
                        help="result file (default BENCH_hotpath.json)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 if aggregate stream speedup is below "
                             "this")
    args = parser.parse_args(argv)

    count = args.count or (8_000 if args.quick else 40_000)
    repeats = args.repeats or (2 if args.quick else 3)
    results = run(count, args.window, repeats)

    print(f"{'tier':<6} {'scalar acc/s':>14} {'batched acc/s':>14} "
          f"{'speedup':>8}")
    stream = results["stream"]
    rows = dict(results["tiers"], stream=stream)
    for name, row in rows.items():
        print(f"{name:<6} {row['scalar_aps']:>14,.0f} "
              f"{row['batched_aps']:>14,.0f} {row['speedup']:>7.2f}x")

    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.min_speedup is not None and stream["speedup"] < args.min_speedup:
        print(f"FAIL: stream speedup {stream['speedup']:.2f}x below gate "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
