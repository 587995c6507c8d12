"""Backends and state capture shared by the windowed-drain and extent
flush equivalence suites (``test_batch_equivalence.py``,
``test_extent_equivalence.py``)."""

from __future__ import annotations

import pytest

from repro.memory.dram import DRAMConfig, DRAMSubsystem
from repro.memory.port import AddressRange, AddressRangePartition, FaultInjector
from repro.ocpmem.psm import PSM, PSMConfig
from repro.pmem.controller import NMEMController, PMEMController
from repro.pmem.dimm import PMEMDIMM
from repro.sim.stats import StatsRegistry


@pytest.fixture(params=["numpy"], scope="module", autouse=True)
def case_id_prefix(request):
    """The ``numpy`` prefix is only a case id: the importing suites'
    ids have carried it since they ran once per kernel mode, and keeping
    it keeps them stable.  Nothing here uses or imports numpy."""
    return request.param


def _pmem():
    return PMEMController(
        [PMEMDIMM(capacity=1 << 22), PMEMDIMM(capacity=1 << 22)]
    )


def _psm(**overrides):
    return PSM(PSMConfig(dimms=2, lines_per_dimm=1 << 10, **overrides))


def _track_die_wear(backend, dimms):
    for dimm in dimms:
        for die in dimm.dies:
            die.track_wear = True
    return backend


def _psm_wear():
    psm = _psm()
    psm.wear.track_wear = True
    return psm


def _psm_die_wear():
    psm = _psm()
    return _track_die_wear(psm, psm.nvdimms)


def _pmem_die_wear():
    pmem = _pmem()
    return _track_die_wear(pmem, pmem.dimms)


BACKENDS = {
    "dram": lambda: DRAMSubsystem(DRAMConfig(capacity=1 << 22, ranks=4)),
    "psm": _psm,
    "psm-wear": _psm_wear,
    "psm-die-wear": _psm_die_wear,
    "psm-rotate": lambda: _psm(rotate_seed_every=1, wear_threshold=1),
    "pmem": _pmem,
    "pmem-die-wear": _pmem_die_wear,
    "nmem": lambda: NMEMController(
        DRAMSubsystem(DRAMConfig(capacity=1 << 20, ranks=4)), _pmem()
    ),
}


def injector_partition_chain():
    """injector -> partition -> one PSM per region: the shape the
    compound-fault drills build over a multi-region litmus topology."""
    span = _psm().capacity
    return FaultInjector(AddressRangePartition([
        AddressRange(index * span, (index + 1) * span, _psm())
        for index in range(2)
    ]))


def capacity_of(backend) -> int:
    cap = getattr(backend, "capacity", None)
    if cap is None:
        cap = backend.config.capacity
    return cap if isinstance(cap, int) else backend.config.capacity


def state_of(backend):
    """Everything observable about a backend, comparison-ready."""
    registry = StatsRegistry()
    backend.register_stats(registry.scoped("memory"))
    return (registry.flat(), backend.counters(),
            backend.capture_registers(), wear_of(backend))


def wear_of(backend):
    """Wear state no stats node or register capture shows: Start-Gap's
    per-line write map and rotation count, and every media die's map."""
    start_gap = getattr(backend, "wear", None)
    dimms = getattr(backend, "nvdimms", None)
    if dimms is None:
        dimms = getattr(getattr(backend, "pmem", backend), "dimms", [])
    return (
        None if start_gap is None
        else (dict(start_gap.physical_writes), start_gap.seed_rotations),
        [dict(die.wear) for dimm in dimms for die in dimm.dies],
    )
