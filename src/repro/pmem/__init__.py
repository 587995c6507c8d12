"""Conventional Optane-like PMEM complex: DIMM internals, controllers,
operating modes, and a libpmemobj-like persistent object library."""

from repro.pmem.controller import NMEMController, PMEMController
from repro.pmem.dimm import PMEMDIMM, PMEMDIMMTiming
from repro.pmem.lsq import LoadStoreQueue, LSQEntry
from repro.pmem.modes import (
    MODE_NAMES,
    MemoryBackend,
    ModeSystem,
    SoftwareOverhead,
    build_mode,
)
from repro.pmem.sector import SECTOR_BYTES, SectorDevice, SectorError
from repro.pmem.pmdk import (
    OID_NULL,
    PMDKCostModel,
    PersistentObjectPool,
    PoolCorruptionError,
    TransactionAbort,
    TransactionError,
)

__all__ = [
    "LoadStoreQueue",
    "LSQEntry",
    "MODE_NAMES",
    "MemoryBackend",
    "ModeSystem",
    "NMEMController",
    "OID_NULL",
    "PMDKCostModel",
    "PMEMController",
    "PMEMDIMM",
    "PMEMDIMMTiming",
    "PersistentObjectPool",
    "PoolCorruptionError",
    "SECTOR_BYTES",
    "SectorDevice",
    "SectorError",
    "SoftwareOverhead",
    "TransactionAbort",
    "TransactionError",
    "build_mode",
]
