"""Top-level platform API: configurations, machines, results."""

from repro.core.config import (
    PLATFORM_NAMES,
    ClockDomain,
    PlatformConfig,
    PlatformName,
    TABLE1,
)
from repro.core.machine import Machine
from repro.core.results import PowerFailOutcome, RunResult

__all__ = [
    "ClockDomain",
    "Machine",
    "PLATFORM_NAMES",
    "PlatformConfig",
    "PlatformName",
    "PowerFailOutcome",
    "RunResult",
    "TABLE1",
]
