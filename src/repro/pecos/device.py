"""Device drivers and the dpm (device power management) framework.

Auto-Stop suspends peripherals through the standard dpm callback chain —
``dpm_prepare()`` (block probes), ``dpm_suspend()`` (quiesce I/O, disable
interrupts, power down), ``dpm_suspend_noirq()`` (store device state) —
walking ``dpm_list`` in dependency order; Go resumes them in inverse
order via ``dpm_resume_noirq()``/``dpm_resume()``/``dpm_complete()``
(paper §IV-B, Fig. 10).  Device state and memory-mapped peripheral
regions are snapshotted into Device Control Blocks (DCBs).

Device stop is the single largest share of SnG's Stop latency (~38% when
busy, Fig. 8b), so per-callback costs here are first-class quantities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter
from typing import Optional

__all__ = [
    "DCB",
    "DeviceDriver",
    "DevicePMError",
    "DevicePMList",
    "DeviceState",
    "default_dpm_list",
]


#: one period of the MMIO fill pattern: a device's image is this ramp
#: rotated to its name-derived first byte, repeated to the region size
_RAMP = bytes(range(256))


class DevicePMError(RuntimeError):
    """Callback invoked out of the dpm-regulated order."""


class DeviceState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    SUSPENDED = "suspended"
    SUSPENDED_NOIRQ = "noirq"
    OFF = "off"


_ACTIVE = DeviceState.ACTIVE
_PREPARED = DeviceState.PREPARED
_SUSPENDED = DeviceState.SUSPENDED
_SUSPENDED_NOIRQ = DeviceState.SUSPENDED_NOIRQ

_PREPARE_NS = attrgetter("prepare_ns")
_SUSPEND_NOIRQ_NS = attrgetter("suspend_noirq_ns")
_RESUME_NOIRQ_NS = attrgetter("resume_noirq_ns")
_RESUME_NS = attrgetter("resume_ns")
_COMPLETE_NS = attrgetter("complete_ns")


@dataclass(frozen=True, slots=True)
class DCB:
    """Device control block: the persistent snapshot of one device.

    Immutable, so a driver can hand the same block to every Stop that
    finds its MMIO image unchanged.
    """

    device: str
    context_bytes: int
    mmio_image: bytes
    irq_enabled: bool


@dataclass
class DeviceDriver:
    """One entry of dpm_list with its callback costs.

    ``order`` encodes the dependency position dpm regulates; suspension
    walks ascending order, resume walks descending.  The callbacks
    themselves run as passes of :meth:`DevicePMList.suspend_all` and
    :meth:`DevicePMList.resume_all`.
    """

    name: str
    order: int
    #: callback latencies, nanoseconds
    prepare_ns: float = 2_500.0
    suspend_ns: float = 14_000.0
    suspend_noirq_ns: float = 4_000.0
    resume_noirq_ns: float = 3_500.0
    resume_ns: float = 9_000.0
    complete_ns: float = 1_500.0
    #: device context + MMIO region dumped into the DCB
    context_bytes: int = 512
    mmio_bytes: int = 256
    #: SPI/GPIO-style peripherals need manual handling (extra cost)
    manual: bool = False

    state: DeviceState = DeviceState.ACTIVE
    irq_enabled: bool = True
    _mmio: bytes = field(default=b"", repr=False)
    #: the DCB of the last suspend, reused while the MMIO image is the
    #: one it holds
    _dcb: Optional[DCB] = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self) -> None:
        seed = sum(self.name.encode()) & 0xFF
        period = _RAMP[seed:] + _RAMP[:seed]
        size = self.mmio_bytes
        #: the name-derived MMIO image (bytes are immutable, so the live
        #: image shares it until a write replaces it)
        self._pristine_mmio = (period * ((size + 255) // 256))[:size]
        if not self._mmio:
            self._mmio = self._pristine_mmio

    def reset(self) -> None:
        """Rewind to the just-constructed state (``Kernel.reset_world``).

        Everything mutable is rewound: power state, IRQ masking, and
        the MMIO image (back to the name-derived pattern, so a trial's
        ``scribble_mmio`` churn does not leak into the next)."""
        self.state = DeviceState.ACTIVE
        self.irq_enabled = True
        self._mmio = self._pristine_mmio

    @property
    def mmio_snapshot(self) -> bytes:
        return self._mmio

    def scribble_mmio(self) -> None:
        """Simulate runtime MMIO churn (so restore is observable)."""
        self._mmio = bytes((b + 1) & 0xFF for b in self._mmio)


class DevicePMList:
    """dpm_list: drivers in dependency order plus the DCB store."""

    def __init__(self, drivers: list[DeviceDriver]) -> None:
        names = [d.name for d in drivers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate driver names in dpm_list")
        self.drivers = sorted(drivers, key=lambda d: d.order)
        self.dcbs: dict[str, DCB] = {}

    def __len__(self) -> int:
        return len(self.drivers)

    def reset(self) -> None:
        """Rewind every driver to its constructed state; drop the DCBs.

        A completed Stop/Go cycle leaves most drivers as constructed
        already, and those are left alone.
        """
        for driver in self.drivers:
            if (driver.state is not _ACTIVE or driver.irq_enabled is not True
                    or driver._mmio is not driver._pristine_mmio):
                driver.reset()
        self.dcbs.clear()

    def mmio_bytes(self) -> int:
        """The MMIO bytes a full dump or restore moves."""
        return sum([driver.mmio_bytes for driver in self.drivers])

    # Each chain prices its passes in dpm order, one pass after another,
    # as the Linux callbacks they stand for run.  Only a chain's first
    # pass can find a driver in the wrong state: it leaves every driver
    # in the state the next pass needs.  A refused driver stops the
    # chain with a DevicePMError naming the pass, the drivers before it
    # already moved.

    def suspend_all(self) -> float:
        """Run the full suspend chain in dpm order; returns total ns."""
        drivers = self.drivers
        for driver in drivers:  # dpm_prepare
            if driver.state is not _ACTIVE:
                raise DevicePMError(
                    f"{driver.name}: prepare from {driver.state}")
            driver.state = _PREPARED
        total = reduce(add, map(_PREPARE_NS, drivers), 0.0)
        total = reduce(add, [  # dpm_suspend; SPI/GPIO quiesce by hand
            driver.suspend_ns * 1.5 if driver.manual else driver.suspend_ns
            for driver in drivers], total)
        total = reduce(add, map(_SUSPEND_NOIRQ_NS, drivers), total)
        dcbs = self.dcbs
        for driver in drivers:  # dpm_suspend, then dpm_suspend_noirq
            driver.irq_enabled = False
            driver.state = _SUSPENDED_NOIRQ
            dcb = driver._dcb
            if dcb is None or dcb.mmio_image is not driver._mmio:
                dcb = driver._dcb = DCB(driver.name, driver.context_bytes,
                                        driver._mmio, False)
            dcbs[driver.name] = dcb
        return total

    def resume_all(self) -> float:
        """Inverse-order resume chain from the stored DCBs."""
        backwards = self.drivers[::-1]
        dcbs = self.dcbs
        for driver in backwards:  # dpm_resume_noirq
            name = driver.name
            dcb = dcbs.get(name)
            if dcb is None:
                raise DevicePMError(f"no DCB stored for {name}")
            if driver.state is not _SUSPENDED_NOIRQ:
                raise DevicePMError(
                    f"{name}: resume_noirq from {driver.state}")
            if dcb.device != name:
                raise DevicePMError(f"DCB for {dcb.device} applied to {name}")
            driver._mmio = dcb.mmio_image
            driver.irq_enabled = True
            driver.state = _SUSPENDED
        total = reduce(add, map(_RESUME_NOIRQ_NS, backwards), 0.0)
        total = reduce(add, map(_RESUME_NS, backwards), total)
        total = reduce(add, map(_COMPLETE_NS, backwards), total)
        for driver in backwards:  # dpm_resume, then dpm_complete
            driver.state = _ACTIVE
        dcbs.clear()
        return total

    def all_state(self, state: DeviceState) -> bool:
        return all(d.state is state for d in self.drivers)


def default_dpm_list(extra_drivers: int = 0) -> DevicePMList:
    """The prototype's default device population.

    The base set mirrors a small RISC-V SoC board (UART, SPI, GPIO, net,
    block, timers, ...).  ``extra_drivers`` pads the list toward the
    worst-case 730-entry dpm_list of the scalability study (Fig. 22).
    """
    base = [
        DeviceDriver("uart0", order=0, context_bytes=128, mmio_bytes=64),
        DeviceDriver("uart1", order=1, context_bytes=128, mmio_bytes=64),
        DeviceDriver("spi0", order=2, manual=True, context_bytes=256),
        DeviceDriver("gpio0", order=3, manual=True, context_bytes=64,
                     mmio_bytes=32),
        DeviceDriver("eth0", order=4, context_bytes=2048, mmio_bytes=1024,
                     suspend_ns=26_000.0, resume_ns=21_000.0),
        DeviceDriver("blk0", order=5, context_bytes=1024,
                     suspend_ns=32_000.0, resume_ns=24_000.0),
        DeviceDriver("rtc0", order=6, context_bytes=32, mmio_bytes=32),
        DeviceDriver("timer0", order=7, context_bytes=64, mmio_bytes=32),
        DeviceDriver("plic", order=8, context_bytes=512, mmio_bytes=512),
        DeviceDriver("clint", order=9, context_bytes=128, mmio_bytes=64),
    ]
    for i in range(extra_drivers):
        base.append(
            DeviceDriver(
                f"dev{i:03d}", order=10 + i,
                prepare_ns=1_200.0, suspend_ns=5_000.0,
                suspend_noirq_ns=1_800.0, resume_noirq_ns=1_400.0,
                resume_ns=3_200.0, complete_ns=700.0,
                context_bytes=256, mmio_bytes=128,
            )
        )
    return DevicePMList(base)
