"""PecOS: the persistence-centric OS model (tasks, scheduler, dpm, SnG)."""

from repro.pecos.bootloader import BCB, BootDecision, Bootloader, MachineRegisters
from repro.pecos.device import (
    DCB,
    DeviceDriver,
    DevicePMError,
    DevicePMList,
    DeviceState,
    default_dpm_list,
)
from repro.pecos.interrupt import InterruptController
from repro.pecos.kernel import Kernel, KernelConfig, WorldSpec, world_spec
from repro.pecos.scheduler import RunQueue, Scheduler, balance_assign
from repro.pecos.schedsim import LiveTask, LiveWorld, WorldClock
from repro.pecos.signals import DeliveryRecord, Signal, SignalDelivery
from repro.pecos.sng import GoReport, SnG, SnGTiming, StopReport
from repro.pecos.task import Registers, Task, TaskFlags, TaskState, VMA, VMAKind
from repro.pecos.vm import (
    AddressSpace,
    PAGE_BYTES,
    PageFault,
    PageFlags,
    PageTableAllocator,
)

__all__ = [
    "AddressSpace",
    "BCB",
    "BootDecision",
    "Bootloader",
    "DCB",
    "DeviceDriver",
    "DevicePMError",
    "DevicePMList",
    "DeviceState",
    "DeliveryRecord",
    "GoReport",
    "InterruptController",
    "Kernel",
    "KernelConfig",
    "MachineRegisters",
    "PAGE_BYTES",
    "PageFault",
    "PageFlags",
    "PageTableAllocator",
    "Registers",
    "RunQueue",
    "LiveTask",
    "LiveWorld",
    "Scheduler",
    "Signal",
    "SignalDelivery",
    "SnG",
    "SnGTiming",
    "StopReport",
    "Task",
    "TaskFlags",
    "TaskState",
    "VMA",
    "VMAKind",
    "WorldClock",
    "WorldSpec",
    "balance_assign",
    "default_dpm_list",
    "world_spec",
]
