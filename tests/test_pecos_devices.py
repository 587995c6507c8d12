"""Tests for the dpm framework, bootloader, and interrupt fabric."""

import pytest

from repro.pecos import (
    BCB,
    Bootloader,
    DeviceDriver,
    DevicePMError,
    DevicePMList,
    DeviceState,
    InterruptController,
    MachineRegisters,
    default_dpm_list,
)
from repro.sim import Simulator


class TestDeviceDriver:
    def test_suspend_chain_order_enforced(self):
        drv = DeviceDriver("dev", order=0)
        with pytest.raises(DevicePMError):
            drv.dpm_suspend()  # prepare first
        drv.dpm_prepare()
        with pytest.raises(DevicePMError):
            drv.dpm_suspend_noirq()  # suspend first
        drv.dpm_suspend()
        cost, dcb = drv.dpm_suspend_noirq()
        assert drv.state is DeviceState.SUSPENDED_NOIRQ
        assert dcb.device == "dev"
        assert not dcb.irq_enabled

    def test_resume_chain_order_enforced(self):
        drv = DeviceDriver("dev", order=0)
        drv.dpm_prepare()
        drv.dpm_suspend()
        _, dcb = drv.dpm_suspend_noirq()
        with pytest.raises(DevicePMError):
            drv.dpm_resume()  # noirq first
        drv.dpm_resume_noirq(dcb)
        drv.dpm_resume()
        drv.dpm_complete()
        assert drv.state is DeviceState.ACTIVE
        assert drv.irq_enabled

    def test_dcb_restores_mmio(self):
        drv = DeviceDriver("dev", order=0)
        original = drv.mmio_snapshot
        drv.dpm_prepare()
        drv.dpm_suspend()
        _, dcb = drv.dpm_suspend_noirq()
        drv.scribble_mmio()
        assert drv.mmio_snapshot != original
        drv.dpm_resume_noirq(dcb)
        assert drv.mmio_snapshot == original

    def test_wrong_dcb_rejected(self):
        a = DeviceDriver("a", order=0)
        b = DeviceDriver("b", order=1)
        for drv in (a, b):
            drv.dpm_prepare()
            drv.dpm_suspend()
        _, dcb_a = a.dpm_suspend_noirq()
        b.dpm_suspend_noirq()
        with pytest.raises(DevicePMError):
            b.dpm_resume_noirq(dcb_a)

    def test_manual_peripherals_cost_more(self):
        auto = DeviceDriver("auto", order=0)
        manual = DeviceDriver("manual", order=1, manual=True)
        auto.dpm_prepare()
        manual.dpm_prepare()
        assert manual.dpm_suspend() > auto.dpm_suspend()

    @pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 1000])
    def test_mmio_pattern_is_the_name_seeded_ramp(self, size):
        # "a" * i has byte sum 97 * i; 97 is odd, so i < 256 reaches
        # every seed
        names = {(97 * i) & 0xFF: "a" * i for i in range(256)}
        assert len(names) == 256
        for seed, name in names.items():
            expected = bytes((seed + i) & 0xFF for i in range(size))
            drv = DeviceDriver(name, order=0, mmio_bytes=size)
            assert drv.mmio_snapshot == expected, seed
            drv.scribble_mmio()
            drv.reset()
            assert drv.mmio_snapshot == expected, seed


class TestDevicePMList:
    def test_suspend_resume_roundtrip(self):
        dpm = default_dpm_list(extra_drivers=5)
        suspend_ns = dpm.suspend_all()
        assert suspend_ns > 0
        assert dpm.all_state(DeviceState.SUSPENDED_NOIRQ)
        assert len(dpm.dcbs) == len(dpm)
        resume_ns = dpm.resume_all()
        assert resume_ns > 0
        assert dpm.all_state(DeviceState.ACTIVE)
        assert not dpm.dcbs

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DevicePMList([DeviceDriver("x", 0), DeviceDriver("x", 1)])

    def test_dependency_order(self):
        dpm = DevicePMList([DeviceDriver("late", 5), DeviceDriver("early", 1)])
        assert [d.name for d in dpm.drivers] == ["early", "late"]

    def test_resume_without_dcb_raises(self):
        dpm = default_dpm_list()
        with pytest.raises(DevicePMError):
            dpm.resume_all()

    def test_worst_case_population(self):
        dpm = default_dpm_list(extra_drivers=720)
        assert len(dpm) == 730


class TestBootloader:
    def _bcb(self):
        return BCB(
            machine_registers=MachineRegisters(mstatus=1),
            mepc=0x8020_0000,
            cpu_up_task_pointers=(0,) * 8,
        )

    def test_cold_boot_without_commit(self):
        boot = Bootloader()
        decision, cost = boot.power_on()
        assert not decision.warm and cost == 0.0

    def test_store_then_commit_then_warm(self):
        boot = Bootloader()
        boot.store_bcb(self._bcb())
        decision, _ = boot.power_on()
        assert not decision.warm  # commit missing: still a cold boot
        boot.commit()
        decision, cost = boot.power_on()
        assert decision.warm and cost > 0
        assert decision.bcb.mepc == 0x8020_0000

    def test_commit_without_bcb_raises(self):
        with pytest.raises(RuntimeError):
            Bootloader().commit()

    def test_precommitted_bcb_rejected(self):
        boot = Bootloader()
        bcb = BCB(machine_registers=MachineRegisters(), mepc=0,
                  cpu_up_task_pointers=(), committed=True)
        with pytest.raises(ValueError):
            boot.store_bcb(bcb)

    def test_clear_commit_forces_cold_boot(self):
        boot = Bootloader()
        boot.store_bcb(self._bcb())
        boot.commit()
        boot.clear_commit()
        decision, _ = boot.power_on()
        assert not decision.warm


class TestInterruptController:
    def test_power_event_nominates_master(self):
        ic = InterruptController(sim=Simulator(), cores=4)
        assert ic.raise_power_event(2) == 2
        assert ic.master == 2

    def test_double_seize_rejected(self):
        ic = InterruptController(sim=Simulator(), cores=4)
        ic.raise_power_event(0)
        with pytest.raises(RuntimeError):
            ic.raise_power_event(1)

    def test_ipi_delivery_with_latency(self):
        sim = Simulator()
        ic = InterruptController(sim=sim, cores=2)
        got = []
        ic.register(1, lambda src, payload: got.append((sim.now, src, payload)))
        ic.send_ipi(0, 1, payload="stop")
        sim.run()
        assert got == [(ic.ipi_latency_ns, 0, "stop")]
        assert ic.ipis_sent == 1

    def test_ipi_without_handler(self):
        ic = InterruptController(sim=Simulator(), cores=2)
        with pytest.raises(RuntimeError):
            ic.send_ipi(0, 1)

    def test_invalid_core_ids(self):
        ic = InterruptController(sim=Simulator(), cores=2)
        with pytest.raises(ValueError):
            ic.register(5, lambda s, p: None)
        with pytest.raises(ValueError):
            ic.raise_power_event(9)
