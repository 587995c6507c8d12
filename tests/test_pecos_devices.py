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


def _three() -> DevicePMList:
    return DevicePMList([DeviceDriver("first", order=0),
                         DeviceDriver("mid", order=1),
                         DeviceDriver("last", order=2)])


def _states(dpm: DevicePMList) -> list[DeviceState]:
    return [driver.state for driver in dpm.drivers]


class TestDeviceDriver:
    """The per-driver dpm protocol, driven through the list's chains."""

    def test_suspend_chain_order_enforced(self):
        dpm = _three()
        first, mid, last = dpm.drivers
        mid.state = DeviceState.SUSPENDED  # wedged: already past prepare
        with pytest.raises(DevicePMError) as err:
            dpm.suspend_all()
        assert str(err.value) == "mid: prepare from DeviceState.SUSPENDED"
        # the prepare pass moved the driver ahead of the wedge only
        assert _states(dpm) == [DeviceState.PREPARED, DeviceState.SUSPENDED,
                                DeviceState.ACTIVE]
        assert first.irq_enabled and last.irq_enabled
        assert not dpm.dcbs

        dpm.reset()
        dpm.suspend_all()
        assert dpm.all_state(DeviceState.SUSPENDED_NOIRQ)
        assert not any(driver.irq_enabled for driver in dpm.drivers)
        assert all(not dcb.irq_enabled for dcb in dpm.dcbs.values())
        with pytest.raises(DevicePMError) as err:
            dpm.suspend_all()  # a second Stop without Go
        assert str(err.value) == (
            "first: prepare from DeviceState.SUSPENDED_NOIRQ")

    def test_resume_chain_order_enforced(self):
        dpm = _three()
        first, mid, last = dpm.drivers
        dpm.suspend_all()
        mid.state = DeviceState.SUSPENDED  # wedged: woke before its noirq
        with pytest.raises(DevicePMError) as err:
            dpm.resume_all()
        assert str(err.value) == (
            "mid: resume_noirq from DeviceState.SUSPENDED")
        # resume walks backwards: only the driver behind the wedge moved
        assert _states(dpm) == [DeviceState.SUSPENDED_NOIRQ,
                                DeviceState.SUSPENDED, DeviceState.SUSPENDED]
        assert last.irq_enabled and not first.irq_enabled
        assert set(dpm.dcbs) == {"first", "mid", "last"}

        dpm.reset()
        dpm.suspend_all()
        dpm.resume_all()
        assert dpm.all_state(DeviceState.ACTIVE)
        assert all(driver.irq_enabled for driver in dpm.drivers)

    def test_dcb_restores_mmio(self):
        dpm = _three()
        original = [driver.mmio_snapshot for driver in dpm.drivers]
        dpm.suspend_all()
        assert [dpm.dcbs[d.name].mmio_image for d in dpm.drivers] == original
        for driver in dpm.drivers:
            driver.scribble_mmio()
        assert [d.mmio_snapshot for d in dpm.drivers] != original
        dpm.resume_all()
        assert [d.mmio_snapshot for d in dpm.drivers] == original

    def test_wrong_dcb_rejected(self):
        dpm = DevicePMList([DeviceDriver("a", order=0),
                            DeviceDriver("b", order=1)])
        dpm.suspend_all()
        dpm.dcbs["a"], dpm.dcbs["b"] = dpm.dcbs["b"], dpm.dcbs["a"]
        b = dpm.drivers[1]
        b.scribble_mmio()
        scribbled = b.mmio_snapshot
        with pytest.raises(DevicePMError) as err:
            dpm.resume_all()  # b resumes first and finds a's DCB
        assert str(err.value) == "DCB for a applied to b"
        assert dpm.all_state(DeviceState.SUSPENDED_NOIRQ)
        assert b.mmio_snapshot == scribbled and not b.irq_enabled

    def test_manual_peripherals_cost_more(self):
        auto = DeviceDriver("auto", order=0)
        twins = DevicePMList([auto, DeviceDriver("manual", order=1,
                                                 manual=True)])
        fixed = 2 * (auto.prepare_ns + auto.suspend_noirq_ns)
        # the manual twin's suspend pass costs 1.5x the automatic one's
        assert twins.suspend_all() == fixed + 2.5 * auto.suspend_ns
        autos = DevicePMList([DeviceDriver("auto", order=0),
                              DeviceDriver("auto2", order=1)])
        assert autos.suspend_all() == fixed + 2.0 * auto.suspend_ns
        # resume has no manual surcharge
        assert twins.resume_all() == autos.resume_all()

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
        ic = InterruptController(cores=4)
        assert ic.raise_power_event(2) == 2
        assert ic.master == 2

    def test_double_seize_rejected(self):
        ic = InterruptController(cores=4)
        ic.raise_power_event(0)
        with pytest.raises(RuntimeError):
            ic.raise_power_event(1)

    def test_invalid_core_ids(self):
        ic = InterruptController(cores=2)
        for core in (2, 9, -1):
            with pytest.raises(ValueError):
                ic.raise_power_event(core)
        assert ic.master is None
