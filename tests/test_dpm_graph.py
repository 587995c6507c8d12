"""Tests for dependency-derived dpm ordering."""

import pytest

from repro.pecos import DeviceDriver, DeviceState
from repro.pecos.dpm_graph import (
    DependencyCycleError,
    build_dpm_list,
    suspend_order,
)


def _drivers(*names):
    return [DeviceDriver(name, order=i) for i, name in enumerate(names)]


class TestSuspendOrder:
    def test_consumer_suspends_before_supplier(self):
        drivers = _drivers("pcie0", "eth0", "nvme0")
        order = suspend_order(drivers, [("eth0", "pcie0"),
                                        ("nvme0", "pcie0")])
        assert order.index("eth0") < order.index("pcie0")
        assert order.index("nvme0") < order.index("pcie0")

    def test_chain(self):
        drivers = _drivers("bus", "bridge", "leaf")
        order = suspend_order(drivers, [("bridge", "bus"),
                                        ("leaf", "bridge")])
        assert order == ["leaf", "bridge", "bus"]

    def test_unconstrained_keep_declaration_bias(self):
        drivers = _drivers("a", "b", "c")
        order = suspend_order(drivers, [])
        assert set(order) == {"a", "b", "c"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            suspend_order(_drivers("a"), [("a", "ghost")])

    def test_cycle_rejected_with_cycle_named(self):
        drivers = _drivers("a", "b")
        with pytest.raises(DependencyCycleError) as excinfo:
            suspend_order(drivers, [("a", "b"), ("b", "a")])
        assert "a" in str(excinfo.value)

    def test_tied_orders_break_by_declaration(self):
        # order ties among ready drivers go to the earlier-declared one
        drivers = [DeviceDriver("nvme0", order=1),
                   DeviceDriver("pcie0", order=0),
                   DeviceDriver("eth0", order=1),
                   DeviceDriver("gpu0", order=0),
                   DeviceDriver("usb0", order=1),
                   DeviceDriver("rtc0", order=0)]
        order = suspend_order(drivers, [("eth0", "pcie0"),
                                        ("nvme0", "pcie0"),
                                        ("usb0", "gpu0")])
        assert order == ["usb0", "eth0", "nvme0", "rtc0", "gpu0", "pcie0"]

    def test_three_node_cycle_named(self):
        drivers = _drivers("a", "b", "c")
        with pytest.raises(DependencyCycleError) as excinfo:
            suspend_order(drivers, [("a", "b"), ("b", "c"), ("c", "a")])
        # supplier -> consumer: c supplies b, b supplies a, a supplies c
        assert str(excinfo.value) == "device dependency cycle: c -> b -> a"


class TestBuildDpmList:
    def test_suspend_resume_honours_dag(self):
        drivers = _drivers("pcie0", "eth0", "gpu0")
        dpm = build_dpm_list(drivers, [("eth0", "pcie0"),
                                       ("gpu0", "pcie0")])
        names = [d.name for d in dpm.drivers]
        assert names.index("eth0") < names.index("pcie0")
        # the chain still runs cleanly end to end
        dpm.suspend_all()
        assert dpm.all_state(DeviceState.SUSPENDED_NOIRQ)
        dpm.resume_all()
        assert dpm.all_state(DeviceState.ACTIVE)

    def test_deterministic(self):
        a = build_dpm_list(_drivers("x", "y", "z"), [("y", "x")])
        b = build_dpm_list(_drivers("x", "y", "z"), [("y", "x")])
        assert [d.name for d in a.drivers] == [d.name for d in b.drivers]
