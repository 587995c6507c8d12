"""Cross-validation: event-driven Stop vs the closed-form decomposition."""

import pytest

from repro.pecos import Kernel, KernelConfig, SnG
from tests.sng_event_oracle import run_event_driven_stop


def _pair(kernel_config=None, dirty=256):
    """Run both implementations on identical worlds; returns their reports."""
    closed_kernel = Kernel(kernel_config or KernelConfig())
    closed_kernel.populate()
    event_kernel = Kernel(kernel_config or KernelConfig())
    event_kernel.populate()
    cores = closed_kernel.config.cores
    dirty_lines = [dirty] * cores

    sng = SnG(closed_kernel, flush_port=lambda t: t + 2_000.0,
              dirty_lines_fn=lambda: dirty_lines)
    closed = sng.stop()
    event = run_event_driven_stop(event_kernel, dirty_lines)
    return closed, event


class TestAgreement:
    def test_default_world_totals_agree(self):
        closed, event = _pair()
        assert event.total_ns == pytest.approx(closed.total_ns, rel=0.05)

    def test_phases_agree(self):
        closed, event = _pair()
        assert event.process_stop_ns == pytest.approx(
            closed.process_stop_ns, rel=0.08)
        assert event.device_stop_ns == pytest.approx(
            closed.device_stop_ns, rel=0.08)
        assert event.offline_ns == pytest.approx(
            closed.offline_ns, rel=0.10)

    def test_idle_world_agrees(self):
        closed, event = _pair(KernelConfig(
            user_processes=18, kernel_threads=22, sleeping_fraction=0.85))
        assert event.total_ns == pytest.approx(closed.total_ns, rel=0.06)

    def test_many_cores_agree(self):
        closed, event = _pair(KernelConfig(cores=32, extra_drivers=200))
        assert event.total_ns == pytest.approx(closed.total_ns, rel=0.06)

    def test_heavy_dirty_caches_agree(self):
        closed, event = _pair(dirty=8_192)
        assert event.total_ns == pytest.approx(closed.total_ns, rel=0.06)


class TestEventDrivenProperties:
    def test_dumps_overlap_the_ipi_chain(self):
        """Concurrent worker dumps must cost ~max, not the sum — the event
        run with huge caches should grow far less than serialized dumps
        would."""
        kernel_a = Kernel()
        kernel_a.populate()
        small = run_event_driven_stop(kernel_a, [64] * 8)
        kernel_b = Kernel()
        kernel_b.populate()
        big = run_event_driven_stop(kernel_b, [40_000] * 8)
        from repro.pecos.sng import SnGTiming
        per_dump = 40_000 * SnGTiming().cacheline_flush_ns
        growth = big.offline_ns - small.offline_ns
        assert growth < 2.2 * per_dump  # ~max + master's, never 7x

    def test_dirty_lines_validated(self):
        kernel = Kernel()
        kernel.populate()
        with pytest.raises(ValueError):
            run_event_driven_stop(kernel, [0, 0])

    def test_ipis_counted(self):
        kernel = Kernel()
        kernel.populate()
        report = run_event_driven_stop(kernel, [64] * 8)
        assert report.ipis >= kernel.config.cores - 1


class TestGoAgreement:
    def test_go_totals_agree(self):
        from tests.sng_event_oracle import run_event_driven_go

        closed_kernel = Kernel()
        closed_kernel.populate()
        sng = SnG(closed_kernel, flush_port=lambda t: t + 2_000.0,
                  dirty_lines_fn=lambda: [64] * 8)
        sng.stop()
        closed = sng.go()

        event_kernel = Kernel()
        event_kernel.populate()
        event = run_event_driven_go(event_kernel)
        assert event.total_ns == pytest.approx(closed.total_ns, rel=0.05)
        assert event.device_resume_ns == pytest.approx(
            closed.device_resume_ns, rel=0.08)

    def test_go_reschedule_scales_with_tasks(self):
        from tests.sng_event_oracle import run_event_driven_go

        small = Kernel(KernelConfig(user_processes=10, kernel_threads=10))
        small.populate()
        big = Kernel(KernelConfig(user_processes=100, kernel_threads=50))
        big.populate()
        assert run_event_driven_go(big).reschedule_ns > \
            run_event_driven_go(small).reschedule_ns
