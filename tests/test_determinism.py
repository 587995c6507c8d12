"""Determinism: identical inputs must reproduce identical outputs.

A reproduction repository lives or dies on this — every figure must come
out the same on every run, or paper-vs-measured comparisons are noise.
"""

import json

import pytest

from repro.analysis import figure2b, figure8
from repro.core import Machine
from repro.pecos import Kernel, KernelConfig, SnG
from repro.workloads import TraceGenerator, load_workload
from repro.workloads.trace import LocalityProfile


class TestTraceDeterminism:
    def test_generator_is_pure(self):
        profile = LocalityProfile(working_set_lines=2048, hot_lines=128)
        a = list(TraceGenerator(profile, seed=11).records(800))
        b = list(TraceGenerator(profile, seed=11).records(800))
        assert a == b

    def test_workload_traces_replayable(self):
        w = load_workload("redis", refs=1_600)
        first = [list(t) for t in w.traces()]
        second = [list(t) for t in w.traces()]
        assert first == second


class TestMachineDeterminism:
    def test_identical_runs_identical_results(self):
        results = []
        for _ in range(2):
            workload = load_workload("snap", refs=3_000)
            machine = Machine.for_workload("lightpc", workload)
            result = machine.run(workload)
            results.append((
                result.wall_ns, result.instructions,
                result.mean_read_latency_ns, result.total_w,
                machine.backend.media_line_writes,
                machine.backend.reconstructions,
            ))
        assert results[0] == results[1]

    def test_legacy_runs_identical_too(self):
        walls = []
        for _ in range(2):
            workload = load_workload("mcf", refs=3_000)
            machine = Machine.for_workload("legacy", workload)
            walls.append(machine.run(workload).wall_ns)
        assert walls[0] == walls[1]

    def test_different_seeds_different_results(self):
        workload_a = load_workload("snap", refs=3_000, seed=1)
        workload_b = load_workload("snap", refs=3_000, seed=2)
        wall_a = Machine.for_workload("lightpc", workload_a).run(workload_a).wall_ns
        wall_b = Machine.for_workload("lightpc", workload_b).run(workload_b).wall_ns
        assert wall_a != wall_b


class TestSnGDeterminism:
    def test_stop_reports_identical(self):
        reports = []
        for _ in range(2):
            kernel = Kernel(KernelConfig(seed=3))
            kernel.populate()
            sng = SnG(kernel, flush_port=lambda t: t + 2_000.0,
                      dirty_lines_fn=lambda: [128] * 8)
            reports.append(sng.stop())
        assert reports[0].total_ns == reports[1].total_ns
        assert reports[0].fractions() == reports[1].fractions()


class TestExperimentDeterminism:
    def test_figure2b_reproduces_exactly(self):
        a = figure2b(samples=600, seed=4)
        b = figure2b(samples=600, seed=4)
        assert a.rows == b.rows
        assert a.notes == b.notes

    def test_figure8_reproduces_exactly(self):
        assert figure8().rows == figure8().rows


#: one long-run cell under ``epoch``, long enough that windows are
#: skipped and their backend-counter deltas estimated
_EPOCH_CELL = """
import json
from repro.core import Machine
from repro.workloads import load_workload

workload = load_workload("mcf", refs=100_000)
machine = Machine.for_workload("lightpc", workload, engine="epoch")
print(json.dumps(machine.run(workload).epoch))
"""


class TestHashSeedIndependence:
    """Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so
    any output that follows set or hash order changes between runs of
    the same tree."""

    def test_epoch_report_ignores_the_hash_seed(self, run_python):
        first = run_python(_EPOCH_CELL, PYTHONHASHSEED="1")
        second = run_python(_EPOCH_CELL, PYTHONHASHSEED="2")
        assert len(json.loads(first)["counter_deltas"]) > 1
        assert first == second  # key order included
