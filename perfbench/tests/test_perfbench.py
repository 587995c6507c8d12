"""Tests for the benchmark's own code: spans, metric names, checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import suite  # noqa: E402
from layers import LAYER_SPANS, Tracer  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- spans -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    outer, inner, leaf = (recorder.name_id(name)
                          for name in ("outer", "inner", "leaf"))
    root = recorder.begin(outer)        # t=0
    clock.now = 1.0
    first = recorder.begin(inner)       # t=1
    clock.now = 2.0
    deepest = recorder.begin(leaf)      # t=2
    clock.now = 2.5
    recorder.finish(deepest, 7)         # leaf: 0.5 s
    clock.now = 4.0
    recorder.finish(first, 3)           # inner: 3 s, 2.5 s self
    second = recorder.begin(inner)      # t=4
    clock.now = 4.5
    recorder.finish(second, 1)          # inner: 0.5 s
    clock.now = 10.0
    recorder.finish(root, 1)            # outer: 10 s, 6.5 s self
    totals, root_s = recorder.totals()
    assert totals == {"outer": (1, 6.5), "inner": (4, 3.0),
                      "leaf": (7, 0.5)}
    assert root_s == 10.0
    assert sum(self_s for _, self_s in totals.values()) == root_s
    assert list(recorder.parent) == [-1, 0, 1, 0]


def test_totals_refuse_open_spans():
    recorder = SpanRecorder(FakeClock())
    recorder.begin(recorder.name_id("open"))
    with pytest.raises(RuntimeError):
        recorder.totals()


def test_a_span_closed_out_of_order_is_refused():
    recorder = SpanRecorder(FakeClock())
    outer = recorder.begin(recorder.name_id("outer"))
    recorder.begin(recorder.name_id("inner"))
    with pytest.raises(RuntimeError):
        recorder.finish(outer)
    with pytest.raises(RuntimeError):
        recorder.finish(outer + 5)


def _accounted(tracer: Tracer, traced_s: float) -> bool:
    _, accounted = run.per_layer(suite.Workload(), [], [], tracer,
                                 traced_s=traced_s, untraced_s=1.0,
                                 reuse=(0, 0), verified={})
    return accounted


def test_spans_must_account_for_the_traced_wall():
    clock = FakeClock()
    tracer = Tracer()
    tracer.recorder = SpanRecorder(clock)
    with tracer.span("analysis.trial"):
        clock.now = 2.0
    assert _accounted(tracer, traced_s=2.5)
    # root spans longer than the wall they ran in
    assert not _accounted(tracer, traced_s=1.5)
    # a span left open by an out-of-order close
    outer = tracer.recorder.begin(tracer.recorder.name_id("core.run"))
    tracer.recorder.begin(tracer.recorder.name_id("core.build"))
    with pytest.raises(RuntimeError):
        tracer.recorder.finish(outer)
    assert not _accounted(tracer, traced_s=2.5)


def test_tracer_accounts_for_every_span_and_restores_entry_points():
    from repro.core.machine import Machine
    from repro.memory import batch, port
    from repro.workloads.suites import load_workload

    original_run = Machine.run
    original_loop = batch.default_access_batch
    workload = load_workload("aes", refs=3_000, seed=7)
    untraced = Machine.for_workload("lightpc", workload).run(workload)
    with Tracer() as tracer:
        traced = Machine.for_workload("lightpc", workload).run(workload)
    assert Machine.run is original_run
    assert batch.default_access_batch is original_loop
    assert port.default_access_batch is original_loop
    assert suite.run_digest(traced) == suite.run_digest(untraced)
    totals, root_s = tracer.layer_totals()
    assert set(totals) <= set(LAYER_SPANS)
    assert totals["core.run"][0] == 1
    # the workload's own streams plus the kernel-noise streams
    assert totals["workloads.tracegen"][0] > workload.total_refs()
    assert totals["cpu.interleave"][0] + totals["cpu.window"][0] == \
        totals["workloads.tracegen"][0]
    assert abs(sum(s for _, s in totals.values()) - root_s) < 1e-9
    assert tracer.runs and tracer.runs[0].wall_ns == untraced.wall_ns


# -- metric names ------------------------------------------------------------


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    readings = {name: (unit, better)
                for named in run.READINGS.values()
                for name, (_, _, unit, better) in named.items()}
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(readings)
    assert len(names) == len(set(names))
    for name in names + list(suite.WORKLOADS):
        assert NAME.match(name), name
    for unit, better in list(run.END_TO_END.values()) + list(
            run.PER_LAYER.values()) + list(readings.values()):
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")


def test_every_workload_reads_its_own_metrics_from_reported_ones():
    assert set(run.READINGS) == set(suite.WORKLOADS)
    for named in run.READINGS.values():
        for metric, _, _, _ in named.values():
            assert metric in run.END_TO_END or metric in run.PER_LAYER


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == suite.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- output checks -----------------------------------------------------------


def test_an_altered_figure_row_is_a_failed_operation(tmp_path):
    workload = suite.PaperFigures()
    workload.setup(0, tmp_path)
    workload.figures = (("tab1", "table1", {}),)
    assert [op.ok for op in workload.run_pass(0).ops] == [True]
    committed = workload.expected["tab1"]
    row = next(line for line in committed.splitlines() if "cores" in line)
    workload.expected["tab1"] = committed.replace(row, row + " ", 1)
    op, = workload.run_pass(1).ops
    assert not op.ok and "benchmarks/results" in op.detail


def test_an_altered_cell_result_is_a_failed_operation(tmp_path):
    workload = suite.LongRun()
    workload.refs = 2_000
    workload.cells = (("mcf", "lightpc"),)
    workload.setup(3, tmp_path)
    passes = [workload.run_pass(0), workload.run_pass(1)]
    workload.verify(passes)
    assert all(op.ok for one in passes for op in one.ops)
    op = passes[1].ops[0]
    counters = dict(op.result.backend_counters)
    counters["media_line_writes"] += 1
    op.result = dataclasses.replace(op.result, backend_counters=counters)
    workload.verify(passes)
    assert passes[0].ops[0].ok
    assert not op.ok and "scalar" in op.detail


@pytest.mark.parametrize("cls, engine", [(suite.LongRun, "scalar"),
                                         (suite.LongRunEpoch, "extent")])
def test_a_raising_reference_run_fails_the_cell(tmp_path, cls, engine):
    class BrokenReference(cls):
        refs = 2_000
        cells = (("mcf", "lightpc"),)

        def run_cell(self, name, platform, run_engine):
            if run_engine == engine:
                raise ValueError("broken reference engine")
            return super().run_cell(name, platform, run_engine)

    workload = BrokenReference()
    workload.setup(3, tmp_path)
    one = workload.run_pass(0)
    workload.verify([one])
    op, = one.ops
    assert not op.ok and engine in op.detail


def test_a_violating_trial_is_a_failed_operation(tmp_path):
    class BrokenOracle(suite.LitmusSweep):
        def campaigns(self, index):
            return [functools.partial(
                self.run_litmus, trials=6, shape="store-store-reorder",
                seed=index, rules={"fence_is_barrier": True})]

    workload = BrokenOracle()
    workload.setup(5, tmp_path)
    workload.work_per_pass = 6
    ops = workload.run_pass(0).ops
    assert len(ops) == 6
    assert any(not op.ok for op in ops)
    assert all(op.ms > 0 for op in ops)


def test_a_litmus_pass_holds_every_shape_equally(tmp_path):
    workload = suite.LitmusSweep()
    workload.per_shape = 2
    workload.setup(5, tmp_path)
    one = workload.run_pass(0)
    assert len(one.ops) == workload.work_per_pass == 2 * len(workload.shapes)
    assert all(op.ok for op in one.ops)
    assert one.values["crash_points"] > 0
    layer = workload.layer_values([one], [one])
    assert layer["litmus.crash_points"] == one.values["crash_points"]
    assert 0 <= layer["litmus.dedup_frac"] < 1
    assert layer["orchestrate.trial_samples"] == len(one.ops)


def test_litmus_values_survive_passes_whose_campaigns_raised():
    layer = suite.LitmusSweep().layer_values([suite.Pass([])],
                                             [suite.Pass([])])
    assert layer["litmus.crash_points"] == 0
    assert layer["litmus.dedup_frac"] == 0.0


def test_inputs_follow_the_workload_seed():
    assert suite.derive_seed(1, "trace") == suite.derive_seed(1, "trace")
    assert suite.derive_seed(1, "trace") != suite.derive_seed(2, "trace")
    assert suite.derive_seed(1, "campaign", 0) != \
        suite.derive_seed(1, "campaign", 1)
