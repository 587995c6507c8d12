"""The execution-engine layer: registry, protocol, and equivalence.

The contract: every exact engine (scalar, extent, and the windowed
drain at any window size) is observationally identical at machine
scope — same RunResult, same stats, same wear registers — and the
registry is the only dispatch point (``Machine.run``, the CLI and the
machine crash fuzzer resolve engines by name).  The epoch signature
kernels must count exactly what the columns hold, and the CLI rejects
unknown engine names with the one-line exit-2 convention.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cli import main
from repro.core import Machine
from repro.engine.base import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    assert_execution_engine,
    available_engines,
    canonical_engine_name,
    default_engine_name,
    register_engine,
    resolve_engine,
    set_default_engine,
)
from repro.engine.columnar import (
    WindowSignature,
    signature_of_columns,
    signature_of_records,
)
from repro.engine.epoch import EpochEngine
from repro.engine.extent import ExtentEngine
from repro.engine.scalar import ScalarEngine
from repro.engine.window import WindowEngine
from repro.workloads import load_workload

BUILTINS = ("epoch", "extent", "scalar")


def _result_fields(result) -> dict:
    """RunResult comparison dict minus the engine-identity fields."""
    fields = dataclasses.asdict(result)
    fields.pop("engine")
    fields.pop("epoch")
    return fields


class TestRegistry:
    def test_builtins_registered(self):
        assert available_engines() == BUILTINS

    def test_default_is_the_pre_layer_exact_path(self):
        assert DEFAULT_ENGINE == "extent"
        assert default_engine_name() == "extent"
        assert resolve_engine(None).name == "extent"

    def test_unknown_name_raises_with_inventory(self):
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            canonical_engine_name("warp")
        with pytest.raises(ValueError, match=", ".join(BUILTINS)):
            resolve_engine("warp")

    def test_factories_build_private_instances(self):
        assert resolve_engine("epoch") is not resolve_engine("epoch")

    def test_instance_passes_through(self):
        engine = WindowEngine(window=128)
        assert resolve_engine(engine) is engine

    def test_set_default_round_trip(self):
        previous = set_default_engine("scalar")
        try:
            assert previous == "extent"
            assert resolve_engine(None).name == "scalar"
        finally:
            set_default_engine(previous)
        assert default_engine_name() == "extent"

    def test_external_engine_plugs_in_by_name(self):
        class Narrow(ExtentEngine):
            name = "narrow-test"

        register_engine("narrow-test", lambda: Narrow(window=64))
        try:
            engine = resolve_engine("narrow-test")
            assert engine.window == 64
            assert isinstance(engine, ExecutionEngine)
        finally:
            from repro.engine import base

            base._ENGINE_FACTORIES.pop("narrow-test")


class TestProtocol:
    @pytest.mark.parametrize(
        "engine", (ScalarEngine(), WindowEngine(), ExtentEngine(),
                   EpochEngine()), ids=lambda e: e.name)
    def test_builtin_conformance(self, engine):
        assert isinstance(engine, ExecutionEngine)
        assert_execution_engine(engine)
        assert resolve_engine(engine) is engine

    def test_nonconformant_object_is_named_and_rejected(self):
        class Hollow:
            name = "hollow"

            def drain(self, core, records):
                pass

        with pytest.raises(TypeError, match=r"missing/invalid: flush_cache\)"):
            assert_execution_engine(Hollow(), context="test engine")
        with pytest.raises(TypeError, match="name"):
            assert_execution_engine(object())


class TestMachineEquivalence:
    """The exact engines agree: one workload, the scalar engine and a
    windowed drain at a non-default window size against the default
    extent engine, identical RunResults (the observational contract the
    epoch engine's forced-boundary mode then inherits)."""

    REFS = 6_000

    def _run(self, engine):
        workload = load_workload("aes", refs=self.REFS, seed=5)
        machine = Machine.for_workload("lightpc", workload, engine=engine)
        return machine.run(workload), machine

    @pytest.mark.parametrize("name", ("scalar", "window"))
    def test_exact_engines_match_the_default(self, name):
        baseline, base_machine = self._run(None)
        # The unregistered windowed drain, with windows that end
        # mid-phase rather than on the default 4096-record grain.
        engine = WindowEngine(window=97) if name == "window" else name
        result, machine = self._run(engine)
        assert baseline.engine == "extent"
        assert result.engine == name
        assert _result_fields(result) == _result_fields(baseline)
        assert machine.stats_tree() == base_machine.stats_tree()
        assert machine.backend.capture_registers() == \
            base_machine.backend.capture_registers()

    def test_run_can_switch_engine_per_call(self):
        workload = load_workload("aes", refs=self.REFS, seed=5)
        machine = Machine.for_workload("lightpc", workload)
        first = machine.run(workload)
        second = machine.run(workload, engine="scalar")
        assert first.engine == "extent"
        assert second.engine == "scalar"
        assert machine.engine.name == "scalar"

    def test_exact_engines_report_no_epoch_payload(self):
        result, _ = self._run("scalar")
        assert result.epoch is None


def _reference_columns(count: int, seed: int):
    rng = random.Random(seed)
    addresses = [rng.randrange(0, 1 << 20, 8) for _ in range(count)]
    is_write = [rng.random() < 0.3 for _ in range(count)]
    instructions = [rng.randrange(0, 12) for _ in range(count)]
    return addresses, is_write, instructions


class TestColumnarKernels:
    def test_signature_counts_match_the_columns(self):
        addresses, is_write, instructions = _reference_columns(257, seed=4)
        signature = signature_of_columns(addresses, is_write, instructions)
        rows = [address // 2048 for address in addresses]
        assert signature.records == 257
        assert signature.writes == sum(is_write)
        assert signature.instructions == sum(instructions)
        assert signature.unique_lines == len({a // 64 for a in addresses})
        assert signature.row_locality == sum(
            a == b for a, b in zip(rows, rows[1:])) / 256
        assert signature_of_columns([], [], []) == WindowSignature(
            0, 0, 0, 0, 0.0)

    def test_record_and_window_signatures_share_the_kernel(self):
        addresses, is_write, instructions = _reference_columns(512, seed=9)
        records = [
            type("R", (), dict(address=a, is_write=w, instructions=i))()
            for a, w, i in zip(addresses, is_write, instructions)
        ]
        assert signature_of_records(records) == signature_of_columns(
            addresses, is_write, instructions)

    def test_signature_phase_comparison(self):
        base = signature_of_columns(*_reference_columns(1024, seed=3))
        assert base.close_to(base, tolerance=0.0)
        drifted = WindowSignature(
            records=base.records,
            writes=int(base.writes * 2.5) + base.records // 4,
            instructions=base.instructions,
            unique_lines=base.unique_lines,
            row_locality=base.row_locality,
        )
        assert not drifted.close_to(base, tolerance=0.05)
        empty = WindowSignature(0, 0, 0, 0, 0.0)
        assert empty.close_to(empty, tolerance=0.0)
        assert not empty.close_to(base, tolerance=0.5)


class TestCLIEngineFlag:
    def test_run_reports_selected_engine(self, capsys):
        assert main(["run", "--workload", "aes", "--refs", "2000",
                     "--engine", "epoch"]) == 0
        assert "(epoch engine)" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", (
        ["run", "--engine", "warp"],
        ["stats", "--engine", "warp"],
        ["drill", "--trials", "1", "--engine", "warp"],
        ["drill", "--engine", "warp"],
        ["fuzz", "machine", "--engine", "warp"],
        ["profile", "fig2b", "--engine", "warp"],
    ))
    def test_unknown_engine_exits_2_everywhere(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: unknown engine 'warp'" in err
        assert "epoch, extent, scalar" in err

    def test_fuzz_target_without_engine_support_is_rejected(self, capsys):
        assert main(["fuzz", "psm", "--engine", "epoch"]) == 2
        assert "--engine applies to 'machine'" in capsys.readouterr().err

    def test_drill_campaign_rejects_engine(self, capsys):
        assert main(["drill", "--trials", "1", "--engine", "scalar"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--engine applies to the single-machine drill" in err

    @pytest.mark.parametrize("name", ("window", "batch"))
    def test_deleted_engine_names_are_unknown(self, name, capsys):
        assert main(["run", "--refs", "2000", "--engine", name]) == 2
        assert f"error: unknown engine '{name}'" in capsys.readouterr().err

    def test_litmus_has_no_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["litmus", "--trials", "1", "--engine", "scalar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
