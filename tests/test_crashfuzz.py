"""Crash-consistency fuzzing campaigns as tests.

Each campaign kills the power at adversarial instants and checks the
component's consistency contract; an empty violation list is the pass
condition.  The pool campaign is the one that caught a real undo-log
termination bug during development — keep these honest.
"""

import tempfile
from pathlib import Path

import pytest

from repro.analysis.crashfuzz import (
    fuzz_machine,
    fuzz_pool,
    fuzz_psm,
    fuzz_sector,
)
from repro.cli import main
from repro.power.psu import SERVER_PSU

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestCampaigns:
    def test_psm_consistency(self):
        report = fuzz_psm(trials=12, ops=100, seed=5)
        assert report.ok, report.violations[:3]
        assert report.crashes == 12

    def test_psm_consistency_alternate_seed(self):
        report = fuzz_psm(trials=8, ops=150, seed=77)
        assert report.ok, report.violations[:3]

    def test_pool_transaction_atomicity(self):
        report = fuzz_pool(trials=15, txs=8, seed=6)
        assert report.ok, report.violations[:3]

    def test_pool_atomicity_many_small_txs(self):
        report = fuzz_pool(trials=8, txs=20, seed=42)
        assert report.ok, report.violations[:3]

    def test_sector_no_torn_writes(self):
        report = fuzz_sector(trials=8, writes=25, seed=7)
        assert report.ok, report.violations[:3]

    def test_machine_ep_cut_all_or_nothing(self):
        report = fuzz_machine(trials=3, seed=8)
        assert report.ok, report.violations[:3]

    def test_machine_with_server_psu(self):
        report = fuzz_machine(trials=2, seed=9, psu=SERVER_PSU)
        assert report.ok, report.violations[:3]

    def test_report_summary(self):
        report = fuzz_sector(trials=2, writes=10, seed=1)
        assert "sector-device" in report.summary()
        assert "OK" in report.summary()

    def test_cli_reports_match_the_goldens(self, capsys, monkeypatch,
                                           tmp_path):
        """The machine-executing campaigns on pooled machines, pinned to
        the bytes an earlier tree printed both on pooled machines and
        with a fresh build per trial."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for argv, golden in (
                (["machine", "--trials", "40", "--seed", "11"],
                 "fuzz-machine-trials40-seed11.txt"),
                (["trace", "--trials", "200", "--seed", "3"],
                 "fuzz-trace-trials200-seed3.txt")):
            assert main(["fuzz", *argv]) == 0
            assert capsys.readouterr().out == (GOLDEN / golden).read_text()


class TestFailedStopSemantics:
    def test_missed_holdup_forces_cold_boot(self):
        """If Stop exceeds the hold-up window, the commit must not count
        and recovery must be a cold boot — never a half-restored world."""
        from repro.core import Machine, PlatformConfig
        from repro.pecos import KernelConfig
        from repro.power.psu import PSUModel
        from repro.workloads import load_workload

        tiny_psu = PSUModel(name="weak", stored_j=0.00001,
                            max_holdup_ms=0.5, spec_holdup_ms=0.5)
        workload = load_workload("aes", refs=1_000)
        machine = Machine.for_workload("lightpc", workload)
        machine.run(workload)
        outcome = machine.power_fail(tiny_psu)
        assert not outcome.survived
        go = machine.recover()
        assert not go.warm  # cold boot, not a torn resume
