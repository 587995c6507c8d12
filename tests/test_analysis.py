"""Structural tests for the experiment drivers and table rendering."""

import pytest

from repro.analysis import (
    figure2b,
    figure4,
    figure8,
    figure14,
    figure17,
    figure20,
    figure21,
    figure22,
    full_run_scale,
    platform_matrix,
    render_result,
    table1,
    table2,
)
from repro.analysis import experiments
from repro.workloads import load_workload, spec

SMALL = ("aes", "mcf")


@pytest.fixture(scope="module")
def small_matrix():
    return platform_matrix(SMALL, refs=4000)


class TestMatrix:
    def test_matrix_covers_all_platform_pairs(self, small_matrix):
        assert set(small_matrix) == {
            (w, p) for w in SMALL for p in ("legacy", "lightpc_b", "lightpc")
        }

    def test_matrix_cached(self):
        a = platform_matrix(SMALL, refs=4000)
        b = platform_matrix(SMALL, refs=4000)
        assert a is b

    def test_full_run_scale(self):
        w = load_workload("aes", refs=1000)
        scale = full_run_scale(w, 1000)
        assert scale == pytest.approx((21.7e6 + 4.5e6) / 1000)


class TestDrivers:
    def test_figure2b_structure(self):
        result = figure2b(samples=300)
        assert result.experiment == "fig2b"
        assert len(result.rows) == 6
        assert "dimm_read_vs_bare" in result.notes

    def test_figure4_structure(self):
        result = figure4(workloads=("aes",), refs=2000)
        assert [row[0] for row in result.rows] == [
            "dram_only", "mem_mode", "app_mode", "object_mode", "trans_mode"]
        assert result.notes["trans_vs_dram_latency"] > 1.0

    def test_figure8_structure(self):
        result = figure8()
        cases = result.column("case")
        assert "sng/busy" in cases and "holdup/atx/busy" in cases
        assert result.notes["busy_stop_ms"] < result.notes["atx_spec_ms"]

    def test_figure14_trend(self):
        result = figure14(workloads=("redis",), refs=3000,
                          frequencies=(0.8, 1.6))
        assert len(result.rows) == 2
        # higher frequency => larger memory-stall share
        assert result.rows[1][2] > result.rows[0][2]

    def test_figure17_structure(self):
        result = figure17(elements=4000)
        assert [row[0] for row in result.rows] == [
            "copy", "scale", "add", "triad"]
        assert 0.2 < result.notes["mean_ratio"] <= 1.4

    def test_figure20_structure(self):
        result = figure20(workload="aes", refs=4000)
        by = result.row_by("syspc")
        assert "syspc" in by and "lightpc_stop" in by
        assert result.notes["syspc_vs_atx"] > 1.0
        assert result.notes["lightpc_vs_atx"] < 1.0

    def test_figure21_phases(self):
        result = figure21(workload="aes", refs=4000)
        mechanisms = {row[0] for row in result.rows}
        assert mechanisms == {"lightpc", "syspc", "acheckpc", "scheckpc"}
        phases = [row[1] for row in result.rows if row[0] == "lightpc"]
        assert phases == ["execute", "flush", "off", "recover", "resume"]

    def test_figure22_notes(self):
        result = figure22(core_counts=(8, 32, 64),
                          cache_sizes=(16 << 10, 40 << 20))
        assert result.notes["cores32_16kb_fits_atx"] == 1.0
        assert result.notes["cores64_40mb_fits_server"] == 1.0
        assert result.notes["cores64_16kb_fits_atx"] == 0.0

    def test_table1_echoes_config(self):
        result = table1()
        by = result.row_by("cores")
        assert by["cores"][1] == 8

    def test_table2_measures_back(self):
        result = table2(SMALL, refs=4000)
        assert len(result.rows) == len(SMALL)
        for row in result.rows:
            assert row[2] > 0  # reads measured


def _run_digest(result):
    return (result.wall_ns, result.ipc, result.energy_j,
            result.backend_counters, result.stats)


class TestStreamSharing:
    """Each driver generates a workload's streams once per workload."""

    def test_figure4_generates_each_stream_once(self, generated):
        figure4(workloads=("aes",), refs=2000)
        # 5 modes x (warm + measured pass), one generation per thread
        assert len(generated) == len(set(generated)) == spec("aes").threads

    def test_figure14_generates_each_stream_once(self, generated):
        figure14(workloads=("redis",), refs=1600)
        # 6 frequencies; 8 threads plus the two kernel-noise streams
        assert len(generated) == len(set(generated)) == 8 + 2

    def test_table2_generates_each_stream_once(self, generated):
        table2(("redis",), refs=1600)
        assert len(generated) == len(set(generated)) == 8

    def test_matrix_generates_each_stream_once(self, generated):
        experiments._matrix_cached.cache_clear()
        platform_matrix(SMALL, refs=4000)
        # three platforms per workload, one generation per stream: each
        # workload's threads plus its two kernel-noise streams
        assert len(generated) == sum(spec(name).threads + 2
                                     for name in SMALL)
        for name in SMALL:
            mine = [call for call in generated
                    if call[0] == spec(name).profile]
            assert len(mine) == len(set(mine)) == spec(name).threads

    def test_matrix_is_one_trial_per_workload(self):
        rows = [experiments._matrix_trial(trial, None, names=SMALL,
                                          refs=2000)
                for trial in range(len(SMALL))]
        assert [[cell for cell, _ in row] for row in rows] == [
            [(name, platform) for platform in ("legacy", "lightpc_b",
                                               "lightpc")]
            for name in SMALL]

    def test_matrix_parallel_equals_serial(self, small_matrix):
        parallel = platform_matrix(SMALL, refs=4000, jobs=2)
        assert list(parallel) == list(small_matrix)
        for cell, result in small_matrix.items():
            assert _run_digest(parallel[cell]) == _run_digest(result)


class TestRendering:
    def test_render_contains_all_rows(self):
        result = figure8()
        text = render_result(result)
        assert result.title in text
        for row in result.rows:
            assert str(row[0]) in text

    def test_render_notes_included(self):
        text = render_result(figure8())
        assert "busy_stop_ms" in text

    def test_bool_formatting(self):
        result = figure22(core_counts=(8,), cache_sizes=(16 << 10,))
        text = render_result(result)
        assert "yes" in text or "no" in text
