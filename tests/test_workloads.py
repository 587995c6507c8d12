"""Tests for the workload registry, trace generation, and STREAM kernels."""

import dataclasses
import multiprocessing
import os

import pytest
from hypothesis import given, settings, strategies as st

import repro.workloads.suites as suites
from repro.analysis.crashfuzz import materialize_fuzz_trace
from repro.workloads import (
    CATEGORIES,
    LocalityProfile,
    STREAM_KERNELS,
    TraceGenerator,
    TraceRecord,
    WORKLOAD_SPECS,
    all_workloads,
    load_workload,
    materialize_traces,
    open_trace,
    shared_streams,
    trace_meta,
    spec,
    stream_kernel,
    workload_names,
)


class TestRegistry:
    def test_seventeen_workloads(self):
        assert len(WORKLOAD_SPECS) == 17

    def test_categories_cover_paper_suites(self):
        assert set(CATEGORIES) == {"crypto", "hpc", "spec", "inmemdb"}
        assert len(workload_names("crypto")) == 2
        assert len(workload_names("hpc")) == 3
        assert len(workload_names("spec")) == 8
        assert len(workload_names("inmemdb")) == 4

    def test_unknown_lookups_rejected(self):
        with pytest.raises(KeyError):
            spec("doom")
        with pytest.raises(ValueError):
            workload_names("games")

    def test_multithreading_matches_paper(self):
        assert spec("redis").threads == 8
        assert spec("mcf").threads == 1
        assert spec("snap").threads == 8

    def test_rw_ratio_consistent_with_counts(self):
        for s in WORKLOAD_SPECS.values():
            implied = s.paper_reads / s.paper_writes
            assert implied == pytest.approx(s.paper_rw_ratio, rel=0.30), s.name

    def test_mcf_is_least_write_intensive(self):
        ratios = {n: s.paper_rw_ratio for n, s in WORKLOAD_SPECS.items()}
        assert max(ratios, key=ratios.get) == "mcf"


class TestLocalityProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            LocalityProfile(hot_lines=100, working_set_lines=50)
        with pytest.raises(ValueError):
            LocalityProfile(write_fraction=1.5)


class TestTraceGenerator:
    def _profile(self, **kw):
        defaults = dict(working_set_lines=1024, hot_lines=128)
        defaults.update(kw)
        return LocalityProfile(**defaults)

    def test_deterministic_replay(self):
        gen = TraceGenerator(self._profile(), seed=3)
        a = list(gen.records(500))
        b = list(gen.records(500))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(TraceGenerator(self._profile(), seed=1).records(200))
        b = list(TraceGenerator(self._profile(), seed=2).records(200))
        assert a != b

    def test_addresses_within_working_set(self):
        profile = self._profile()
        limit = profile.working_set_lines * 64 + 4096  # RAW page slop
        for record in TraceGenerator(profile, seed=5).records(2000):
            assert 0 <= record.address < limit

    def test_base_address_offset(self):
        base = 1 << 20
        for record in TraceGenerator(self._profile(), seed=5,
                                     base_address=base).records(200):
            assert record.address >= base

    def test_write_fraction_approximate(self):
        profile = self._profile(write_fraction=0.3)
        records = list(TraceGenerator(profile, seed=7).records(5000))
        writes = sum(r.is_write for r in records)
        assert writes / len(records) == pytest.approx(0.3, abs=0.03)

    def test_instruction_gap_mean(self):
        profile = self._profile(instructions_per_access=5.0)
        records = list(TraceGenerator(profile, seed=9).records(5000))
        mean = sum(r.instructions for r in records) / len(records)
        assert mean == pytest.approx(5.0, rel=0.25)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.05, 0.95), st.integers(0, 1000))
    def test_any_profile_generates_valid_records(self, write_fraction, seed):
        profile = self._profile(write_fraction=write_fraction)
        for record in TraceGenerator(profile, seed=seed).records(300):
            assert record.instructions >= 0
            assert record.address % 8 == 0


class TestWorkloads:
    def test_traces_per_thread(self):
        w = load_workload("redis", refs=800)
        traces = w.traces()
        assert len(traces) == 8
        counts = [sum(1 for _ in t) for t in traces]
        assert all(c == 100 for c in counts)

    def test_traces_reiterable(self):
        w = load_workload("aes", refs=100)
        trace = w.traces()[0]
        assert list(trace) == list(trace)

    def test_threads_use_disjoint_regions(self):
        w = load_workload("snap", refs=1600)
        firsts = []
        ws = w.spec.profile.working_set_lines * 64
        for thread, trace in enumerate(w.traces()):
            for record in trace:
                assert record.address >= thread * ws
            firsts.append(thread)
        assert len(firsts) == 8

    def test_all_workloads_filter(self):
        assert len(all_workloads()) == 17
        assert len(all_workloads(category="hpc")) == 3


class TestSharedStreams:
    def test_replay_equals_a_fresh_generator(self):
        workload = load_workload("redis", refs=1600)
        fresh = [list(trace) for trace in workload.traces()]
        with shared_streams():
            for _ in range(2):
                replayed = [list(trace) for trace in workload.traces()]
                assert replayed == fresh
                for records in replayed:
                    assert all(isinstance(r, TraceRecord) for r in records)
                    # the epoch signature reads attributes, not positions
                    assert [r.is_write for r in records] == \
                        [w for _, _, w in records]

    def test_second_view_generates_nothing(self, generated):
        workload = load_workload("redis", refs=1600)
        with shared_streams():
            for trace in workload.traces():
                list(trace)
            assert len(generated) == 8
            for trace in load_workload("redis", refs=1600).traces():
                list(trace)
            assert len(generated) == 8

    def test_nothing_retained_after_exit(self, generated):
        trace = load_workload("aes", refs=500).traces()[0]
        with shared_streams():
            list(trace)
            list(trace)
        assert suites._store.get() is None
        list(trace)
        assert len(generated) == 2

    def test_nothing_retained_after_an_exception(self, generated):
        trace = load_workload("aes", refs=500).traces()[0]
        with pytest.raises(RuntimeError):
            with shared_streams():
                list(trace)
                raise RuntimeError("driver failed")
        assert suites._store.get() is None
        with shared_streams():
            list(trace)
        assert len(generated) == 2

    def test_nested_scopes_share_the_outermost_store(self, generated):
        trace = load_workload("aes", refs=500).traces()[0]
        with shared_streams():
            outer = suites._store.get()
            with shared_streams():
                assert suites._store.get() is outer
                list(trace)
            assert suites._store.get() is outer
            list(trace)
        assert suites._store.get() is None
        assert len(generated) == 1

    def test_stream_over_the_budget_stays_lazy(self, generated, monkeypatch):
        monkeypatch.setattr(suites, "STREAM_BUDGET", 700)
        first, second = (load_workload("aes", refs=500, seed=seed).traces()[0]
                         for seed in (1, 2))
        with shared_streams():
            assert list(first) == list(first)  # fits: stored
            assert list(second) == list(second)  # past what is left
            assert suites._store.get().room == 200
            assert len(suites._store.get().streams) == 1
        assert len(generated) == 3


class TestMaterialize:
    """A materialised trace file stands for one stream of one revision."""

    def _aes_writes(self, path):
        return sum(r.is_write for r in open_trace(path).records())

    def _swap_aes_profile(self, monkeypatch):
        aes = spec("aes")
        monkeypatch.setitem(WORKLOAD_SPECS, "aes", dataclasses.replace(
            aes, profile=dataclasses.replace(aes.profile,
                                             write_fraction=0.6)))

    def test_fuzz_trace_follows_the_profile(self, tmp_path, monkeypatch):
        before = materialize_fuzz_trace("aes", 2000, 42, tmp_path)
        assert materialize_fuzz_trace("aes", 2000, 42, tmp_path) == before
        writes_before = self._aes_writes(before)
        self._swap_aes_profile(monkeypatch)
        after = materialize_fuzz_trace("aes", 2000, 42, tmp_path)
        assert after != before
        current = TraceGenerator(spec("aes").profile, seed=42 * 1009)
        assert self._aes_writes(after) == \
            sum(r.is_write for r in current.records(2000))
        assert self._aes_writes(after) > writes_before

    def test_workload_traces_follow_the_profile(self, tmp_path, monkeypatch):
        (before,) = materialize_traces(load_workload("aes", refs=2000),
                                       tmp_path)
        self._swap_aes_profile(monkeypatch)
        (after,) = materialize_traces(load_workload("aes", refs=2000),
                                      tmp_path)
        assert after != before
        (trace,) = load_workload("aes", refs=2000).traces()
        assert self._aes_writes(after) == sum(r.is_write for r in trace)

    def test_a_concurrent_writer_keeps_its_own_temp_file(self, tmp_path,
                                                         monkeypatch):
        """Another process materialising the same file meanwhile must not
        take this writer's temporary file away."""
        from repro.workloads import trace_io

        save = trace_io.save_trace_columnar
        args = ("aes", 2000, 42, tmp_path)

        def save_while_another_process_writes(records, path):
            count = save(records, path)
            other = multiprocessing.get_context("spawn").Process(
                target=materialize_fuzz_trace, args=args)
            other.start()
            other.join(timeout=120)
            assert other.exitcode == 0
            return count

        monkeypatch.setattr(trace_io, "save_trace_columnar",
                            save_while_another_process_writes)
        assert trace_meta(materialize_fuzz_trace(*args))["records"] == 2000

    def test_source_digest_enters_the_name(self, tmp_path, monkeypatch):
        before = materialize_fuzz_trace("aes", 500, 42, tmp_path)
        from repro.orchestrate import cache

        monkeypatch.setattr(cache, "source_digest", lambda: "another")
        assert materialize_fuzz_trace("aes", 500, 42, tmp_path) != before

    @pytest.mark.skipif(os.name != "posix",
                        reason="unlinking a mapped file is POSIX")
    def test_one_stem_leaves_one_file(self, tmp_path, monkeypatch):
        """Writing a stem under a second digest (another revision's)
        deletes the first file; other stems stay, and a mapping of the
        deleted file still reads."""
        from repro.orchestrate import cache

        first = materialize_fuzz_trace("aes", 500, 42, tmp_path)
        mapped = open_trace(first, shared=False)
        # stems that share a prefix with this one
        others = [tmp_path / f"aes-w5000-s42-{'0' * 16}.coltrace",
                  tmp_path / f"aes-w500-s4-{'0' * 16}.coltrace"]
        for other in others:
            other.write_bytes(b"")
        monkeypatch.setattr(cache, "source_digest", lambda: "another")
        second = materialize_fuzz_trace("aes", 500, 42, tmp_path)
        assert second != first
        assert sorted(tmp_path.iterdir()) == sorted([second, *others])
        assert list(mapped.records()) == list(open_trace(second).records())


class TestStream:
    def test_kernel_shapes(self):
        copy = stream_kernel("copy", elements=16)
        records = list(copy)
        assert len(records) == 32  # 1 read + 1 write per element
        add = stream_kernel("add", elements=16)
        assert len(list(add)) == 48  # 2 reads + 1 write

    def test_reads_before_write_per_element(self):
        triad = stream_kernel("triad", elements=4)
        records = list(triad)
        for i in range(0, len(records), 3):
            assert not records[i].is_write
            assert not records[i + 1].is_write
            assert records[i + 2].is_write

    def test_sequential_addresses(self):
        scale = stream_kernel("scale", elements=8)
        reads = [r.address for r in scale if not r.is_write]
        assert reads == sorted(reads)
        assert reads[1] - reads[0] == 8

    def test_bytes_moved(self):
        assert stream_kernel("copy", elements=100).bytes_moved == 1600
        assert stream_kernel("add", elements=100).bytes_moved == 2400

    def test_arrays_do_not_overlap(self):
        kernel = stream_kernel("copy", elements=64)
        reads = {r.address for r in kernel if not r.is_write}
        writes = {r.address for r in kernel if r.is_write}
        assert not reads & writes

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            stream_kernel("sort")

    def test_element_bounds(self):
        with pytest.raises(ValueError):
            stream_kernel("copy", elements=100, array_bytes=64)

    def test_all_kernels_iterate(self):
        for name in STREAM_KERNELS:
            assert sum(1 for _ in stream_kernel(name, elements=8)) > 0
