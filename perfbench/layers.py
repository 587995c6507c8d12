"""The layer table: which public entry points each layer's span wraps.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` patches the
entry points below from outside for the duration of the traced phase
and restores every original afterwards.  Each span counts the work its
layer did (``<span>.n``: calls, requests, records or lines) and the
recorder turns the spans into self time (``<span>.self_s``).

A call that re-enters a span of the same name (an interposer over an
interposer, a batch fallback over the scalar path of the same backend)
is not a new span: it neither double-counts work nor splits self time.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import time
from dataclasses import replace
from typing import Callable, Optional

from spans import SpanRecorder

__all__ = ["LAYER_SPANS", "Tracer", "TrialTimer", "simulated_values"]


def _one(args, result) -> int:
    return 1


def _none(args, result) -> int:
    return 0


def _len_arg(args, result) -> int:
    return len(args[1])


def _lines_arg(args, result) -> int:
    return sum(extent.lines for extent in args[1])


def _lines_flushed(args, result) -> int:
    return result[0]


def _shards(args, result) -> int:
    return args[0].last_stats.total_shards


_M = "repro.memory"
_PORT = f"{_M}.port"
_DRAM = f"{_M}.dram:DRAMSubsystem"
_PSM = "repro.ocpmem.psm:PSM"
_PMEM_CTL = "repro.pmem.controller:PMEMController"
_NMEM_CTL = "repro.pmem.controller:NMEMController"
_PMEM_DIMM = "repro.pmem.dimm:PMEMDIMM"
_ENGINES = ("repro.engine.scalar:ScalarEngine",
            "repro.engine.window:WindowEngine",
            "repro.engine.extent:ExtentEngine",
            "repro.engine.epoch:EpochEngine")
_INTERPOSERS = (f"{_PORT}:FaultInjector", f"{_PORT}:AddressRangePartition")

#: (span name, entry points, work count) — a class method is
#: ``module:Class.method`` (patched only where the class defines it), a
#: module function ``module:function`` (patched in every module that
#: imported it by name).
LAYERS: tuple[tuple[str, tuple[str, ...], Callable], ...] = (
    ("workloads.trace_io", ("repro.workloads.trace_io:ColumnarTrace.window",),
     _one),
    ("workloads.trace_io", ("repro.workloads.trace_io:open_trace",
                            "repro.workloads.trace_io:trace_meta"), _none),
    ("core.build", ("repro.core.machine:Machine.__init__",), _one),
    ("core.run", ("repro.core.machine:Machine.run",), _one),
    ("cpu.interleave", ("repro.cpu.complex:MultiCoreComplex.run_traces",),
     _none),
    ("cpu.window", ("repro.cpu.core:Core.execute_window",), _len_arg),
    ("engine.drain", tuple(f"{e}.drain" for e in _ENGINES), _one),
    ("engine.flush_cache", tuple(f"{e}.flush_cache" for e in _ENGINES),
     _lines_flushed),
    ("engine.drive_program", tuple(f"{e}.drive_program" for e in _ENGINES),
     _one),
    ("memory.dram", (f"{_DRAM}.access",), _one),
    ("memory.access_batch", tuple(
        f"{cls}.access_batch"
        for cls in (_DRAM, _PSM, _PMEM_CTL, _NMEM_CTL, _PMEM_DIMM)),
     _len_arg),
    ("memory.access_batch_loop", (f"{_M}.batch:default_access_batch",),
     _len_arg),
    ("memory.flush_extents", tuple(
        f"{cls}.flush_extents" for cls in (_DRAM, _PSM, _PMEM_CTL, _NMEM_CTL)
    ) + (f"{_M}.extent:default_flush_extents",), _lines_arg),
    ("memory.interposer", tuple(f"{cls}.access" for cls in _INTERPOSERS),
     _one),
    ("memory.interposer", tuple(f"{cls}.access_batch" for cls in _INTERPOSERS),
     _len_arg),
    ("memory.interposer",
     tuple(f"{cls}.flush_extents" for cls in _INTERPOSERS), _lines_arg),
    ("ocpmem.psm", (f"{_PSM}.access",), _one),
    ("pmem.access",
     tuple(f"{cls}.access" for cls in (_PMEM_CTL, _NMEM_CTL, _PMEM_DIMM)),
     _one),
    ("sim.snapshot", ("repro.sim.stats:StatsRegistry.snapshot",), _one),
    ("power.report", ("repro.core.machine:Machine.power_report",), _one),
    ("pecos.reset_world", ("repro.pecos.kernel:Kernel.reset_world",), _one),
    ("pecos.stop", ("repro.pecos.sng:SnG.stop",), _one),
    ("pecos.go", ("repro.pecos.sng:SnG.go",), _one),
    ("pecos.verify", ("repro.pecos.sng:SnG.verify_resumed_state",), _one),
    ("orchestrate.lease", ("repro.orchestrate.pool:MachinePool.lease",), _one),
    ("orchestrate.shard", ("repro.orchestrate.runner:CampaignRunner.run",
                           "repro.orchestrate.runner:CampaignRunner"
                           ".run_summaries"), _shards),
    ("litmus.observe", ("repro.litmus.engine:observe_state",), _one),
    ("litmus.oracle", ("repro.litmus.oracle:allowed_after",
                       "repro.litmus.oracle:check_observation"), _one),
)

#: records generated per ``workloads.tracegen`` span: each trace stream
#: owns its RNG, so generating ahead changes no record, only when it is
#: made
TRACEGEN_CHUNK = 256

#: every span the traced run reports, in report order
LAYER_SPANS: tuple[str, ...] = tuple(dict.fromkeys(
    ("workloads.tracegen",) + tuple(span for span, _, _ in LAYERS)
    + ("analysis.trial",)))


def _resolve(target: str):
    """``(owner, attribute)`` of a ``module:Class.attr``/``module:fn``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


class _Patcher:
    """Replaces entry points on enter and restores them all on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, target: str, make: Callable[[Callable], Callable]
                 ) -> None:
        owner, attribute = _resolve(target)
        if isinstance(owner, type):
            original = vars(owner).get(attribute)
            if original is None:
                return  # inherited: the defining class is patched
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
            return
        original = getattr(owner, attribute)
        wrapper = make(original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def _time_trials(self, timed: Callable[[Callable], Callable]) -> None:
        """Route every campaign trial function through ``timed``."""
        def make(run_shard: Callable) -> Callable:
            def timed_run_shard(campaign, lo, hi):
                # the fingerprint was taken before the shard runs, and
                # jobs=1 shards run inline, so the wrapper never pickles
                return run_shard(
                    replace(campaign, trial_fn=timed(campaign.trial_fn)),
                    lo, hi)
            return timed_run_shard
        self._replace("repro.orchestrate.runner:run_shard", make)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


class TrialTimer(_Patcher):
    """Host ms of every campaign trial, timed around its trial function.

    The untraced run's only patch: two clock reads per trial.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ms: list[float] = []

    def __enter__(self) -> "TrialTimer":
        clock = time.perf_counter
        record = self.ms.append

        def timed(trial_fn: Callable) -> Callable:
            def trial(*args, **kwargs):
                start = clock()
                try:
                    return trial_fn(*args, **kwargs)
                finally:
                    record((clock() - start) * 1e3)
            return trial
        self._time_trials(timed)
        return self


class Tracer(_Patcher):
    """Context manager: spans around every layer entry point.

    While active it also keeps what the public outputs say about the
    simulated work — every ``RunResult`` from ``Machine.run`` and every
    Stop/Go report — for :func:`simulated_values`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.recorder = SpanRecorder()
        #: records executed through ``Core.execute`` (no span of their
        #: own: they run inside ``cpu.interleave``)
        self.executed = 0
        self.runs: list = []
        self.stops: list = []
        self.goes: list = []

    def _span_wrapper(self, span: str, work: Callable,
                      tap: Optional[list] = None):
        recorder = self.recorder
        nid = recorder.name_id(span)
        open_names = recorder.open_names
        begin = recorder.begin
        finish = recorder.finish

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                if open_names[-1] == nid:
                    return original(*args, **kwargs)
                index = begin(nid)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    finish(index, 0)
                    raise
                finish(index, work(args, result))
                if tap is not None:
                    tap.append(result)
                return result
            return traced
        return make

    def _tracegen(self, original: Callable) -> Callable:
        recorder = self.recorder
        nid = recorder.name_id("workloads.tracegen")

        def records(generator, count):
            stream = original(generator, count)
            while True:
                index = recorder.begin(nid)
                chunk = list(itertools.islice(stream, TRACEGEN_CHUNK))
                recorder.finish(index, len(chunk))
                if not chunk:
                    return
                yield from chunk
        return records

    def _count_execute(self, original: Callable) -> Callable:
        def execute(*args, **kwargs):
            self.executed += 1
            return original(*args, **kwargs)
        return execute

    def __enter__(self) -> "Tracer":
        taps = {"core.run": self.runs, "pecos.stop": self.stops,
                "pecos.go": self.goes}
        span = self.span

        def timed(trial_fn: Callable) -> Callable:
            def trial(*args, **kwargs):
                with span("analysis.trial"):
                    return trial_fn(*args, **kwargs)
            return trial
        try:
            self._replace("repro.workloads.trace:TraceGenerator.records",
                          self._tracegen)
            self._replace("repro.cpu.core:Core.execute", self._count_execute)
            self._time_trials(timed)
            for span_name, targets, work in LAYERS:
                make = self._span_wrapper(span_name, work,
                                          taps.get(span_name))
                for target in targets:
                    self._replace(target, make)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def span(self, name: str) -> "_Span":
        """A span opened by the benchmark itself (``analysis.<id>``)."""
        return _Span(self.recorder, self.recorder.name_id(name))

    def layer_totals(self) -> tuple[dict[str, tuple[int, float]], float]:
        """:meth:`SpanRecorder.totals` plus the work counted outside spans."""
        totals, root_s = self.recorder.totals()
        _, self_s = totals.get("cpu.interleave", (0, 0.0))
        totals["cpu.interleave"] = (self.executed, self_s)
        return totals, root_s


class _Span:
    __slots__ = ("recorder", "nid", "index")

    def __init__(self, recorder: SpanRecorder, nid: int) -> None:
        self.recorder = recorder
        self.nid = nid

    def __enter__(self) -> None:
        self.index = self.recorder.begin(self.nid)

    def __exit__(self, *exc) -> None:
        self.recorder.finish(self.index, 1)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def simulated_values(tracer: Tracer) -> dict[str, float]:
    """Simulated per-layer values from the outputs the tracer kept.

    They come from the simulator's public results, not from host
    clocks, so they repeat exactly on the same inputs.
    """
    runs = tracer.runs
    epochs = [run.epoch for run in runs if run.epoch]
    skipped = sum(epoch["records_skipped"] for epoch in epochs)
    exact = sum(epoch["records_exact"] for epoch in epochs)

    def counter(key: str) -> float:
        return float(sum(run.backend_counters.get(key, 0) for run in runs))

    return {
        "cpu.dcache.read_hit": _mean([run.cache_read_hit for run in runs]),
        "cpu.dcache.write_hit": _mean([run.cache_write_hit for run in runs]),
        "cpu.stall_frac": _mean([run.complex_result.memory_stall_fraction
                                 for run in runs]),
        "engine.epoch.skip_frac": skipped / (skipped + exact)
        if skipped + exact else 0.0,
        "engine.epoch.records_skipped": float(skipped),
        "memory.row_buffer_hit": _mean([run.row_buffer_hit for run in runs]),
        "ocpmem.read_blocked_ns": counter("read_blocked_ns"),
        "ocpmem.media_line_writes": counter("media_line_writes"),
        "ocpmem.reconstructions": counter("reconstructions"),
        "pecos.stop_ns": _mean([stop.total_ns for stop in tracer.stops]),
        "pecos.go_ns": _mean([go.total_ns for go in tracer.goes]),
        "pecos.lines_flushed": _mean([stop.cachelines_flushed
                                      for stop in tracer.stops]),
    }
