"""The benchmark's workloads: what runs, how it is checked, why.

Each workload is a closed loop run by one client: it repeats *passes*
(a fixed list of operations) back to back.  Pass ``i`` is a pure
function of the workload seed and ``i``, so the traced run can repeat
exactly the passes the untraced run timed.  Everything runs serially in
this process (``jobs=1``) and starts with empty modelled caches, as
every run of the repository does.

The simulator is imported in :meth:`Workload.setup`, so set-up time
covers the imports.
"""

from __future__ import annotations

import hashlib
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

from layers import TrialTimer

__all__ = ["FIGURES", "Op", "Pass", "WORKLOADS", "derive_seed"]

#: The 14 paper tables/figures in ``repro bench all`` order (sorted ids),
#: with the arguments of the ``benchmarks/bench_<id>.py`` files that
#: wrote the committed ``benchmarks/results/<id>.md``.
_MATRIX = {"jobs": 1, "seed": 42, "cache_dir": None}
FIGURES: tuple[tuple[str, str, dict], ...] = (
    ("fig14", "figure14", {"refs": 10_000}),
    ("fig15", "figure15", {"refs": 16_000}),
    ("fig16", "figure16", {"refs": 16_000}),
    ("fig17", "figure17", {"elements": 24_000}),
    ("fig18", "figure18", {"refs": 16_000}),
    ("fig19", "figure19", {"refs": 16_000}),
    ("fig20", "figure20", {"refs": 16_000, **_MATRIX}),
    ("fig21", "figure21", {"refs": 16_000, **_MATRIX}),
    ("fig22", "figure22", dict(_MATRIX)),
    ("fig2b", "figure2b", {"samples": 4_000}),
    ("fig4", "figure4", {"refs": 12_000}),
    ("fig8", "figure8", {}),
    ("tab1", "table1", {}),
    ("tab2", "table2", {"refs": 16_000}),
)

_TRIAL_ID = re.compile(r"trial (\d+)\b")


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """A 32-bit input seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{tag}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Op:
    """One timed operation: a table, a cell run or a campaign trial."""

    name: str
    ms: float
    ok: bool = True
    detail: str = ""
    #: what the check compares (a ``RunResult`` for long-run cells)
    result: Any = None


@dataclass
class Pass:
    """One pass: its operations, its host seconds, its simulated work."""

    ops: list[Op]
    seconds: float = 0.0
    #: simulated counts from this pass's campaign reports, which
    #: :meth:`Workload.layer_values` folds into per-layer values
    values: dict[str, float] = field(default_factory=dict)


class Workload:
    """A fixed list of operations, repeated; see :data:`WORKLOADS`."""

    name = ""
    why = ""
    #: work items per pass (tables, simulated trace references, trials)
    work_per_pass = 0

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, tracer=None) -> Pass:
        raise NotImplementedError

    def verify(self, passes: list[Pass]) -> dict[str, float]:
        """Checks outside the timed phase; returns per-layer values."""
        return {}

    def layer_values(self, untraced: list[Pass],
                     traced: list[Pass]) -> dict[str, float]:
        """Per-layer values this workload measures itself."""
        return {}

    def latencies_ms(self, passes: list[Pass]) -> list[float]:
        """Host ms of each distinct request, the median over passes when
        a request repeats; ``op_p50_ms`` is their median.

        Requests of different cost are weighed once each, so the median
        cannot flip between two cost clusters from one run to the next.
        """
        by_name: dict[str, list[float]] = {}
        for op in (op for one in passes for op in one.ops if op.ok):
            by_name.setdefault(op.name, []).append(op.ms)
        return [statistics.median(ms) for ms in by_name.values()]


def _failed(op_name: str, error: BaseException) -> Op:
    """A failed operation, with the traceback for the report."""
    return Op(op_name, 0.0, ok=False,
              detail="".join(traceback.format_exception(error)).strip())


class PaperFigures(Workload):
    name = "paper-figures"
    why = ("the 14 paper tables and figures, checked byte for byte against "
           "the committed results")
    work_per_pass = len(FIGURES)
    figures = FIGURES

    def setup(self, seed: int, workdir: Path) -> None:
        # The committed configuration: the check is against committed
        # tables, so the workload seed does not enter.
        import repro.analysis as analysis
        from repro.analysis import experiments

        self.analysis = analysis
        self.clear_cache = experiments._matrix_cached.cache_clear
        results = Path(__file__).resolve().parent.parent / "benchmarks" \
            / "results"
        self.expected = {fid: (results / f"{fid}.md").read_text()
                         for fid, _, _ in self.figures}

    def run_pass(self, index: int, tracer=None) -> Pass:
        # No figure result survives from an earlier pass: each pass is a
        # fresh ``repro bench all``.
        self.clear_cache()
        ops = []
        for fid, driver, kwargs in self.figures:
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = getattr(self.analysis, driver)(**kwargs)
                else:
                    with tracer.span(f"analysis.{fid}"):
                        result = getattr(self.analysis, driver)(**kwargs)
                text = self.analysis.render_result(result) + "\n"
            except Exception as error:  # counted as a failed operation
                ops.append(_failed(fid, error))
                continue
            ms = (time.perf_counter() - start) * 1e3
            ok = text == self.expected[fid]
            ops.append(Op(fid, ms, ok, "" if ok else
                          "differs from benchmarks/results"))
        return Pass(ops)

    def latencies_ms(self, passes: list[Pass]) -> list[float]:
        # The request is the whole regeneration, ``repro bench all``.
        return [one.seconds * 1e3 for one in passes]


def run_digest(result) -> tuple:
    """What an exact engine must reproduce: wall, IPC, energy, backend
    counters and the stats tree."""
    return (result.wall_ns, result.ipc, result.energy_j,
            result.backend_counters, result.stats)


class LongRun(Workload):
    """``Machine.run`` over two long single-thread traces."""

    name = "long-run"
    why = ("long mcf and bzip2 traces on legacy and lightpc under the "
           "exact extent engine, checked against the scalar engine")
    engine = "extent"
    #: trace references per cell
    refs = 200_000
    cells = tuple((workload, platform) for workload in ("mcf", "bzip2")
                  for platform in ("legacy", "lightpc"))

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.core.machine import Machine
        from repro.workloads.suites import load_workload

        self.machine = Machine
        trace_seed = derive_seed(seed, "trace")
        self.loaded = {name: load_workload(name, refs=self.refs,
                                           seed=trace_seed)
                       for name in {name for name, _ in self.cells}}
        self.work_per_pass = sum(self.loaded[name].total_refs()
                                 for name, _ in self.cells)

    def run_cell(self, name: str, platform: str, engine: str):
        workload = self.loaded[name]
        machine = self.machine.for_workload(platform, workload,
                                            engine=engine)
        return machine.run(workload)

    def run_pass(self, index: int, tracer=None) -> Pass:
        ops = []
        for name, platform in self.cells:
            start = time.perf_counter()
            try:
                result = self.run_cell(name, platform, self.engine)
            except Exception as error:  # counted as a failed operation
                ops.append(_failed(f"{name}/{platform}", error))
                continue
            ops.append(Op(f"{name}/{platform}",
                          (time.perf_counter() - start) * 1e3,
                          result=result))
        return Pass(ops)

    def checked(self, passes: list[Pass], engine: str
                ) -> Iterator[tuple[Op, Any]]:
        """``(op, reference result)`` for every op still ok, the
        reference being its cell run once more under ``engine``.  An op
        whose reference run raises fails instead."""
        references: dict[str, Any] = {}
        for name, platform in self.cells:
            try:
                result = self.run_cell(name, platform, engine)
            except Exception as error:  # the cell's ops fail below
                result = error
            references[f"{name}/{platform}"] = result
        for op in (op for one in passes for op in one.ops if op.ok):
            reference = references[op.name]
            if isinstance(reference, Exception):
                op.ok = False
                op.detail = f"the {engine} engine raised {reference!r}"
            else:
                yield op, reference

    def verify(self, passes: list[Pass]) -> dict[str, float]:
        for op, reference in self.checked(passes, "scalar"):
            if run_digest(op.result) != run_digest(reference):
                op.ok = False
                op.detail = "differs from the scalar engine"
        return {}


class LongRunEpoch(LongRun):
    """The same cells under the analytical ``epoch`` engine."""

    name = "long-run-epoch"
    why = ("the long-run cells under the analytical epoch engine, its wall "
           "time error measured against the extent engine")
    engine = "epoch"

    def verify(self, passes: list[Pass]) -> dict[str, float]:
        # An epoch cell fails only on an exception; its accuracy is the
        # simulated wall-time error against the exact engine.
        errors = [abs(op.result.wall_ns - exact.wall_ns) / exact.wall_ns
                  for op, exact in self.checked(passes, "extent")]
        return {"engine.epoch.wall_err": max(errors, default=0.0)}


class _Campaign(Workload):
    #: trials per pass
    work_per_pass = 64

    def campaigns(self, index: int) -> list[Callable[[], Any]]:
        """Pass ``index``'s serial campaigns, each returning its report."""
        raise NotImplementedError

    def run_pass(self, index: int, tracer=None) -> Pass:
        ops: list[Op] = []
        values: dict[str, float] = {}
        for number, campaign in enumerate(self.campaigns(index)):
            name = f"{index}.{number}"
            try:
                with TrialTimer() as timer:
                    report = campaign()
            except Exception as error:  # every trial of it failed
                ops.append(_failed(f"{name}:*", error))
                continue
            bad = {int(match.group(1)) for match in
                   map(_TRIAL_ID.match, report.violations) if match}
            unparsed = any(not _TRIAL_ID.match(line)
                           for line in report.violations)
            ops += [Op(f"{name}:{trial}", ms,
                       ok=trial not in bad and not unparsed,
                       detail="violation" if trial in bad or unparsed else "")
                    for trial, ms in enumerate(timer.ms)]
            for key, value in self.values(report).items():
                values[key] = values.get(key, 0.0) + value
        if len(ops) != self.work_per_pass:
            ops.append(Op(f"{index}:count", 0.0, ok=False,
                          detail=f"{len(ops)} trials"))
        return Pass(ops, values=values)

    def values(self, report) -> dict[str, float]:
        """What a campaign report adds to its pass's ``values``."""
        return {}

    def layer_values(self, untraced: list[Pass],
                     traced: list[Pass]) -> dict[str, float]:
        # The tail comes from the untraced trials: tracing inflates it.
        trial_ms = [op.ms for one in untraced for op in one.ops if op.ok]
        values = {"orchestrate.trial_samples": float(len(trial_ms))}
        if len(trial_ms) >= 2:
            values["orchestrate.trial_p99_ms"] = statistics.quantiles(
                trial_ms, n=100)[98]
        return values


class CrashCampaign(_Campaign):
    name = "crash-campaign"
    why = ("warm serial crashfuzz over windows of one materialised trace: "
           "pool reset, SnG Stop/Go and resumed-state checks dominate")
    #: the fuzzer's default aes trace length and window
    refs = 120_000
    window = 192

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.analysis.crashfuzz import fuzz_trace, \
            materialize_fuzz_trace

        self.seed = seed
        self.fuzz_trace = fuzz_trace
        self.trace_seed = derive_seed(seed, "trace")
        self.trace_path = materialize_fuzz_trace(
            "aes", self.refs, self.trace_seed, workdir / "traces")

    def campaigns(self, index: int) -> list[Callable[[], Any]]:
        return [partial(self.fuzz_trace, trials=self.work_per_pass,
                        window=self.window,
                        seed=derive_seed(self.seed, "campaign", index),
                        refs=self.refs, trace_seed=self.trace_seed,
                        trace_path=self.trace_path)]


class LitmusSweep(_Campaign):
    name = "litmus-sweep"
    why = ("serial litmus campaigns over all shapes and all three exact "
           "lowerings: enumeration, oracle, interposers, batch windows")
    #: programs per shape and pass: every pass holds each shape in the
    #: same proportion, so the trial-cost mix does not drift with the seed
    per_shape = 13

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.litmus.campaign import run_litmus
        from repro.litmus.generate import SHAPES

        self.seed = seed
        self.run_litmus = run_litmus
        self.shapes = sorted(SHAPES)
        self.work_per_pass = self.per_shape * len(self.shapes)

    def campaigns(self, index: int) -> list[Callable[[], Any]]:
        return [partial(self.run_litmus, trials=self.per_shape, shape=shape,
                        seed=derive_seed(self.seed, f"campaign/{shape}",
                                         index))
                for shape in self.shapes]

    def values(self, report) -> dict[str, float]:
        return {"crash_points": report.crash_points,
                "executed": report.executed, "deduped": report.deduped}

    def layer_values(self, untraced: list[Pass],
                     traced: list[Pass]) -> dict[str, float]:
        values = super().layer_values(untraced, traced)
        # a campaign that raised added nothing to its pass's values
        summed = {key: sum(one.values.get(key, 0) for one in traced)
                  for key in ("crash_points", "executed", "deduped")}
        programs = summed["deduped"] + summed["executed"]
        values["litmus.crash_points"] = summed["crash_points"]
        values["litmus.dedup_frac"] = summed["deduped"] / programs \
            if programs else 0.0
        return values


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperFigures, LongRun, LongRunEpoch,
                              CrashCampaign, LitmusSweep)
}
