"""Crash-consistency fuzzing: kill the power anywhere, verify invariants.

The paper validates LightPC by physically pulling AC from the prototype;
a simulation can do it thousands of times at adversarial instants.  Each
fuzzer drives a functional component with a random operation stream,
crashes it at a random point, recovers, and checks the component's
consistency contract:

* :func:`fuzz_psm` — raw OC-PMEM.  Contract: after a crash, every
  *flushed* line reads back exactly; every unflushed line reads back as
  **some version ever written to it** (a background row-buffer drain may
  have made it durable) or its pre-write contents — never garbage and
  never a mix of versions within one line.
* :func:`fuzz_pool` — the libpmemobj-like pool.  Contract: committed
  transactions are fully visible, the interrupted transaction (if any)
  is fully rolled back.
* :func:`fuzz_sector` — the BTT block device.  Contract: every sector
  reads back as a whole version ever written to it (no torn sectors).
* :func:`fuzz_machine` — the whole platform.  Contract: when Stop fits
  the hold-up window the machine warm-boots to a byte-identical EP-cut;
  when it does not, the boot is cold (never a half-restored world).

Each trial is a pure function of ``(trial_index, rng)`` — the RNG is
injected by :mod:`repro.orchestrate`, derived from ``(campaign_seed,
trial_index)``, so a trial's coverage never depends on earlier trials,
other campaigns in the same process, or how the campaign is sharded
across workers.  Each campaign returns a :class:`FuzzReport`; an empty
``violations`` list is the pass condition (asserted by
``tests/test_crashfuzz.py`` and runnable standalone via
``python -m repro.analysis.crashfuzz`` or ``lightpc-repro fuzz``).
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.core.machine import Machine
from repro.memory.port import FaultInjector, InjectedPowerFailure
from repro.memory.request import MemoryOp, MemoryRequest
from repro.ocpmem.psm import PSM, PSMConfig
from repro.orchestrate import (
    Campaign,
    CampaignProgress,
    CampaignRunner,
    machine_for_workload,
)
from repro.pmem.controller import PMEMController
from repro.pmem.dimm import PMEMDIMM
from repro.pmem.pmdk import PersistentObjectPool
from repro.pmem.sector import SECTOR_BYTES, SectorDevice
from repro.power.psu import ATX_PSU, PSUModel
from repro.workloads.suites import (
    ReplayWorkload,
    _materialize_stream,
    _Replayable,
    load_workload,
    spec,
)
from repro.workloads.trace_io import shared_trace

__all__ = [
    "FuzzReport",
    "TrialOutcome",
    "fuzz_machine",
    "fuzz_pool",
    "fuzz_psm",
    "fuzz_sector",
    "fuzz_trace",
    "machine_trial",
    "pool_trial",
    "psm_trial",
    "sector_trial",
    "trace_trial",
]


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    component: str
    trials: int
    operations: int = 0
    crashes: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (f"{self.component}: {self.trials} trials, "
                f"{self.operations} ops, {self.crashes} crashes -> {verdict}")


@dataclass
class TrialOutcome:
    """One trial's contribution to a campaign: counters plus violations."""

    operations: int = 0
    crashes: int = 0
    violations: list[str] = field(default_factory=list)


def _merge_outcomes(component: str, outcomes: list[TrialOutcome]) -> FuzzReport:
    """Fold per-trial outcomes into one report, in trial-index order."""
    report = FuzzReport(component=component, trials=len(outcomes))
    for outcome in outcomes:
        report.operations += outcome.operations
        report.crashes += outcome.crashes
        report.violations.extend(outcome.violations)
    return report


def _run_campaign(
    component: str,
    trial_fn: Callable[..., TrialOutcome],
    trials: int,
    seed: int,
    params: dict,
    jobs: int,
    cache_dir,
    progress: Optional[CampaignProgress],
    shared: Optional[dict] = None,
) -> FuzzReport:
    runner = CampaignRunner(jobs=jobs, cache_dir=cache_dir, progress=progress)
    # Streaming merge: shards contribute columnar sums (and cached
    # shards just their meta header) — numerically identical to folding
    # per-trial outcomes through _merge_outcomes, without ever
    # reconstructing them.
    summary = runner.run_summaries(Campaign(
        name=component, trials=trials, trial_fn=trial_fn,
        seed=seed, params=params, shared=shared or {},
    ))
    return FuzzReport(
        component=component,
        trials=summary.trials,
        operations=summary.total("operations"),
        crashes=summary.total("crashes"),
        violations=list(summary.violations),
    )


def _line_value(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * 64


# ---------------------------------------------------------------------------
# per-trial functions (module-level so shards pickle into worker processes)
# ---------------------------------------------------------------------------


def psm_trial(trial: int, rng: random.Random, ops: int = 120) -> TrialOutcome:
    """One random write/flush stream against OC-PMEM, crashed mid-run.

    The power cut comes from the port layer's
    :class:`~repro.memory.port.FaultInjector` — the stream runs through
    the interposer and the injector raises at the scheduled operation,
    exactly where the paper pulls AC — instead of the fuzzer poking the
    PSM's internals to decide when to die.
    """
    outcome = TrialOutcome()
    psm = PSM(PSMConfig(lines_per_dimm=1 << 10), functional=True)
    port = FaultInjector(psm, crash_at_op=rng.randrange(1, ops))
    lines = 24
    flushed: dict[int, int] = {}      # line -> version durable for sure
    history: dict[int, set[int]] = {i: {-1} for i in range(lines)}
    speculative: dict[int, int] = {}
    t = 0.0
    version = 0
    try:
        for _ in range(ops):
            outcome.operations += 1
            if rng.random() < 0.25:
                t = port.flush(t)
                flushed.update(speculative)
                speculative.clear()
            else:
                line = rng.randrange(lines)
                version += 1
                response = port.access(MemoryRequest(
                    MemoryOp.WRITE, address=line * 64,
                    data=_line_value(version), time=t))
                t = response.complete_time
                speculative[line] = version
                history[line].add(version)
    except InjectedPowerFailure:
        pass
    port.power_fail()
    outcome.crashes += 1
    for line in range(lines):
        response = port.access(MemoryRequest(
            MemoryOp.READ, address=line * 64, time=0.0))
        value = response.data
        observed = value[0] if value and any(value) else -1
        allowed = {v & 0xFF if v >= 0 else -1 for v in history[line]}
        if observed not in allowed:
            outcome.violations.append(
                f"trial {trial}: line {line} reads version {observed}, "
                f"never written (allowed {sorted(allowed)})")
            continue
        if value and any(value) and len(set(value)) != 1:
            outcome.violations.append(
                f"trial {trial}: line {line} torn (mixed versions)")
        if line in flushed and speculative.get(line) is None:
            if observed != (flushed[line] & 0xFF):
                outcome.violations.append(
                    f"trial {trial}: flushed line {line} lost "
                    f"(wanted {flushed[line] & 0xFF}, got {observed})")
    return outcome


def pool_trial(trial: int, rng: random.Random, txs: int = 10) -> TrialOutcome:
    """One random transaction stream, crashed inside a random transaction."""
    outcome = TrialOutcome()
    pool = PersistentObjectPool(1 << 18)
    oid = pool.alloc(256)
    committed = bytearray(256)
    crash_in_tx = rng.randrange(txs)
    for tx_index in range(txs):
        image = bytearray(committed)
        writes = [(rng.randrange(0, 256 - 8), bytes([rng.randrange(1, 256)]) * 8)
                  for _ in range(rng.randrange(1, 5))]
        tx = pool.tx_begin()
        for offset, blob in writes:
            pool.write(oid, offset, blob)
            image[offset:offset + 8] = blob
            outcome.operations += 1
        if tx_index == crash_in_tx:
            pool.crash()
            outcome.crashes += 1
            break
        tx.__exit__(None, None, None)
        committed = image
    pool.recover()
    state = pool.read(oid, 0, 256)
    if state != bytes(committed):
        outcome.violations.append(
            f"trial {trial}: pool state mixes committed and "
            f"uncommitted transaction effects")
    return outcome


def sector_trial(trial: int, rng: random.Random,
                 writes: int = 30) -> TrialOutcome:
    """Random sector writes; one of them is torn by power loss."""
    outcome = TrialOutcome()
    pmem = PMEMController([PMEMDIMM(capacity=1 << 20) for _ in range(2)])
    device = SectorDevice(pmem, sectors=8)
    versions: dict[int, set[bytes]] = {
        s: {bytes(SECTOR_BYTES)} for s in range(8)}
    expected: dict[int, bytes] = {
        s: bytes(SECTOR_BYTES) for s in range(8)}
    torn_at = rng.randrange(writes)
    for index in range(writes):
        sector = rng.randrange(8)
        payload = bytes([rng.randrange(256)]) * SECTOR_BYTES
        outcome.operations += 1
        if index == torn_at:
            device.write_sector(sector, payload,
                                crash_before_commit=True)
            versions[sector].add(payload)  # may or may not survive
            break
        device.write_sector(sector, payload)
        expected[sector] = payload
        versions[sector].add(payload)
    device.crash_and_reattach()
    outcome.crashes += 1
    for sector in range(8):
        value = device.read_sector(sector)
        if value != expected[sector]:
            outcome.violations.append(
                f"trial {trial}: sector {sector} lost a committed write")
        if value not in versions[sector]:
            outcome.violations.append(
                f"trial {trial}: sector {sector} torn")
    return outcome


def _crash_recover_verify(machine: Machine, trial: int, psu: PSUModel,
                          outcome: TrialOutcome) -> None:
    """The shared power-fail/recover/verify tail of the machine fuzzers."""
    fail = machine.power_fail(psu)
    outcome.crashes += 1
    go = machine.recover()
    if fail.survived:
        if not go.warm:
            outcome.violations.append(
                f"trial {trial}: Stop fit the window but boot was cold")
        elif not machine.sng.verify_resumed_state():
            outcome.violations.append(
                f"trial {trial}: resumed world differs from the EP-cut")
    elif go.warm:
        outcome.violations.append(
            f"trial {trial}: Stop missed the window yet warm-booted")


def machine_trial(trial: int, rng: random.Random,
                  psu: PSUModel = ATX_PSU,
                  engine: Optional[str] = None) -> TrialOutcome:
    """One whole-platform power-fail/recover cycle at a random run length.

    The machine is leased from the worker's
    :class:`~repro.orchestrate.pool.MachinePool` (reset between trials);
    the reset contract makes it byte-identical to a fresh build, which
    the fuzz goldens and the fast-path conformance battery enforce.
    """
    outcome = TrialOutcome()
    refs = rng.randrange(1_000, 6_000)
    workload = load_workload("aes", refs=refs, seed=trial)
    machine = machine_for_workload("lightpc", workload, functional=True,
                                   engine=engine)
    machine.run(workload)
    outcome.operations += refs
    _crash_recover_verify(machine, trial, psu, outcome)
    return outcome


def trace_trial(trial: int, rng: random.Random,
                window: int = 192,
                workload: str = "aes",
                psu: PSUModel = ATX_PSU,
                engine: Optional[str] = None,
                refs: int = 0,
                trace_seed: int = 0,
                trace_path: str = "") -> TrialOutcome:
    """Replay one random window of a shared trace, then crash/recover.

    The trace-window fuzzer: the campaign materialises one columnar
    (v2) trace file up front and every trial replays a random
    ``window`` of it, a constant-time zero-copy view of a
    process-shared mapping, on a machine leased from the worker's pool.
    ``trace_path`` arrives through ``Campaign.shared`` (it names
    *where* the records live, never what they are, so it stays out of
    the cache fingerprint).
    """
    if not trace_path:
        raise ValueError("trace_trial needs a trace_path (Campaign.shared)")
    trace = shared_trace(trace_path)
    if trace is None:
        raise ValueError(
            f"{trace_path}: a row-format (v1) trace has no columnar "
            f"windows; write a columnar one with "
            f"`repro trace export --columnar`")
    outcome = TrialOutcome()
    count = trace.count
    if refs and count != refs:
        # ``refs``/``trace_seed`` are the fingerprinted *content* pins;
        # a mismatched file means the transport path lied about them.
        raise ValueError(
            f"{trace_path}: {count} records, campaign expects {refs}")
    span = min(window, count)
    lo = rng.randrange(0, count - span + 1)
    replay = ReplayWorkload(spec=spec(workload),
                            streams=(trace.window(lo, lo + span),),
                            refs=span)
    machine = machine_for_workload("lightpc", replay, functional=True,
                                   engine=engine)
    machine.run(replay)
    outcome.operations += span
    _crash_recover_verify(machine, trial, psu, outcome)
    return outcome


# ---------------------------------------------------------------------------
# campaign wrappers
# ---------------------------------------------------------------------------


def fuzz_psm(trials: int = 20, ops: int = 120, seed: int = 0, *,
             jobs: int = 1, cache_dir=None,
             progress: Optional[CampaignProgress] = None) -> FuzzReport:
    """Random write/flush streams against OC-PMEM, crash at a random op."""
    return _run_campaign("psm", psm_trial, trials, seed, {"ops": ops},
                         jobs, cache_dir, progress)


def fuzz_pool(trials: int = 20, txs: int = 10, seed: int = 1, *,
              jobs: int = 1, cache_dir=None,
              progress: Optional[CampaignProgress] = None) -> FuzzReport:
    """Random transaction streams; crash inside a random transaction."""
    return _run_campaign("pmdk-pool", pool_trial, trials, seed, {"txs": txs},
                         jobs, cache_dir, progress)


def fuzz_sector(trials: int = 12, writes: int = 30, seed: int = 2, *,
                jobs: int = 1, cache_dir=None,
                progress: Optional[CampaignProgress] = None) -> FuzzReport:
    """Random sector writes; a random one is torn by power loss."""
    return _run_campaign("sector-device", sector_trial, trials, seed,
                         {"writes": writes}, jobs, cache_dir, progress)


def fuzz_machine(trials: int = 4, seed: int = 3, psu: PSUModel = ATX_PSU, *,
                 engine: Optional[str] = None,
                 jobs: int = 1, cache_dir=None,
                 progress: Optional[CampaignProgress] = None) -> FuzzReport:
    """Whole-platform power-fail/recover cycles at random run lengths.

    ``engine`` selects the execution engine the fuzzed machines run
    through (registry name); it joins the campaign fingerprint so
    cached shards never alias across engines.
    """
    params: dict = {"psu": psu}
    if engine is not None:
        from repro.engine.base import canonical_engine_name

        params["engine"] = canonical_engine_name(engine)
    return _run_campaign("machine", machine_trial, trials, seed, params,
                         jobs, cache_dir, progress)


def materialize_fuzz_trace(workload: str = "aes", refs: int = 120_000,
                           trace_seed: int = 42,
                           trace_dir=None) -> Path:
    """Write (once) the columnar trace a trace-window campaign replays.

    Content-addressed under ``trace_dir`` (default: a ``repro-traces``
    directory in the system temp dir), so repeated campaigns — and
    every worker of one — share a single file mapped read-only.
    """
    from repro.workloads.trace import TraceGenerator

    directory = Path(trace_dir) if trace_dir is not None else (
        Path(tempfile.gettempdir()) / "repro-traces")
    # The workload's thread-0 stream shape, scaled to ``refs`` records
    # (window trials replay a single stream).
    stream = _Replayable(
        TraceGenerator(spec(workload).profile, seed=trace_seed * 1009), refs)
    return _materialize_stream(stream, directory,
                               f"{workload}-w{refs}-s{trace_seed}")


def fuzz_trace(trials: int = 200, window: int = 192, seed: int = 4, *,
               workload: str = "aes", refs: int = 120_000,
               trace_seed: int = 42, trace_path=None, trace_dir=None,
               psu: PSUModel = ATX_PSU, engine: Optional[str] = None,
               jobs: int = 1, cache_dir=None,
               progress: Optional[CampaignProgress] = None) -> FuzzReport:
    """Power-fail/recover cycles over random windows of one shared trace.

    The campaign-throughput fast path end to end: a columnar trace
    materialised once, zero-copy windows per trial, pooled machines in
    warm workers, columnar shard summaries back.  ``trace_path``
    overrides materialisation with an already written columnar trace of
    the same content; the path itself stays out of the fingerprint.
    """
    if trace_path is None:
        trace_path = materialize_fuzz_trace(workload, refs, trace_seed,
                                            trace_dir)
    # refs/trace_seed pin the trace *content* into the fingerprint even
    # though the path (transport) stays out of it.
    params: dict = {"window": window, "workload": workload, "psu": psu,
                    "refs": refs, "trace_seed": trace_seed}
    if engine is not None:
        from repro.engine.base import canonical_engine_name

        params["engine"] = canonical_engine_name(engine)
    return _run_campaign("trace", trace_trial, trials, seed, params,
                         jobs, cache_dir, progress,
                         shared={"trace_path": str(trace_path)})


def main() -> None:  # pragma: no cover - exercised as a CLI
    for fuzzer in (fuzz_psm, fuzz_pool, fuzz_sector, fuzz_machine):
        print(fuzzer().summary())


if __name__ == "__main__":  # pragma: no cover
    main()
