"""Compound-fault drills: nested cuts and degraded media, oracle-checked.

One drill = one litmus program × one :class:`~repro.faults.plan.FaultPlan`,
driven by the litmus lowering (:func:`~repro.litmus.engine.drive_program`)
through the chain

    CompoundFaultInjector(MediaFaultModel(litmus_backend(program)))

with a looping Go protocol: each power failure power-cycles the chain,
issues one BCB probe read (the crash-during-Go window — the wear
registers are *not yet restored*), restores the committed wear blob,
then scrub-reads every observe line.  A later scheduled cut lands
anywhere in that traffic, and recovery simply runs again — Go is
idempotent, and the drill proves it stays so.

The oracle story: recovery traffic is read-only, so no matter how many
cuts land inside Go, the recovered state must be one the *first* cut
already allowed (`PersistencyModel.recovery_is_idempotent`), and no read
may hand the host corrupt bytes (`media_errors_contained`).  The
existing :func:`~repro.litmus.oracle.allowed_after` fold therefore
checks compound runs with ``crash_at = plan.cuts[0]`` — plus a direct
cross-check executing the plan truncated to its first cut and demanding
byte-identical observations.

On a violation, :func:`minimize_drill` delta-minimizes over *both* the
program's ops and the plan's cuts and media faults, so the reported
counterexample is 1-minimal in the whole scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.faults.compound import CompoundFaultInjector
from repro.faults.media import MediaFaultModel
from repro.faults.plan import FaultPlan, generate_plan
from repro.litmus.engine import drive_program, litmus_backend, observe_state
from repro.litmus.generate import generate_program
from repro.litmus.ir import (
    LitmusProgram,
    build_timeline,
    prefix_events,
    total_ticks,
)
from repro.litmus.oracle import (
    Counterexample,
    PersistencyModel,
    allowed_after,
    check_observation,
)
from repro.memory.port import InjectedPowerFailure
from repro.memory.request import CACHELINE_BYTES, MemoryOp, MemoryRequest
from repro.orchestrate import Campaign, CampaignProgress, CampaignRunner

__all__ = [
    "DrillOutcome",
    "DrillReport",
    "DrillRun",
    "DrillVerdict",
    "drill_trial",
    "execute_plan",
    "minimize_drill",
    "run_drill",
    "run_drill_program",
]


@dataclass
class DrillRun:
    """One execution of one plan: final state plus accounting."""

    observed: dict[int, tuple[int, bool]]
    crashed: bool
    recoveries: int
    counters: dict[str, int]


def execute_plan(
    program: LitmusProgram,
    plan: FaultPlan,
    *,
    remap_enabled: bool = True,
) -> DrillRun:
    """Run ``program`` under ``plan``, to quiescence.

    The recovery loop terminates because every iteration either
    completes cleanly or consumes one scheduled cut, and the schedule
    is finite.  Before the final observation the injector is disarmed:
    a cut index beyond all program + recovery traffic never fires.
    """
    media = MediaFaultModel(litmus_backend(program), faults=plan.media,
                            remap_enabled=remap_enabled)
    port = CompoundFaultInjector(media, cuts=plan.cuts, count_drains=True)
    observe = program.observe_lines()
    drive = drive_program(port, program)

    recoveries = 0
    crashed = drive.crashed
    while crashed:
        crashed = False
        recoveries += 1     # Go passes *started*: nested cuts are visible
        port.power_fail()   # rails die; the next scheduled cut arms
        try:
            # Go, step 1: fetch the BCB.  One probe read *before* the
            # wear registers are restored — the crash-during-Go window
            # the plan's follow-on cuts aim for.
            port.access(MemoryRequest(
                MemoryOp.READ, address=observe[0] * CACHELINE_BYTES,
                time=0.0))
            # Go, step 2: restore the EP-cut register file.
            if drive.committed is not None:
                port.restore_wear_registers(drive.committed)
            # Go, step 3: scrub — touch every line recovery hands back.
            for line in observe:
                port.access(MemoryRequest(
                    MemoryOp.READ, address=line * CACHELINE_BYTES, time=0.0))
        except InjectedPowerFailure:
            crashed = True
    port.disarm()
    return DrillRun(
        observed=observe_state(port, program),
        crashed=drive.crashed,
        recoveries=recoveries,
        counters=dict(media.fault_counters()),
    )


@dataclass
class DrillVerdict:
    """Everything one program × plan drill established."""

    program: LitmusProgram
    plan: FaultPlan
    executed: int = 0
    recoveries: int = 0
    counters: dict = field(default_factory=dict)
    violations: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _scenario(program: LitmusProgram, plan: FaultPlan) -> str:
    return f"{program.render()} x {plan.render()}"


def run_drill_program(
    program: LitmusProgram,
    plan: FaultPlan,
    *,
    remap_enabled: bool = True,
    model: Optional[PersistencyModel] = None,
) -> DrillVerdict:
    """Execute one compound-fault scenario and check it."""
    model = model or PersistencyModel()
    timeline = build_timeline(program)
    ticks = total_ticks(timeline)
    crash_at = next((cut for cut in plan.cuts if cut < ticks), None)
    events = prefix_events(timeline, crash_at)
    allowed = allowed_after(events, program.observe_lines(), model)
    rendered = _scenario(program, plan)
    verdict = DrillVerdict(program=program, plan=plan)

    run = execute_plan(program, plan, remap_enabled=remap_enabled)
    verdict.executed += 1
    verdict.recoveries = run.recoveries
    verdict.counters = dict(run.counters)
    for line, version, ok_set, torn in check_observation(
            run.observed, allowed, model, final=crash_at is None):
        verdict.violations.append(Counterexample(
            program=rendered, crash_at=crash_at,
            line=line, observed=version, allowed=ok_set, torn=torn,
            trace=tuple(repr(event) for event in events),
        ))

    if model.recovery_is_idempotent and len(plan.cuts) > 1 \
            and crash_at is not None:
        # Direct recoverable-state cross-check: the nested-cut run must
        # land on exactly the state the first cut alone produces.
        single = execute_plan(program, plan.truncated(),
                              remap_enabled=remap_enabled)
        verdict.executed += 1
        nested = run.observed
        for line in sorted(nested):
            if nested[line] != single.observed[line]:
                verdict.violations.append(Counterexample(
                    program=rendered, crash_at=crash_at,
                    line=line, observed=nested[line][0],
                    allowed=(single.observed[line][0],),
                    torn=nested[line][1],
                    trace=("recovery-not-idempotent",)
                    + tuple(repr(event) for event in events),
                ))
    return verdict


def _first_violation(
    program: LitmusProgram,
    plan: FaultPlan,
    *,
    remap_enabled: bool,
    model: Optional[PersistencyModel],
) -> Optional[Counterexample]:
    verdict = run_drill_program(program, plan, remap_enabled=remap_enabled,
                                model=model)
    return verdict.violations[0] if verdict.violations else None


def minimize_drill(
    program: LitmusProgram,
    plan: FaultPlan,
    *,
    remap_enabled: bool = True,
    model: Optional[PersistencyModel] = None,
) -> Optional[Counterexample]:
    """Shrink a violating scenario to 1-minimality over ops AND faults.

    Classic greedy delta debugging, with the candidate space widened to
    the whole scenario: drop one IR op, one scheduled cut, or one media
    fault per step, keeping any removal that still violates.  The
    result is 1-minimal — removing any single remaining element makes
    the violation disappear.  Returns ``None`` if the scenario passes.
    """
    kwargs = dict(remap_enabled=remap_enabled, model=model)
    if _first_violation(program, plan, **kwargs) is None:
        return None
    current_program, current_plan = program, plan
    shrunk = True
    while shrunk:
        shrunk = False
        for index in range(len(current_program.ops)):
            ops = current_program.ops[:index] + current_program.ops[index + 1:]
            if not ops:
                continue
            candidate = LitmusProgram(
                current_program.name, ops, current_program.lines,
                regions=current_program.regions)
            if _first_violation(candidate, current_plan, **kwargs) is not None:
                current_program = candidate
                shrunk = True
                break
        if shrunk:
            continue
        for index in range(len(current_plan.cuts)):
            cuts = current_plan.cuts[:index] + current_plan.cuts[index + 1:]
            candidate_plan = FaultPlan(current_plan.name, cuts,
                                       current_plan.media)
            if _first_violation(current_program, candidate_plan,
                                **kwargs) is not None:
                current_plan = candidate_plan
                shrunk = True
                break
        if shrunk:
            continue
        for index in range(len(current_plan.media)):
            media = current_plan.media[:index] + current_plan.media[index + 1:]
            candidate_plan = FaultPlan(current_plan.name, current_plan.cuts,
                                       media)
            if _first_violation(current_program, candidate_plan,
                                **kwargs) is not None:
                current_plan = candidate_plan
                shrunk = True
                break
    final_program = LitmusProgram(
        f"{current_program.name}+min", current_program.ops,
        current_program.lines, regions=current_program.regions)
    final_plan = FaultPlan(f"{current_plan.name}+min", current_plan.cuts,
                           current_plan.media)
    violation = _first_violation(final_program, final_plan, **kwargs)
    assert violation is not None  # shrinking preserved the violation
    return violation


# -- campaign wiring --------------------------------------------------------


@dataclass
class DrillOutcome:
    """One trial's contribution to a drill campaign."""

    programs: int = 0
    operations: int = 0      # IR ops across generated programs
    cuts: int = 0            # scheduled power cuts across plans
    media_faults: int = 0
    executed: int = 0        # plan executions (+ idempotence probe)
    recoveries: int = 0      # Go passes started
    transient_retries: int = 0
    ecc_corrections: int = 0
    units_retired: int = 0
    violations: list[str] = field(default_factory=list)


@dataclass
class DrillReport:
    """Outcome of one compound-fault drill campaign."""

    component: str
    trials: int
    programs: int = 0
    operations: int = 0
    cuts: int = 0
    media_faults: int = 0
    executed: int = 0
    recoveries: int = 0
    transient_retries: int = 0
    ecc_corrections: int = 0
    units_retired: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (f"{self.component}: {self.trials} trials, "
                f"{self.programs} programs, {self.cuts} cuts, "
                f"{self.media_faults} media faults "
                f"({self.executed} executions, {self.recoveries} recoveries, "
                f"{self.ecc_corrections} corrected, "
                f"{self.units_retired} retired) -> {verdict}")


def drill_trial(
    trial: int,
    rng: random.Random,
    shape: str = "all",
    rules: Optional[dict] = None,
    remap_enabled: bool = True,
) -> DrillOutcome:
    """Generate one program + fault plan and drill it.

    ``rules`` override :class:`PersistencyModel` fields (plain dict, so
    campaign params stay JSON-fingerprintable); ``remap_enabled=False``
    is the deliberately broken degradation rule the acceptance tests
    prove is detected and minimized end to end.
    """
    model = PersistencyModel(**rules) if rules else None
    program = generate_program(rng, shape)
    plan = generate_plan(rng, program)
    verdict = run_drill_program(program, plan, remap_enabled=remap_enabled,
                                model=model)
    outcome = DrillOutcome(
        programs=1,
        operations=len(program.ops),
        cuts=len(plan.cuts),
        media_faults=len(plan.media),
        executed=verdict.executed,
        recoveries=verdict.recoveries,
        transient_retries=verdict.counters.get("transient_retries", 0),
        ecc_corrections=verdict.counters.get("ecc_corrections", 0),
        units_retired=verdict.counters.get("units_retired", 0),
    )
    if verdict.violations:
        outcome.violations.append(
            f"trial {trial}: {verdict.violations[0].render()}")
        minimized = minimize_drill(program, plan, remap_enabled=remap_enabled,
                                   model=model)
        if minimized is not None:
            outcome.violations.append(
                f"trial {trial} (minimized): {minimized.render()}")
    return outcome


def _merge(component: str, outcomes: list) -> DrillReport:
    report = DrillReport(component=component, trials=len(outcomes))
    for outcome in outcomes:
        report.programs += outcome.programs
        report.operations += outcome.operations
        report.cuts += outcome.cuts
        report.media_faults += outcome.media_faults
        report.executed += outcome.executed
        report.recoveries += outcome.recoveries
        report.transient_retries += outcome.transient_retries
        report.ecc_corrections += outcome.ecc_corrections
        report.units_retired += outcome.units_retired
        report.violations.extend(outcome.violations)
    return report


def run_drill(
    trials: int = 100,
    shape: str = "all",
    seed: int = 2206,
    *,
    remap_enabled: bool = True,
    rules: Optional[dict] = None,
    jobs: int = 1,
    cache_dir=None,
    progress: Optional[CampaignProgress] = None,
    trial_timeout: Optional[float] = None,
) -> DrillReport:
    """Run a drill campaign; the empty violation list is the pass."""
    runner = CampaignRunner(jobs=jobs, cache_dir=cache_dir,
                            progress=progress, trial_timeout=trial_timeout)
    name = "drill" if shape in (None, "all") else f"drill-{shape}"
    params: dict = {"shape": shape or "all"}
    if not remap_enabled:
        params["remap_enabled"] = False
    if rules:
        params["rules"] = rules
    # Streaming merge: fold shard summaries (columnar sums + violation
    # strings) instead of unpickling every cached trial body.
    summary = runner.run_summaries(Campaign(
        name=name, trials=trials, trial_fn=drill_trial,
        seed=seed, params=params,
    ))
    report = DrillReport(component=name, trials=summary.trials,
                         violations=list(summary.violations))
    for field_name in ("programs", "operations", "cuts", "media_faults",
                       "executed", "recoveries", "transient_retries",
                       "ecc_corrections", "units_retired"):
        setattr(report, field_name, summary.total(field_name))
    return report
