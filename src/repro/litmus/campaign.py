"""Litmus campaigns: millions of litmus×crash-point trials, sharded.

One campaign trial = one generated program, exhaustively enumerated
(every crash point) by :func:`repro.litmus.engine.run_program`.  Trials
ride the :mod:`repro.orchestrate` machinery unchanged — per-trial
hashed RNGs, shard cache, byte-identical serial/parallel merges — so
the litmus engine scales the same way the crash fuzzers do, and
``repro litmus`` inherits ``--jobs/--cache-dir/--progress`` for free.

On a violation the trial minimizes the offending program
(:mod:`repro.litmus.minimize`) and reports both the original and the
1-minimal counterexample, as plain strings so shard results stay
trivially picklable and cacheable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.litmus.engine import run_program
from repro.litmus.generate import generate_program
from repro.litmus.minimize import minimize_counterexample
from repro.litmus.oracle import PersistencyModel
from repro.orchestrate import Campaign, CampaignProgress, CampaignRunner

__all__ = ["LitmusOutcome", "LitmusReport", "litmus_trial", "run_litmus"]


@dataclass
class LitmusOutcome:
    """One trial's contribution: enumeration counters plus violations."""

    programs: int = 0
    operations: int = 0      # IR ops across generated programs
    crash_points: int = 0    # crash space per program, summed
    executed: int = 0        # states executed (post-dedup)
    deduped: int = 0         # crash points pruned by the prefix digest
    violations: list[str] = field(default_factory=list)


@dataclass
class LitmusReport:
    """Outcome of one litmus campaign."""

    component: str
    trials: int
    programs: int = 0
    operations: int = 0
    crash_points: int = 0
    executed: int = 0
    deduped: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (f"{self.component}: {self.trials} trials, "
                f"{self.programs} programs, {self.crash_points} crash points "
                f"({self.executed} states executed, {self.deduped} deduped) "
                f"-> {verdict}")


def litmus_trial(
    trial: int,
    rng: random.Random,
    shape: str = "all",
    rules: Optional[dict] = None,
) -> LitmusOutcome:
    """Generate one program and enumerate it exhaustively.

    ``rules`` override :class:`PersistencyModel` fields (a plain dict so
    campaign params stay JSON-fingerprintable); passing a deliberately
    wrong rule set is how tests prove the campaign surfaces violations
    and minimized counterexamples end to end.
    """
    model = PersistencyModel(**rules) if rules else None
    program = generate_program(rng, shape)
    verdict = run_program(program, model=model)
    outcome = LitmusOutcome(
        programs=1,
        operations=len(program.ops),
        crash_points=verdict.crash_points,
        executed=verdict.executed,
        deduped=verdict.deduped,
    )
    if verdict.violations:
        outcome.violations.append(
            f"trial {trial}: {verdict.violations[0].render()}")
        minimized = minimize_counterexample(program, model=model)
        if minimized is not None:
            outcome.violations.append(
                f"trial {trial} (minimized): {minimized.render()}")
    return outcome


def _merge(component: str, outcomes: list[LitmusOutcome]) -> LitmusReport:
    report = LitmusReport(component=component, trials=len(outcomes))
    for outcome in outcomes:
        report.programs += outcome.programs
        report.operations += outcome.operations
        report.crash_points += outcome.crash_points
        report.executed += outcome.executed
        report.deduped += outcome.deduped
        report.violations.extend(outcome.violations)
    return report


def run_litmus(
    trials: int = 200,
    shape: str = "all",
    seed: int = 2405,
    *,
    rules: Optional[dict] = None,
    jobs: int = 1,
    cache_dir=None,
    progress: Optional[CampaignProgress] = None,
) -> LitmusReport:
    """Run a litmus campaign; the empty violation list is the pass."""
    runner = CampaignRunner(jobs=jobs, cache_dir=cache_dir, progress=progress)
    name = "litmus" if shape in (None, "all") else f"litmus-{shape}"
    params: dict = {"shape": shape or "all"}
    if rules:
        params["rules"] = rules
    # Streaming merge: shard *summaries* (columnar sums + violations)
    # fold straight into the report; cached shard bodies are never
    # unpickled and executed shards cross the process boundary packed.
    summary = runner.run_summaries(Campaign(
        name=name, trials=trials, trial_fn=litmus_trial,
        seed=seed, params=params,
    ))
    return LitmusReport(
        component=name,
        trials=summary.trials,
        programs=summary.total("programs"),
        operations=summary.total("operations"),
        crash_points=summary.total("crash_points"),
        executed=summary.total("executed"),
        deduped=summary.total("deduped"),
        violations=list(summary.violations),
    )
