"""Compound-fault subsystem: declarative fault plans, drilled end to end.

The paper validates Stop-and-Go by pulling AC from a prototype once per
run; real robustness questions are compound — what if the power fails
*again* while Go is replaying the EP-cut, mid wear-register restore?
What if the cut lands inside an SnG cut's dirty-line write-back and
tears the extent?  What if the PSM line recovery reads back is worn out?
This package makes those scenarios first-class data:

* :mod:`repro.faults.plan`     — :class:`FaultPlan` / :class:`MediaFault`
  declarations plus the seeded :func:`generate_plan` generator
* :mod:`repro.faults.compound` — :class:`CompoundFaultInjector`, a cut
  *schedule* on one global tick count spanning program and recovery
  traffic
* :mod:`repro.faults.media`    — :class:`MediaFaultModel`, transient
  retry/backoff and stuck-at detect→correct→escalate→retire at the port
  boundary
* :mod:`repro.faults.drill`    — execution (looping Go protocol),
  oracle checks against recoverable-state rules, whole-scenario
  counterexample minimization, and the ``repro drill`` campaign
"""

from repro.faults.compound import CompoundFaultInjector
from repro.faults.drill import (
    DrillOutcome,
    DrillReport,
    DrillRun,
    DrillVerdict,
    drill_trial,
    execute_plan,
    minimize_drill,
    run_drill,
    run_drill_program,
)
from repro.faults.media import MediaFaultModel
from repro.faults.plan import (
    STUCK,
    TRANSIENT,
    FaultPlan,
    MediaFault,
    generate_plan,
)

__all__ = [
    "STUCK",
    "TRANSIENT",
    "CompoundFaultInjector",
    "DrillOutcome",
    "DrillReport",
    "DrillRun",
    "DrillVerdict",
    "FaultPlan",
    "MediaFault",
    "MediaFaultModel",
    "drill_trial",
    "execute_plan",
    "generate_plan",
    "minimize_drill",
    "run_drill",
    "run_drill_program",
]
