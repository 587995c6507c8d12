"""Greedy delta-minimization of violating litmus programs.

When the oracle flags a program, the raw trace is rarely the story —
classic delta debugging applies: repeatedly drop one IR op, re-run the
full crash-point enumeration on the candidate, and keep any removal
that still violates.  The loop terminates because the program strictly
shrinks, and the result is 1-minimal: removing any single remaining op
makes the violation disappear.
"""

from __future__ import annotations

from typing import Optional

from repro.litmus.engine import run_program
from repro.litmus.ir import LitmusProgram
from repro.litmus.oracle import Counterexample, PersistencyModel

__all__ = ["minimize_counterexample"]


def _first_violation(program: LitmusProgram,
                     model: Optional[PersistencyModel]
                     ) -> Optional[Counterexample]:
    verdict = run_program(program, model=model)
    return verdict.violations[0] if verdict.violations else None


def minimize_counterexample(
    program: LitmusProgram,
    model: Optional[PersistencyModel] = None,
) -> Optional[Counterexample]:
    """Shrink ``program`` to a 1-minimal violator; its counterexample.

    Returns ``None`` when the program does not violate at all (nothing
    to minimize).  The returned counterexample references the minimized
    program, whose name gains a ``+min`` suffix so reports distinguish
    it from the generated original.
    """
    if _first_violation(program, model) is None:
        return None
    current = program
    shrunk = True
    while shrunk:
        shrunk = False
        for index in range(len(current.ops)):
            candidate_ops = current.ops[:index] + current.ops[index + 1:]
            if not candidate_ops:
                continue
            candidate = LitmusProgram(
                current.name, candidate_ops, current.lines,
                regions=current.regions)
            if _first_violation(candidate, model) is not None:
                current = candidate
                shrunk = True
                break
    final = LitmusProgram(
        f"{current.name}+min", current.ops, current.lines,
        regions=current.regions)
    violation = _first_violation(final, model)
    assert violation is not None  # shrinking preserved the violation
    return violation
