"""Throughput baseline for the compound-fault drill engine.

Runs a seeded drill campaign (one generated litmus program x one
generated fault plan per trial, executed with the looping Go protocol)
and reports scenarios/second, plus the cost split between a bare
scenario execution and the full oracle-checked verdict (allowed-set
fold, torn containment, idempotence cross-run).  The numbers size drill campaigns — CI's
``fault-drill-smoke`` trial budget traces to this file.  This is a
plain script, not a pytest benchmark::

    python benchmarks/bench_drill.py --quick

writes ``BENCH_drill.json``.  Without ``--quick`` each measurement is
the best of three runs.
"""

from __future__ import annotations

import argparse
import json
import platform as platform_mod
import random
import sys
import time
from pathlib import Path

try:
    from repro.faults import execute_plan, generate_plan, run_drill
except ModuleNotFoundError:  # pragma: no cover - PYTHONPATH already set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.faults import execute_plan, generate_plan, run_drill

from repro.faults import run_drill_program
from repro.litmus.generate import generate_program

_SEED = 0xD811


def _scenarios(count: int):
    rng = random.Random(_SEED)
    out = []
    for _ in range(count):
        program = generate_program(rng, "fuzz")
        out.append((program, generate_plan(rng, program)))
    return out


def _best_of(repeats: int, fn) -> float:
    return min(fn() for _ in range(repeats))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="one repeat, smaller campaign")
    parser.add_argument("--out", default="BENCH_drill.json")
    args = parser.parse_args(argv)

    repeats = 1 if args.quick else 3
    trials = 60 if args.quick else 200
    scenarios = _scenarios(trials)

    def time_executions() -> float:
        start = time.perf_counter()
        for program, plan in scenarios:
            execute_plan(program, plan)
        return time.perf_counter() - start

    def time_verdicts() -> float:
        start = time.perf_counter()
        for program, plan in scenarios:
            run_drill_program(program, plan)
        return time.perf_counter() - start

    def time_campaign() -> float:
        start = time.perf_counter()
        report = run_drill(trials=trials, seed=_SEED)
        assert report.ok
        return time.perf_counter() - start

    execute_s = _best_of(repeats, time_executions)
    verdict_s = _best_of(repeats, time_verdicts)
    campaign_s = _best_of(repeats, time_campaign)

    result = {
        "trials": trials,
        "execute_per_s": round(trials / execute_s, 1),
        "verdict_per_s": round(trials / verdict_s, 1),
        "campaign_trials_per_s": round(trials / campaign_s, 1),
        "oracle_overhead_x": round(verdict_s / execute_s, 2),
        "python": platform_mod.python_version(),
        "machine": platform_mod.machine(),
    }
    print(f"{trials} scenarios: {result['execute_per_s']}/s bare "
          f"execution, {result['verdict_per_s']}/s full verdict "
          f"({result['oracle_overhead_x']}x), "
          f"{result['campaign_trials_per_s']}/s through the campaign "
          f"runner")
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
