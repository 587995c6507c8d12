"""Command-line interface: ``python -m repro`` / ``lightpc-repro``.

Subcommands mirror how the paper is used day to day:

* ``run``          — execute one workload on one platform and report
  latency / IPC / power / energy.
* ``drill``        — power-failure drill: run, pull AC, recover, verify.
* ``bench``        — regenerate one paper table/figure (or ``all``).
* ``characterize`` — print the measured Table II row for a workload.
* ``fuzz``         — run the crash-consistency fuzzing campaigns.
* ``litmus``       — generated ordering litmus tests with exhaustive
  crash-point enumeration against the persistency-model oracle.
* ``stats``        — dump a platform's hierarchical stats tree after a run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import analysis
from repro.analysis.crashfuzz import (
    fuzz_machine,
    fuzz_pool,
    fuzz_psm,
    fuzz_sector,
    fuzz_trace,
)
from repro.analysis.report import render_result, render_stats
from repro.core import Machine
from repro.power.psu import ATX_PSU, SERVER_PSU
from repro.workloads import (
    WORKLOAD_SPECS,
    characterize,
    load_workload,
    save_trace,
    trace_stats,
)

__all__ = ["build_parser", "main"]

_EXPERIMENTS = {
    "fig2b": lambda: analysis.figure2b(),
    "fig4": lambda: analysis.figure4(),
    "fig8": lambda: analysis.figure8(),
    "fig14": lambda: analysis.figure14(),
    "tab1": lambda: analysis.table1(),
    "tab2": lambda: analysis.table2(refs=16_000),
    "fig15": lambda: analysis.figure15(refs=16_000),
    "fig16": lambda: analysis.figure16(refs=16_000),
    "fig17": lambda: analysis.figure17(),
    "fig18": lambda: analysis.figure18(refs=16_000),
    "fig19": lambda: analysis.figure19(refs=16_000),
    "fig20": lambda: analysis.figure20(refs=16_000),
    "fig21": lambda: analysis.figure21(refs=16_000),
    "fig22": lambda: analysis.figure22(),
}

_FUZZERS = {
    "psm": fuzz_psm,
    "pool": fuzz_pool,
    "sector": fuzz_sector,
    "machine": fuzz_machine,
    "trace": fuzz_trace,
}

_PSUS = {"atx": ATX_PSU, "server": SERVER_PSU}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _canonical_engine(name: str) -> Optional[str]:
    """Canonical engine name, or None after the one-line exit-2 message."""
    from repro.engine.base import canonical_engine_name

    try:
        return canonical_engine_name(name)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", default=None, metavar="NAME",
                        help="execution engine (scalar, extent, epoch; "
                             "default: extent)")


def _cache_dir_error(path: str) -> Optional[str]:
    """One-line reason a --cache-dir is unusable, or None if it is fine.

    Probes by creating the directory (the runner would anyway): a path
    blocked by a file, a missing parent we cannot create, or a
    permission wall all surface here as exit-code-2 messages instead of
    tracebacks deep inside the shard cache.
    """
    import os

    if os.path.exists(path):
        if not os.path.isdir(path):
            return f"--cache-dir {path!r} exists and is not a directory"
        if not os.access(path, os.W_OK):
            return f"--cache-dir {path!r} is not writable"
        return None
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc.__class__.__name__
        return f"--cache-dir {path!r} cannot be created ({reason})"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightpc-repro",
        description="LightPC (ISCA'22) reproduction: simulated OC-PMEM "
                    "hardware and persistence-centric OS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one workload on one platform")
    run.add_argument("--workload", default="redis",
                     choices=sorted(WORKLOAD_SPECS))
    run.add_argument("--platform", default="lightpc",
                     choices=("legacy", "lightpc_b", "lightpc"))
    run.add_argument("--refs", type=int, default=20_000,
                     help="trace references (default 20000)")
    _add_engine_argument(run)

    drill = sub.add_parser(
        "drill",
        help="power-failure drill with recovery; --trials switches to "
             "compound-fault campaign mode (nested cuts, torn extent "
             "flushes, media errors)")
    drill.add_argument("--workload", default="redis",
                       choices=sorted(WORKLOAD_SPECS))
    drill.add_argument("--psu", default="atx", choices=sorted(_PSUS))
    drill.add_argument("--refs", type=int, default=12_000)
    drill.add_argument("--trials", type=_positive_int, default=None,
                       help="run a compound-fault drill campaign of this "
                            "many generated program x fault-plan scenarios "
                            "instead of the single-machine drill")
    drill.add_argument("--shape", default="all",
                       help="litmus shape the campaign drills (default: "
                            "all; see repro.litmus.SHAPES)")
    drill.add_argument("--seed", type=int, default=None,
                       help="campaign seed (default: the drill "
                            "campaign's own)")
    drill.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes; results are identical at "
                            "any parallelism (default 1)")
    drill.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache completed shards under DIR so re-runs "
                            "are incremental")
    drill.add_argument("--progress", action="store_true",
                       help="print trials/sec, ETA and violation counts "
                            "to stderr as the campaign runs")
    drill.add_argument("--artifacts", metavar="DIR", default=None,
                       help="on violation, write counterexample traces "
                            "as JSON under DIR (CI uploads these)")
    drill.add_argument("--trial-timeout", type=_positive_float,
                       default=None, metavar="SECONDS",
                       help="per-trial watchdog: a hung trial is killed "
                            "and retried once with the same derived seed "
                            "before the campaign fails")
    _add_engine_argument(drill)
    drill.add_argument("--break-remap", action="store_true",
                       help="disable retired-unit remap (the deliberately "
                            "broken degradation rule) to prove the oracle "
                            "detects and minimizes the violation")

    bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    bench.add_argument("experiment",
                       choices=sorted(_EXPERIMENTS) + ["all"])
    bench.add_argument("--export", metavar="DIR", default=None,
                       help="also write <id>.csv/.json under DIR")

    char = sub.add_parser("characterize",
                          help="measured Table II row for a workload")
    char.add_argument("--workload", default="redis",
                      choices=sorted(WORKLOAD_SPECS))
    char.add_argument("--refs", type=int, default=16_000)

    fuzz = sub.add_parser("fuzz", help="crash-consistency fuzzing")
    fuzz.add_argument("target", choices=sorted(_FUZZERS) + ["all"])
    fuzz.add_argument("--trials", type=int, default=None)
    fuzz.add_argument("--seed", type=int, default=None,
                      help="campaign seed (default: each fuzzer's own)")
    fuzz.add_argument("--jobs", type=_positive_int, default=1,
                      help="worker processes; results are identical at "
                           "any parallelism (default 1)")
    fuzz.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="cache completed shards under DIR so re-runs "
                           "are incremental")
    fuzz.add_argument("--progress", action="store_true",
                      help="print trials/sec, ETA and violation counts "
                           "to stderr as the campaign runs")
    _add_engine_argument(fuzz)

    litmus = sub.add_parser(
        "litmus",
        help="generated ordering litmus tests, every crash point "
             "enumerated and checked against the persistency oracle")
    litmus.add_argument("--shape", default="all",
                        help="litmus shape to generate (default: all; "
                             "see repro.litmus.SHAPES)")
    litmus.add_argument("--trials", type=_positive_int, default=None,
                        help="generated programs; each is driven once "
                             "and checked at every crash point")
    litmus.add_argument("--seed", type=int, default=None,
                        help="campaign seed (default: the litmus "
                             "campaign's own)")
    litmus.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes; results are identical at "
                             "any parallelism (default 1)")
    litmus.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache completed shards under DIR so re-runs "
                             "are incremental")
    litmus.add_argument("--progress", action="store_true",
                        help="print trials/sec, ETA and violation counts "
                             "to stderr as the campaign runs")
    litmus.add_argument("--artifacts", metavar="DIR", default=None,
                        help="on violation, write counterexample traces "
                             "as JSON under DIR (CI uploads these)")

    tree = sub.add_parser("stats",
                          help="run a workload, dump the machine's "
                               "hierarchical stats tree")
    tree.add_argument("--workload", default="aes",
                      choices=sorted(WORKLOAD_SPECS))
    tree.add_argument("--platform", default="lightpc",
                      choices=("legacy", "lightpc_b", "lightpc"))
    tree.add_argument("--refs", type=int, default=8_000)
    tree.add_argument("--json", action="store_true",
                      help="emit the tree as JSON instead of an outline")
    _add_engine_argument(tree)

    profile = sub.add_parser(
        "profile",
        help="cProfile one paper experiment and print the hotspots",
    )
    profile.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    profile.add_argument("--top", type=_positive_int, default=25,
                         help="number of functions to print (default 25)")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "calls"),
                         help="pstats sort key (default cumulative)")
    profile.add_argument("--out", metavar="FILE", default=None,
                         help="also dump raw pstats data to FILE "
                              "(inspect with snakeviz/pstats)")
    _add_engine_argument(profile)

    trace = sub.add_parser("trace", help="export or summarize trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser("export",
                                  help="write a workload's thread-0 trace")
    export.add_argument("--workload", default="redis",
                        choices=sorted(WORKLOAD_SPECS))
    export.add_argument("--refs", type=int, default=16_000)
    export.add_argument("--out", required=True)
    export.add_argument("--columnar", action="store_true",
                        help="write the columnar (v2) format campaign "
                             "workers map zero-copy instead of the row "
                             "stream format")
    stats = trace_sub.add_parser("stats", help="summarize a trace file")
    stats.add_argument("path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    engine = None
    if args.engine is not None:
        engine = _canonical_engine(args.engine)
        if engine is None:
            return 2
    workload = load_workload(args.workload, refs=args.refs)
    machine = Machine.for_workload(args.platform, workload, engine=engine)
    result = machine.run(workload)
    print(f"{args.workload} on {args.platform} ({result.engine} engine): "
          f"{result.wall_ns / 1e6:.3f} ms, IPC {result.ipc:.2f}, "
          f"{result.total_w:.1f} W, {result.energy_j * 1e3:.2f} mJ")
    print(f"  D$ read hit {result.cache_read_hit:.1%}, "
          f"mean memory read {result.mean_read_latency_ns:.0f} ns")
    return 0


def _cmd_drill(args: argparse.Namespace) -> int:
    engine = None
    if args.engine is not None:
        engine = _canonical_engine(args.engine)
        if engine is None:
            return 2
        if args.trials is not None:
            print("error: the drill campaign (--trials) does not execute "
                  "workloads through an engine; --engine applies to the "
                  "single-machine drill", file=sys.stderr)
            return 2
    if args.trials is not None:
        return _cmd_drill_campaign(args)
    workload = load_workload(args.workload, refs=args.refs)
    machine = Machine.for_workload("lightpc", workload, engine=engine)
    machine.run(workload)
    outcome = machine.power_fail(_PSUS[args.psu])
    stop = outcome.stop
    print(f"AC pulled under {args.psu}: hold-up "
          f"{outcome.holdup_ns / 1e6:.1f} ms, Stop {stop.total_ms:.2f} ms "
          f"-> {'SURVIVED' if outcome.survived else 'LOST STATE'}")
    go = machine.recover()
    if go.warm:
        intact = machine.sng.verify_resumed_state()
        print(f"warm Go in {go.total_ms:.2f} ms; EP-cut state intact: "
              f"{intact}")
        return 0 if (outcome.survived and intact) else 1
    print("cold boot (no committed EP-cut)")
    return 1


def _cmd_drill_campaign(args: argparse.Namespace) -> int:
    import inspect

    from repro.faults import run_drill
    from repro.litmus import SHAPES
    from repro.orchestrate import CampaignProgress

    if args.shape != "all" and args.shape not in SHAPES:
        print(f"error: unknown litmus shape {args.shape!r}; have "
              f"{', '.join(sorted(SHAPES))} or 'all'", file=sys.stderr)
        return 2
    if args.cache_dir:
        problem = _cache_dir_error(args.cache_dir)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    kwargs = {"shape": args.shape, "jobs": args.jobs,
              "cache_dir": args.cache_dir,
              "remap_enabled": not args.break_remap,
              "trial_timeout": args.trial_timeout}
    if args.trials:
        kwargs["trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.progress:
        trials = args.trials or \
            inspect.signature(run_drill).parameters["trials"].default
        kwargs["progress"] = CampaignProgress(
            "drill", total_trials=trials, stream=sys.stderr)
    report = run_drill(**kwargs)
    print(report.summary())
    if report.ok:
        return 0
    for violation in report.violations[:5]:
        print(f"  ! {violation}")
    if args.artifacts:
        import json
        import os

        os.makedirs(args.artifacts, exist_ok=True)
        path = os.path.join(args.artifacts, "drill-counterexamples.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "summary": report.summary(),
                "remap_enabled": not args.break_remap,
                "violations": report.violations,
            }, handle, indent=2, sort_keys=True)
        print(f"  counterexamples written to {path}")
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else \
        [args.experiment]
    results = []
    for name in names:
        result = _EXPERIMENTS[name]()
        results.append(result)
        print(render_result(result))
        print()
    if args.export:
        from repro.analysis.export import write_results

        paths = write_results(results, args.export)
        print(f"exported {len(paths)} files under {args.export}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    workload = load_workload(args.workload, refs=args.refs)
    spec = WORKLOAD_SPECS[args.workload]
    measured = characterize(workload)
    print(f"{args.workload} ({spec.category}, {measured.threads} threads)")
    rows = [
        ("reads", f"{measured.reads:,}", f"{spec.paper_reads:,.0f} (paper)"),
        ("writes", f"{measured.writes:,}", f"{spec.paper_writes:,.0f}"),
        ("read/write ratio", f"{measured.rw_ratio:.1f}",
         f"{spec.paper_rw_ratio:.1f}"),
        ("D$ read hit", f"{measured.read_hit:.1%}",
         f"{spec.paper_read_hit:.1f}%"),
        ("D$ write hit", f"{measured.write_hit:.1%}",
         f"{spec.paper_write_hit:.1f}%"),
        ("row-buffer hit", f"{measured.rb_hit:.1%}", "-"),
    ]
    for label, got, want in rows:
        print(f"  {label:<18} {got:>12}  vs {want}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import inspect

    from repro.orchestrate import CampaignProgress

    names = sorted(_FUZZERS) if args.target == "all" else [args.target]
    engine = None
    if args.engine is not None:
        engine = _canonical_engine(args.engine)
        if engine is None:
            return 2
        if args.target != "all" and "engine" not in \
                inspect.signature(_FUZZERS[args.target]).parameters:
            print(f"error: fuzz target {args.target!r} does not execute "
                  f"workloads through an engine; --engine applies to "
                  f"'machine'", file=sys.stderr)
            return 2
    if args.cache_dir:
        problem = _cache_dir_error(args.cache_dir)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    status = 0
    for name in names:
        fuzzer = _FUZZERS[name]
        kwargs = {"jobs": args.jobs, "cache_dir": args.cache_dir}
        # Only the machine fuzzer executes workloads through an engine;
        # the structural fuzzers silently ignore the flag on `all`.
        if engine is not None and \
                "engine" in inspect.signature(fuzzer).parameters:
            kwargs["engine"] = engine
        if args.trials:
            kwargs["trials"] = args.trials
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.progress:
            trials = args.trials or \
                inspect.signature(fuzzer).parameters["trials"].default
            kwargs["progress"] = CampaignProgress(
                name, total_trials=trials, stream=sys.stderr)
        report = fuzzer(**kwargs)
        print(report.summary())
        if not report.ok:
            status = 1
            for violation in report.violations[:5]:
                print(f"  ! {violation}")
    return status


def _cmd_litmus(args: argparse.Namespace) -> int:
    import inspect

    from repro.litmus import SHAPES, run_litmus
    from repro.orchestrate import CampaignProgress

    if args.shape != "all" and args.shape not in SHAPES:
        print(f"error: unknown litmus shape {args.shape!r}; have "
              f"{', '.join(sorted(SHAPES))} or 'all'", file=sys.stderr)
        return 2
    if args.cache_dir:
        problem = _cache_dir_error(args.cache_dir)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    kwargs = {"shape": args.shape, "jobs": args.jobs,
              "cache_dir": args.cache_dir}
    if args.trials:
        kwargs["trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.progress:
        trials = args.trials or \
            inspect.signature(run_litmus).parameters["trials"].default
        kwargs["progress"] = CampaignProgress(
            "litmus", total_trials=trials, stream=sys.stderr)
    report = run_litmus(**kwargs)
    print(report.summary())
    if report.ok:
        return 0
    for violation in report.violations[:5]:
        print(f"  ! {violation}")
    if args.artifacts:
        import json
        import os

        os.makedirs(args.artifacts, exist_ok=True)
        path = os.path.join(args.artifacts, "litmus-counterexamples.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "summary": report.summary(),
                "violations": report.violations,
            }, handle, indent=2, sort_keys=True)
        print(f"  counterexamples written to {path}")
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import stats_tree

    engine = None
    if args.engine is not None:
        engine = _canonical_engine(args.engine)
        if engine is None:
            return 2
    tree = stats_tree(
        platform=args.platform, workload=args.workload, refs=args.refs,
        engine=engine,
    )
    if args.json:
        import json

        print(json.dumps(tree, indent=2, sort_keys=True))
        return 0
    print(f"{args.workload} on {args.platform} ({args.refs:,} refs):")
    for line in render_stats(tree, indent=1):
        print(line)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one experiment end to end and print the top hotspots.

    This is the measurement loop behind the batched-access work: run it
    before and after touching a hot path, and the per-access dispatch
    cost shows up (or disappears) in the cumulative column.
    """
    import cProfile
    import pstats

    from repro.engine.base import default_engine_name, set_default_engine

    engine = None
    if args.engine is not None:
        engine = _canonical_engine(args.engine)
        if engine is None:
            return 2
    experiment = _EXPERIMENTS[args.experiment]
    profiler = cProfile.Profile()
    # The experiment table is closed over defaults, so the engine choice
    # rides the process-wide default for the duration of the profile.
    previous = set_default_engine(engine) if engine is not None else None
    print(f"profiling {args.experiment} with the "
          f"{engine or default_engine_name()} engine")
    profiler.enable()
    try:
        experiment()
    finally:
        profiler.disable()
        if previous is not None:
            set_default_engine(previous)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.out:
        stats.dump_stats(args.out)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out:
        print(f"raw profile written to {args.out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "export":
        workload = load_workload(args.workload, refs=args.refs)
        stream = workload.traces()[0]
        if args.columnar:
            from repro.workloads import save_trace_columnar

            count = save_trace_columnar(stream, args.out)
            kind = "columnar "
        else:
            count = save_trace(iter(stream), args.out)
            kind = ""
        print(f"wrote {count:,} {kind}records ({args.workload}, thread 0) "
              f"to {args.out}")
        return 0
    try:
        summary = trace_stats(args.path)
    except OSError as error:
        print(f"error: cannot read trace {args.path!r} "
              f"({error.strerror or error})", file=sys.stderr)
        return 2
    for key, value in summary.items():
        if isinstance(value, float) and not value.is_integer():
            print(f"  {key:<18} {value:.3f}")
        else:
            print(f"  {key:<18} {int(value):,}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "drill": _cmd_drill,
    "bench": _cmd_bench,
    "characterize": _cmd_characterize,
    "fuzz": _cmd_fuzz,
    "litmus": _cmd_litmus,
    "stats": _cmd_stats,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
