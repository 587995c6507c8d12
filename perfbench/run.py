"""Run one benchmark workload and print every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--format table|csv|json]

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` also repeats the timed passes with a span around
every layer entry point (see ``layers.py``) and reports the per-layer
metrics.  The report is printed in the chosen format with an
environment block; the last line of standard output of a completed run
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Without the simulator sources the run exits with status 2 and no result.

Run it from a checkout: the simulator is imported from ``src/`` next to
this directory, and scratch files go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_SPANS, Tracer, simulated_values  # noqa: E402
from suite import FIGURES, WORKLOADS, Pass  # noqa: E402

#: name -> (unit, better); every workload reports all of them
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "work_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
}

#: workload -> the gated metrics under the names they have on that
#: workload alone, printed in the report beside them:
#: name -> (metric read, scale, unit, better)
READINGS: dict[str, dict[str, tuple[str, float, str, str]]] = {
    "paper-figures": {"figures_s": ("op_p50_ms", 1e-3, "s", "lower")},
    "long-run": {"refs_per_s": ("work_per_s", 1.0, "1/s", "higher")},
    "long-run-epoch": {
        "epoch_refs_per_s": ("work_per_s", 1.0, "1/s", "higher"),
        "epoch_wall_err": ("engine.epoch.wall_err", 1.0, "ratio", "lower")},
    **{name: {"trials_per_s": ("work_per_s", 1.0, "1/s", "higher"),
              "trial_p50_ms": ("op_p50_ms", 1.0, "ms", "lower")}
       for name in ("crash-campaign", "litmus-sweep")},
}

#: simulated or derived per-layer values -> (unit, better)
_VALUES: dict[str, tuple[str, str]] = {
    "cpu.dcache.read_hit": ("ratio", "higher"),
    "cpu.dcache.write_hit": ("ratio", "higher"),
    "cpu.stall_frac": ("ratio", "lower"),
    "engine.epoch.skip_frac": ("ratio", "higher"),
    "engine.epoch.records_skipped": ("count", "higher"),
    "engine.epoch.wall_err": ("ratio", "lower"),
    "memory.row_buffer_hit": ("ratio", "higher"),
    "ocpmem.read_blocked_ns": ("ns", "lower"),
    "ocpmem.media_line_writes": ("count", "lower"),
    "ocpmem.reconstructions": ("count", "lower"),
    "pecos.stop_ns": ("ns", "lower"),
    "pecos.go_ns": ("ns", "lower"),
    "pecos.lines_flushed": ("count", "lower"),
    "orchestrate.reuse_frac": ("ratio", "higher"),
    "orchestrate.trial_p99_ms": ("ms", "lower"),
    "orchestrate.trial_samples": ("count", "higher"),
    "litmus.crash_points": ("count", "higher"),
    "litmus.dedup_frac": ("ratio", "higher"),
    "tracing.overhead_frac": ("ratio", "lower"),
    "tracing.unattributed_frac": ("ratio", "lower"),
}

FIGURE_SPANS = frozenset(f"analysis.{fid}" for fid, _, _ in FIGURES)

PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{span}.{kind}": unit
       for span in LAYER_SPANS
       for kind, unit in (("n", ("count", "lower")),
                          ("self_s", ("s", "lower")))},
    **{f"{span}.self_s": ("s", "lower") for span in sorted(FIGURE_SPANS)},
    **_VALUES,
}

#: set-up repetitions per run (this process plus fresh processes)
SETUP_PROBES = 4


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args: argparse.Namespace, workdir: Path):
    """Import the simulator and build the workload's inputs; timed."""
    start = time.perf_counter()
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        # never fall back to a copy installed elsewhere
        raise ImportError(f"no simulator sources under {source}")
    sys.path.insert(0, str(source))
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    return workload, time.perf_counter() - start


def probe_setup(args: argparse.Namespace) -> list[float]:
    """Set-up seconds of fresh processes, each importing from cold."""
    seconds = []
    for _ in range(SETUP_PROBES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        seconds.append(float(done.stdout.split()[-1]))
    return seconds


def timed_passes(workload, seconds: float, tracer=None,
                 count: int | None = None) -> tuple[list[Pass], float]:
    """Passes back to back until ``seconds`` (or ``count`` passes)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        one = workload.run_pass(len(passes), tracer)
        one.seconds = time.perf_counter() - begin
        passes.append(one)
        if count is not None:
            if len(passes) == count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return passes, time.perf_counter() - start


def end_to_end(workload, passes: list[Pass], setup: list[float],
               rss_mb: float) -> dict[str, float]:
    pass_s = statistics.median(one.seconds for one in passes)
    latencies = workload.latencies_ms(passes)
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "work_per_s": workload.work_per_pass / pass_s,
        "op_p50_ms": statistics.median(latencies) if latencies else 0.0,
    }


def per_layer(workload, untraced: list[Pass], traced: list[Pass],
              tracer: Tracer, traced_s: float, untraced_s: float,
              reuse: tuple[int, int], verified: dict[str, float]
              ) -> tuple[dict[str, float], bool]:
    """Every per-layer metric, and whether the spans account for the
    traced wall: they nested strictly, so self times sum to the root
    spans' time, and the root spans fit inside the wall."""
    values = {name: 0.0 for name in PER_LAYER}
    try:
        totals, root_s = tracer.layer_totals()
    except RuntimeError as error:  # a span closed out of order
        print(f"perfbench: {error}", file=sys.stderr)
        return values, False
    for span, (work, self_s) in totals.items():
        if span not in FIGURE_SPANS:
            values[f"{span}.n"] = float(work)
        values[f"{span}.self_s"] = self_s
    values.update(simulated_values(tracer))
    values.update(verified)
    values.update(workload.layer_values(untraced, traced))
    built, reused = reuse
    values["orchestrate.reuse_frac"] = reused / (built + reused) \
        if built + reused else 0.0
    unattributed = traced_s - root_s
    values["tracing.overhead_frac"] = traced_s / untraced_s - 1.0
    values["tracing.unattributed_frac"] = unattributed / traced_s
    return values, unattributed >= 0.0


def environment() -> dict[str, object]:
    """Where the numbers were measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    sha, dirty = "unknown", None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu": cpu, "nproc": os.cpu_count(), "git_sha": sha,
            "dirty": dirty}


def render(rows: list[dict], env: dict, fmt: str, title: str) -> str:
    """Rows of ``metric, value, unit, better`` as table, csv or json."""
    columns = ["metric", "value", "unit", "better"]
    if fmt == "json":
        return json.dumps({"title": title, "env": env, "metrics": rows},
                          indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for key, value in env.items():
            writer.writerow([f"# {key}", value])
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[column] for column in columns])
        return buffer.getvalue().rstrip("\n")
    cells = [[f"{row['value']:.6g}" if column == "value" else str(row[column])
              for column in columns] for row in rows]
    widths = [max([len(column)] + [len(cell[i]) for cell in cells])
              for i, column in enumerate(columns)]
    lines = [title, "  ".join(f"{key}={value}" for key, value in env.items()),
             "  ".join(column.ljust(width)
                       for column, width in zip(columns, widths))]
    lines += ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
              for row in cells]
    return "\n".join(lines)


def metric_rows(values: dict[str, float],
                spec: dict[str, tuple[str, str]]) -> list[dict]:
    return [{"metric": name, "value": values[name], "unit": unit,
             "better": better} for name, (unit, better) in spec.items()]


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        try:
            workload, own_setup = set_up(args, workdir)
        except ImportError as error:
            print(f"perfbench: cannot import the simulator from "
                  f"{ROOT / 'src'}: {error}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(f"{own_setup:.9f}")
            return 0
        untraced, untraced_s = timed_passes(workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = [untraced]
        if args.trace:
            from repro.orchestrate.pool import machine_pool

            pool = machine_pool()
            before = (pool.built, pool.reused)
            with Tracer() as tracer:
                traced, traced_s = timed_passes(workload, 0, tracer,
                                                count=len(untraced))
            reuse = (pool.built - before[0], pool.reused - before[1])
            tracer.recorder.save(ROOT / ".perfbench" / "spans"
                                 / f"{args.workload}.spans")
            checked.append(traced)
        verified = workload.verify([one for passes in checked
                                    for one in passes])
        e2e = end_to_end(workload, untraced, [own_setup] + probe_setup(args),
                         rss_mb)
        ops = [op for passes in checked for one in passes for op in one.ops]
        failures = [op for op in ops if not op.ok]
        correct = not failures
        title = f"{args.workload} seed={args.seed}"
        rows = metric_rows(e2e, END_TO_END)
        measured = {**e2e, **verified}
        rows += [{"metric": name, "value": measured[metric] * scale,
                  "unit": unit, "better": better}
                 for name, (metric, scale, unit, better)
                 in READINGS[args.workload].items()]
        if args.trace:
            layer, accounted = per_layer(workload, untraced, traced, tracer,
                                         traced_s, untraced_s, reuse,
                                         verified)
            correct = correct and accounted
            rows += metric_rows(layer, PER_LAYER)
            reported, spec = layer, PER_LAYER
        else:
            reported, spec = e2e, END_TO_END
        print(render(rows, environment(), args.format, title))
        for op in failures[:20]:
            print(f"FAILED {op.name}: {op.detail}", file=sys.stderr)
        print(json.dumps({
            "correct": correct,
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": {name: {"value": reported[name], "unit": unit}
                        for name, (unit, _) in spec.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
