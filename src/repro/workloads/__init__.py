"""Workload substrate: synthetic traces calibrated to the paper's Table II."""

from repro.workloads.characterize import Characterization, characterize
from repro.workloads.registry import (
    CATEGORIES,
    WORKLOAD_SPECS,
    WorkloadSpec,
    spec,
    workload_names,
)
from repro.workloads.stream import STREAM_KERNELS, StreamKernel, stream_kernel
from repro.workloads.suites import (
    ReplayWorkload,
    Workload,
    all_workloads,
    load_workload,
    materialize_traces,
    replay_workload,
    shared_streams,
)
from repro.workloads.trace import LocalityProfile, TraceGenerator, TraceRecord
from repro.workloads.trace_io import (
    ColumnarTrace,
    TraceFormatError,
    TraceWindow,
    load_trace,
    open_trace,
    save_trace,
    save_trace_columnar,
    trace_meta,
    trace_stats,
)

__all__ = [
    "CATEGORIES",
    "Characterization",
    "characterize",
    "ColumnarTrace",
    "LocalityProfile",
    "ReplayWorkload",
    "STREAM_KERNELS",
    "StreamKernel",
    "TraceFormatError",
    "TraceGenerator",
    "TraceRecord",
    "TraceWindow",
    "WORKLOAD_SPECS",
    "Workload",
    "WorkloadSpec",
    "all_workloads",
    "load_trace",
    "load_workload",
    "materialize_traces",
    "open_trace",
    "replay_workload",
    "save_trace",
    "save_trace_columnar",
    "shared_streams",
    "spec",
    "trace_meta",
    "trace_stats",
    "stream_kernel",
    "workload_names",
]
