"""Pluggable execution engines for the simulation pipeline.

One registry, four builtin engines:

* ``scalar`` — exact per-record replay (the reference semantics);
* ``window`` (alias ``batch``) — exact replay in 4096-record windows,
  the PR 4 hot path;
* ``extent`` — windowed replay + extent-coalesced flushes, the PR 5
  persistence-cut path and the process default;
* ``epoch`` — phase-detecting analytical acceleration that skips
  steady-state windows entirely and falls back to exact replay at
  phase boundaries, persistence cuts, and fault points.

``Machine.run``, the litmus enumerator, the compound-fault drills and
the CLI all select execution through :func:`resolve_engine`; new
engines plug in via :func:`register_engine` exactly the way new memory
tiers plug in via ``register_backend_factory``.
"""

from repro.engine.base import (
    DEFAULT_ENGINE,
    EngineSpec,
    ExecutionEngine,
    assert_execution_engine,
    available_engines,
    canonical_engine_name,
    default_engine_name,
    register_engine,
    resolve_engine,
    set_default_engine,
)
from repro.engine.columnar import (
    WindowSignature,
    signature_of_columns,
    signature_of_records,
)
from repro.engine.epoch import EpochEngine, EpochReport
from repro.engine.extent import ExtentEngine
from repro.engine.lowering import DriveResult
from repro.engine.scalar import ScalarEngine
from repro.engine.window import WindowEngine

__all__ = [
    "DEFAULT_ENGINE",
    "DriveResult",
    "EngineSpec",
    "EpochEngine",
    "EpochReport",
    "ExecutionEngine",
    "ExtentEngine",
    "ScalarEngine",
    "WindowEngine",
    "WindowSignature",
    "assert_execution_engine",
    "available_engines",
    "canonical_engine_name",
    "default_engine_name",
    "register_engine",
    "resolve_engine",
    "set_default_engine",
    "signature_of_columns",
    "signature_of_records",
]
