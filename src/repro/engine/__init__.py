"""Pluggable execution engines for the simulation pipeline.

One registry, three builtin engines:

* ``scalar`` — exact per-record replay (the reference semantics);
* ``extent`` — exact replay in 4096-record windows
  (:class:`WindowEngine`'s drain) with extent-coalesced persistence
  cuts; the process default;
* ``epoch`` — phase-detecting analytical acceleration that skips
  steady-state windows entirely and falls back to exact replay at
  phase boundaries, persistence cuts, and fault points.

Every engine's persistence cut writes the dirty lines back through
scalar ``access``.  ``Machine.run`` and the CLI select execution
through :func:`resolve_engine`; new engines plug in via
:func:`register_engine` exactly the way new memory tiers plug in via
``register_backend_factory``.
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
from repro.engine.scalar import ScalarEngine
from repro.engine.window import WindowEngine

__all__ = [
    "DEFAULT_ENGINE",
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
