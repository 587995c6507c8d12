"""Execution-engine protocol and registry.

An :class:`ExecutionEngine` owns two operations of the simulation
pipeline:

* **drain** — how a core consumes the tail of a trace once no
  cross-core ordering is left to respect;
* **flush_cache** — how a persistence cut dumps a core's dirty D$
  through the memory port.

Engines are selected by name through a registry: builtin engines
(``scalar``, ``extent``, ``epoch``) self-register on import,
externally-defined engines plug in via :func:`register_engine`, and
every consumer (``Machine.run``, the CLI, the machine crash fuzzer,
the figure drivers) resolves through :func:`resolve_engine`.
``resolve_engine(None)`` returns the process default (``extent``, the
exact windowed path), which :func:`set_default_engine` can repoint for
a whole run (the ``repro profile --engine`` hook).
"""

from __future__ import annotations

from typing import Callable, Protocol, Union, runtime_checkable

__all__ = [
    "DEFAULT_ENGINE",
    "EngineSpec",
    "ExecutionEngine",
    "assert_execution_engine",
    "available_engines",
    "canonical_engine_name",
    "default_engine_name",
    "engine_key",
    "fresh_engine",
    "register_engine",
    "resolve_engine",
    "set_default_engine",
]

#: The exact extent path — byte-identical to the pre-registry pipeline.
DEFAULT_ENGINE = "extent"


@runtime_checkable
class ExecutionEngine(Protocol):
    """What the pipeline needs from an execution engine.

    Structural and runtime-checkable, like
    :class:`repro.memory.port.MemoryBackend`: anything with these
    members is an engine.  Engines that keep per-run state may expose
    ``begin_run()`` / ``take_run_report()`` (the epoch engine does) and
    callers probe for them with ``getattr``.
    """

    #: canonical registry name (``scalar`` / ``extent`` / ``epoch``)
    name: str

    # Engines may also expose ``params``: the constructor keywords that
    # rebuild them unused (see :func:`fresh_engine`).

    def drain(self, core, records, thread_id: int = 0, *,
              source=None, consumed: int = 0):
        """Consume the remaining ``records`` of one thread on ``core``.

        Called by the complex once a single trace survives the
        global-time interleave.  ``source`` is the originating trace
        object (engines may read ``count`` / ``refs`` length hints and
        the ``stationary`` marker from it); ``consumed`` is how many
        records the interleave already executed.
        """
        ...

    def flush_cache(self, core) -> tuple[int, list[int]]:
        """Dump ``core``'s D$ through the port; returns (count, addrs)."""
        ...


#: Engine factories are zero-argument so every consumer gets a private
#: instance (epoch engines carry per-run state).
EngineFactory = Callable[[], ExecutionEngine]

EngineSpec = Union[None, str, ExecutionEngine]

_ENGINE_FACTORIES: dict[str, EngineFactory] = {}
_default_engine = DEFAULT_ENGINE
_builtins_loaded = False


def register_engine(name: str, factory: EngineFactory) -> None:
    """Teach the pipeline a new engine name.

    The factory's product must satisfy :class:`ExecutionEngine`;
    :func:`resolve_engine` asserts conformance on every build.
    """
    _ENGINE_FACTORIES[name] = factory


def _ensure_builtins() -> None:
    # Builtin engines self-register on import; importing them lazily
    # here means ``from repro.engine.base import resolve_engine`` works
    # no matter which corner of the package a consumer entered through.
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.engine import epoch, extent, scalar  # noqa: F401


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_ENGINE_FACTORIES))


def canonical_engine_name(name: str) -> str:
    """``name`` itself if registered; raises ``ValueError`` otherwise."""
    _ensure_builtins()
    if name not in _ENGINE_FACTORIES:
        raise ValueError(
            f"unknown engine {name!r}; have {', '.join(available_engines())}"
        )
    return name


def default_engine_name() -> str:
    return _default_engine


def set_default_engine(name: str) -> str:
    """Repoint ``resolve_engine(None)``; returns the previous default."""
    global _default_engine
    previous = _default_engine
    _default_engine = canonical_engine_name(name)
    return previous


def resolve_engine(engine: EngineSpec = None) -> ExecutionEngine:
    """Turn an engine spec into a conformant engine instance.

    ``None`` builds the process default, a string looks up the registry,
    and an existing engine object passes through —
    all three shapes are conformance-checked.
    """
    _ensure_builtins()
    if engine is None:
        engine = _default_engine
    if isinstance(engine, str):
        built = _ENGINE_FACTORIES[canonical_engine_name(engine)]()
        assert_execution_engine(built, context=f"engine {engine!r}")
        return built
    assert_execution_engine(engine, context="engine instance")
    return engine


def fresh_engine(engine: ExecutionEngine) -> ExecutionEngine:
    """An unused engine configured like ``engine``: its class called
    with its ``params`` (none if it defines none).  ``Machine.reset``
    runs on this."""
    built = type(engine)(**getattr(engine, "params", {}))
    assert_execution_engine(built, context="fresh engine")
    return built


def engine_key(engine: ExecutionEngine) -> dict:
    """What tells two engines' behaviour apart: class, name, params."""
    kind = type(engine)
    return {"class": f"{kind.__module__}.{kind.__qualname__}",
            "name": engine.name, "params": dict(getattr(engine, "params", {}))}


def assert_execution_engine(engine: object, context: str = "engine") -> None:
    """Cheap structural conformance check (mirrors the port layer's)."""
    missing = []
    if not isinstance(getattr(engine, "name", None), str):
        missing.append("name")
    for method in ("drain", "flush_cache"):
        if not callable(getattr(engine, method, None)):
            missing.append(method)
    if missing:
        raise TypeError(
            f"{context}: {type(engine).__name__} does not satisfy "
            f"ExecutionEngine (missing/invalid: {', '.join(missing)})"
        )
