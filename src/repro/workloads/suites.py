"""Workload objects: Table II specs bound to runnable trace streams."""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.workloads.registry import WORKLOAD_SPECS, WorkloadSpec, spec
from repro.workloads.trace import TraceGenerator, TraceRecord

__all__ = [
    "ReplayWorkload",
    "Workload",
    "all_workloads",
    "load_workload",
    "materialize_traces",
    "replay_workload",
    "shared_streams",
]

#: Default scaled-down reference count per workload (the paper's runs are
#: 10^8–10^9 references; proportions are preserved, magnitude is not).
DEFAULT_REFS = 60_000


@dataclass(frozen=True)
class Workload:
    """A runnable workload: spec + per-thread trace streams."""

    spec: WorkloadSpec
    refs: int = DEFAULT_REFS
    seed: int = 42

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def threads(self) -> int:
        return self.spec.threads

    def traces(self, refs: int | None = None) -> list[Iterable[TraceRecord]]:
        """One trace per thread, generated lazily (replayed from the
        store inside a :func:`shared_streams` scope).

        Threads of a multithreaded workload share the working-set layout
        but stride their hot regions apart (distinct base addresses) the
        way per-thread heaps do, except for a shared region at the base —
        contention on the shared backend comes from timing, not aliasing.
        """
        total = refs if refs is not None else self.refs
        per_thread = max(1, total // self.threads)
        ws_bytes = self.spec.profile.working_set_lines * 64
        out: list[Iterable[TraceRecord]] = []
        for thread in range(self.threads):
            generator = TraceGenerator(
                self.spec.profile,
                seed=self.seed * 1009 + thread,
                base_address=thread * ws_bytes,
            )
            out.append(_Replayable(generator, per_thread))
        return out

    def total_refs(self) -> int:
        return max(1, self.refs // self.threads) * self.threads


#: Most records one :func:`shared_streams` scope stores.  At the figure
#: drivers' defaults the largest workload puts 25,920 records in its
#: scope (Fig. 15 at 24k references, kernel noise included); at about
#: 111 B per stored record the cap keeps a scope under 7.5 MiB.  A
#: stream that does not fit what is left stays lazy.
STREAM_BUDGET = 1 << 16


class _StreamStore:
    """The records of the streams replayed inside one scope."""

    __slots__ = ("streams", "room")

    def __init__(self) -> None:
        self.streams: dict[tuple, tuple[TraceRecord, ...]] = {}
        self.room = STREAM_BUDGET


#: the open scope's store; ``None`` outside every scope
_store: ContextVar[Optional[_StreamStore]] = ContextVar(
    "repro_stream_store", default=None)


@contextmanager
def shared_streams() -> Iterator[None]:
    """Inside this scope, generate each trace stream once and replay it.

    A stream's records are a pure function of its identity (profile,
    seed, base address, footprint limit and length), so the first
    iteration of a stream stores them as a tuple and every later
    iteration of any view with the same identity, on any platform, mode
    or frequency, replays that tuple.  Storage stops at
    :data:`STREAM_BUDGET` records; a stream past it is generated on
    every iteration, as outside a scope.  Nested scopes share the
    outermost store, and the store is dropped when the outermost scope
    exits, so no record outlives the driver call that opened it.
    """
    if _store.get() is not None:
        yield
        return
    token = _store.set(_StreamStore())
    try:
        yield
    finally:
        _store.reset(token)


@dataclass(frozen=True)
class _Replayable:
    """Re-iterable view over a deterministic generator.

    Every iteration generates the records afresh, except inside a
    :func:`shared_streams` scope, where the scope's store replays them.
    """

    #: one fixed locality profile end to end — statistically stationary,
    #: so the epoch engine may advance its steady state analytically
    #: (``count`` doubles as the engine layer's trace length hint)
    stationary = True

    generator: TraceGenerator
    count: int

    @property
    def identity(self) -> tuple:
        """What the records are a pure function of: ``(profile, seed,
        base_address, footprint_limit, count)``."""
        generator = self.generator
        return (generator.profile, generator.seed, generator.base_address,
                generator.footprint_limit, self.count)

    def __iter__(self) -> Iterator[TraceRecord]:
        store = _store.get()
        if store is None:
            return self.generator.records(self.count)
        key = self.identity
        records = store.streams.get(key)
        if records is None:
            if self.count > store.room:
                return self.generator.records(self.count)
            records = tuple(self.generator.records(self.count))
            store.streams[key] = records
            store.room -= len(records)
        return iter(records)

    def columns(self) -> tuple[list[int], list[int], list[bool]]:
        """Column-wise view (``save_trace_columnar``'s fast path)."""
        return self.generator.columns(self.count)


@dataclass(frozen=True)
class ReplayWorkload:
    """A workload replayed from pre-materialised trace streams.

    Quacks like :class:`Workload` everywhere ``Machine`` looks —
    ``spec`` / ``name`` / ``threads`` / ``refs`` / ``traces()`` — but
    its per-thread streams are fixed views (typically zero-copy
    :class:`~repro.workloads.trace_io.TraceWindow` slices of a shared
    columnar file) instead of seeded generators.  ``traces(refs)``
    ignores the override: the streams *are* the workload.
    """

    spec: WorkloadSpec
    streams: tuple = ()
    refs: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def threads(self) -> int:
        return len(self.streams)

    def traces(self, refs: int | None = None) -> list:
        return list(self.streams)

    def total_refs(self) -> int:
        return sum(getattr(s, "count", 0) for s in self.streams)


def materialize_traces(workload: Workload, directory: str | os.PathLike,
                       refs: int | None = None) -> list[Path]:
    """Write the workload's per-thread streams as columnar trace files.

    Idempotent and content-addressed: file names carry (spec, refs,
    seed, thread) and a digest of each stream's identity and of the
    package source, so a campaign can materialise once and every worker
    maps the same files read-only.  Returns one path per thread.
    """
    total = refs if refs is not None else workload.refs
    per_thread = max(1, total // workload.threads)
    return [
        _materialize_stream(
            stream, Path(directory),
            f"{workload.name}-r{per_thread}-s{workload.seed}-t{thread}")
        for thread, stream in enumerate(workload.traces(refs))
    ]


def _materialize_stream(stream: _Replayable, directory: Path,
                        stem: str) -> Path:
    """Write ``stream`` once as ``directory/<stem>-<digest>.coltrace``.

    The digest folds the stream's identity and the package source
    (:func:`~repro.orchestrate.cache.source_digest`), so a file left by
    another profile, seed or length, or by another revision of the
    generator, is never replayed as this stream.  Each writer writes its
    own temporary file and renames it into place, so processes that
    materialise the same file at once never take each other's away.

    A stem names one stream identity, so the stem's files under other
    digests were written by other revisions of the package: once its
    own file is in place, the writer deletes them.  On POSIX a file
    another process has mapped stays readable after the unlink; where
    the platform refuses to delete it, the file stays.
    """
    from repro.orchestrate.cache import fingerprint, source_digest
    from repro.workloads.trace_io import save_trace_columnar

    digest = fingerprint({"stream": stream.identity,
                          "source": source_digest()})
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{stem}-{digest[:16]}.coltrace"
    if not path.exists():
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        save_trace_columnar(stream, tmp)
        os.replace(tmp, path)
        other_digest = re.compile(re.escape(stem) + r"-[0-9a-f]{16}\.coltrace")
        for other in directory.iterdir():
            if other != path and other_digest.fullmatch(other.name):
                try:
                    other.unlink()
                except OSError:  # deleted already, or refused (mapped)
                    pass
    return path


def replay_workload(name: str, paths: Sequence[str | os.PathLike],
                    windows: Sequence[tuple[int, int]] | None = None,
                    refs: int | None = None) -> ReplayWorkload:
    """Bind columnar trace files (or windows of them) to a spec.

    ``refs`` overrides the nominal reference count the workload reports
    (``Machine.run`` derives kernel-noise volume from it); the default
    is the summed stream length, but a replay of a generated workload
    should pass the *original* refs so runs stay byte-identical to the
    generator-backed ones even when threads don't divide it evenly.
    """
    from repro.workloads.trace_io import open_trace

    streams = []
    for index, path in enumerate(paths):
        trace = open_trace(path)
        lo, hi = (0, trace.count) if windows is None else windows[index]
        streams.append(trace.window(lo, hi))
    workload_spec = spec(name)
    total = refs if refs is not None else sum(s.count for s in streams)
    return ReplayWorkload(spec=workload_spec, streams=tuple(streams),
                          refs=total)


def load_workload(name: str, refs: int = DEFAULT_REFS, seed: int = 42) -> Workload:
    return Workload(spec=spec(name), refs=refs, seed=seed)


def all_workloads(
    refs: int = DEFAULT_REFS, seed: int = 42, category: str | None = None
) -> list[Workload]:
    out = []
    for name, s in WORKLOAD_SPECS.items():
        if category is not None and s.category != category:
            continue
        out.append(Workload(spec=s, refs=refs, seed=seed))
    return out
