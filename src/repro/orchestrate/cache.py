"""On-disk shard cache: re-running a campaign only executes new work.

A shard's cache key is a SHA-256 over the campaign's *identity* — name,
seed, trial-function parameters — the digest of the ``repro`` package
source (:func:`source_digest`) and the shard's trial range, so a warm
re-run of the same campaign by the same code loads every shard from
disk, while any change to the configuration, the seed or the code that
runs the trials misses cleanly.

Entries are versioned: a magic line, a JSON meta line (trial count,
per-field sums, violation texts — what :class:`PackedShard.meta`
emits), then the pickled shard body.  The meta line is the streaming
fast path: a warm re-run that only needs campaign aggregates reads one
JSON line per shard and never unpickles a body.  Writes are atomic
(temp file + rename) so a crashed run never leaves a torn entry, and a
*corrupt* entry — torn by an older crash, truncated by a full disk,
unreadable after a refactor — is deleted on load failure so exactly one
run pays the miss instead of every run forever.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["NO_VALUE", "ShardCache", "ShardEntry", "fingerprint",
           "source_digest"]

#: Sentinel distinguishing "cache miss" from a cached ``None``.
NO_VALUE = object()

#: First line of every cache entry; bumping it invalidates old caches.
_MAGIC = b"LPCSHARD2\n"

#: Everything a load can die of: torn files, truncated pickles, stale
#: class references after a refactor, bad JSON in a hand-edited header.
_LOAD_ERRORS = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ValueError, ImportError, IndexError, KeyError)


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to a JSON-stable form for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                "fields": _canonical(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(_canonical(v)) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    if callable(value):
        return f"{getattr(value, '__module__', '?')}." \
               f"{getattr(value, '__qualname__', repr(value))}"
    return repr(value)


def fingerprint(payload: Any) -> str:
    """Stable hex digest of an arbitrary (canonicalisable) payload."""
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the ``repro`` package source, computed once per process.

    Every ``.py`` file under the package, in sorted order of its path
    relative to the package root, contributes that path and its bytes.
    A cached shard is a result of the code that ran it; folding this
    into the shard key keeps a cache written by one revision from being
    replayed by another.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(root).as_posix()
                           for path in root.rglob("*.py")):
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@dataclass
class ShardEntry:
    """One cached shard: parsed meta now, pickled body on demand."""

    meta: dict
    _path: Path
    _body_offset: int
    _cache: "ShardCache"

    def load(self) -> Any:
        """The cached value, or :data:`NO_VALUE` if the body is corrupt
        (the entry is purged, so the caller re-executes exactly once)."""
        try:
            with self._path.open("rb") as handle:
                handle.seek(self._body_offset)
                return pickle.load(handle)
        except _LOAD_ERRORS:
            self._cache._purge(self._path)
            return NO_VALUE


class ShardCache:
    """Versioned pickle-per-shard cache under one directory.

    ``hits`` / ``misses`` / ``stores`` / ``purged`` counters let tests
    (and the acceptance criterion — "a warm cache re-run completes
    without re-executing any shard") observe exactly what was reused,
    and that corrupt entries were evicted rather than re-tripped.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: corrupt/legacy entries deleted on load failure
        self.purged = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # -- reads -------------------------------------------------------------

    def get_entry(self, key: str) -> Any:
        """The :class:`ShardEntry` for ``key``, or :data:`NO_VALUE`.

        The entry's meta line is parsed eagerly (that is the streaming
        merge); the body stays on disk until ``load()``.  A missing
        file is a plain miss; anything unreadable — bad magic (legacy
        headerless entries included), torn meta — is deleted so the
        failure path runs once, not on every warm re-run.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                magic = handle.readline(len(_MAGIC) + 1)
                if magic != _MAGIC:
                    raise ValueError("bad shard magic")
                meta = json.loads(handle.readline().decode())
                if not isinstance(meta, dict):
                    raise ValueError("bad shard meta")
                offset = handle.tell()
        except FileNotFoundError:
            self.misses += 1
            return NO_VALUE
        except _LOAD_ERRORS:
            self._purge(path)
            self.misses += 1
            return NO_VALUE
        self.hits += 1
        return ShardEntry(meta=meta, _path=path, _body_offset=offset,
                          _cache=self)

    def get(self, key: str) -> Any:
        """The cached value, or :data:`NO_VALUE` on a miss."""
        entry = self.get_entry(key)
        if entry is NO_VALUE:
            return NO_VALUE
        value = entry.load()
        if value is NO_VALUE:
            # counted as a hit when the header parsed; take it back
            self.hits -= 1
            self.misses += 1
        return value

    # -- writes ------------------------------------------------------------

    def put(self, key: str, value: Any, meta: dict | None = None) -> Path:
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(json.dumps(
                    meta or {}, sort_keys=True,
                    separators=(",", ":")).encode())
                handle.write(b"\n")
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    # -- eviction ----------------------------------------------------------

    def _purge(self, path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        else:
            self.purged += 1
