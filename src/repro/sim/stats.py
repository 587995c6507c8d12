"""Statistics accumulators used across the simulator.

The evaluation figures mostly need latency distributions (means,
percentiles, min/max spreads for the "latency variation" plots) and
windowed time series (dynamic IPC / power plots).  The accumulators here
are streaming and allocation-light so they can sit on hot paths.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Counter",
    "Histogram",
    "LatencyStats",
    "RatioStat",
    "StatsRegistry",
    "TimeSeries",
    "geometric_mean",
    "weighted_mean",
]


class LatencyStats:
    """Streaming summary of a latency (or any scalar) population.

    Keeps count/sum/sum-of-squares/min/max exactly and a reservoir sample
    for percentile estimation.  Reservoir sampling keeps memory bounded on
    multi-hundred-thousand-access traces while remaining deterministic
    (the caller provides the RNG-free ``stride`` discipline: every value is
    kept until the reservoir fills, then every k-th value replaces round-
    robin, which is adequate for the smooth distributions we sample).
    """

    __slots__ = ("name", "count", "total", "total_sq", "min", "max",
                 "_reservoir", "_capacity", "_cursor", "_stride", "_skip")

    def __init__(self, name: str = "", capacity: int = 4096) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: list[float] = []
        self._capacity = capacity
        self._cursor = 0
        self._stride = 1
        self._skip = 0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
            return
        self._skip += 1
        if self._skip >= self._stride:
            self._skip = 0
            self._reservoir[self._cursor] = value
            self._cursor += 1
            if self._cursor >= self._capacity:
                self._cursor = 0
                # Decay the sampling rate so early and late values stay
                # comparably represented in long runs.
                self._stride = min(self._stride * 2, 1 << 20)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def reset(self) -> None:
        """Zero the population in place.

        Interposers reset their distributions on ``power_cycle`` through
        this, so :class:`StatsRegistry` nodes that captured a reference
        keep reporting the (now empty) same object instead of a stale
        snapshot.
        """
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir.clear()
        self._cursor = 0
        self._stride = 1
        self._skip = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean
        return max(self.total_sq / self.count - mean * mean, 0.0)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) from the reservoir."""
        if not self._reservoir:
            return 0.0
        return self._quantile(sorted(self._reservoir), q)

    @staticmethod
    def _quantile(ordered: Sequence[float], q: float) -> float:
        if q <= 0:
            return ordered[0]
        if q >= 100:
            return ordered[-1]
        pos = (len(ordered) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def spread(self) -> float:
        """Max/min ratio — the paper's "latency variation" metric."""
        if self.count == 0 or self.min <= 0:
            return 0.0
        return self.max / self.min

    def summary(self) -> dict[str, float]:
        if not self.count:
            # A freshly-built or freshly-reset node: every field is an
            # exact 0.0, never an inf/NaN sentinel leaking out of the
            # internal min/max bookkeeping (``repro stats`` renders and
            # JSON-serializes these nodes directly).
            return {"count": 0, "mean": 0.0, "stdev": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self._reservoir)
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min,
            "max": self.max,
            "p50": self._quantile(ordered, 50) if ordered else 0.0,
            "p95": self._quantile(ordered, 95) if ordered else 0.0,
            "p99": self._quantile(ordered, 99) if ordered else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LatencyStats {self.name} n={self.count} mean={self.mean:.2f} "
            f"min={self.min:.2f} max={self.max:.2f}>"
        )


class Histogram:
    """Fixed-bin histogram for latency-variation figures."""

    def __init__(self, lo: float, hi: float, bins: int = 64) -> None:
        if hi <= lo:
            raise ValueError(f"invalid histogram range [{lo}, {hi})")
        if bins <= 0:
            raise ValueError("bins must be positive")
        self.lo = lo
        self.hi = hi
        self.bins = bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self._width = (hi - lo) / bins

    def record(self, value: float) -> None:
        if value < self.lo:
            self.underflow += 1
            return
        if value >= self.hi:
            self.overflow += 1
            return
        self.counts[int((value - self.lo) / self._width)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def edges(self) -> list[float]:
        return [self.lo + i * self._width for i in range(self.bins + 1)]

    def normalized(self) -> list[float]:
        total = self.total
        if total == 0:
            return [0.0] * self.bins
        return [c / total for c in self.counts]


class Counter:
    """A named bag of integer counters."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self.get(name)


@dataclass
class RatioStat:
    """Hit/total ratio tracker (cache hits, row-buffer hits, ...)."""

    hits: int = 0
    total: int = 0

    def record(self, hit: bool) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    def record_many(self, hits: int, total: int) -> None:
        """Bulk :meth:`record`: ``hits`` hits out of ``total`` trials."""
        self.total += total
        self.hits += hits

    @property
    def ratio(self) -> float:
        return self.hits / self.total if self.total else 0.0


@dataclass
class TimeSeries:
    """Windowed time series: accumulate samples and read back per-window means.

    Used for the dynamic-IPC and dynamic-power plots (Fig. 21).  Values are
    accumulated into fixed-width windows keyed by the sample timestamp.
    """

    window: float
    _sums: dict[int, float] = field(default_factory=dict)
    _counts: dict[int, int] = field(default_factory=dict)

    def record(self, time: float, value: float) -> None:
        idx = int(time // self.window)
        self._sums[idx] = self._sums.get(idx, 0.0) + value
        self._counts[idx] = self._counts.get(idx, 0) + 1

    def points(self) -> Iterator[tuple[float, float]]:
        """Yield (window-center time, mean value) in time order."""
        for idx in sorted(self._sums):
            center = (idx + 0.5) * self.window
            yield center, self._sums[idx] / self._counts[idx]

    def values(self) -> list[float]:
        return [v for _, v in self.points()]


#: What can sit behind a registry path: an accumulator, a number, or a
#: zero-argument callable producing any of these (including nested dicts).
StatSource = Union["LatencyStats", "RatioStat", "Counter", int, float, object]

_PATH_SEGMENT = re.compile(r"^[A-Za-z0-9_]+$")


class StatsRegistry:
    """Hierarchical registry of named statistics sources.

    Every device registers its stats under a dotted path — the PSM's
    third DIMM's first CE group publishes ``memory.devices.dimm3.group0``
    — and the machine exports one uniform tree via :meth:`snapshot`.
    Sources are resolved lazily at snapshot time, so registering is free
    on hot paths and the tree always reflects current values:

    * :class:`LatencyStats` resolve to their :meth:`LatencyStats.summary`,
    * :class:`RatioStat` to ``{"hits", "total", "ratio"}``,
    * :class:`Counter` to its dict,
    * numbers pass through, and
    * zero-argument callables are invoked and resolved recursively —
      the idiom for live attributes (``lambda: psm.mce_count``) and for
      objects the owner replaces wholesale (``lambda: cache.read_hits``).

    ``scoped(prefix)`` returns a view that shares the same entries but
    prepends ``prefix`` to every path, which is how a parent hands each
    child device its own subtree without the child knowing where it sits.
    """

    def __init__(self) -> None:
        self._entries: dict[str, StatSource] = {}
        self._prefix = ""

    # -- registration -------------------------------------------------------

    def _join(self, path: str) -> str:
        if not path:
            raise ValueError("stat path must be non-empty")
        for segment in path.split("."):
            if not _PATH_SEGMENT.match(segment):
                raise ValueError(
                    f"invalid stat path segment {segment!r} in {path!r}; "
                    f"use [A-Za-z0-9_]+ joined by dots"
                )
        return f"{self._prefix}.{path}" if self._prefix else path

    def scoped(self, prefix: str) -> "StatsRegistry":
        """A view over the same registry with ``prefix`` prepended."""
        view = StatsRegistry.__new__(StatsRegistry)
        view._entries = self._entries
        view._prefix = self._join(prefix)
        return view

    def register(self, path: str, source: StatSource) -> StatSource:
        """Bind ``source`` at ``path`` (relative to this scope)."""
        full = self._join(path)
        for existing in self._entries:
            if (existing == full or existing.startswith(full + ".")
                    or full.startswith(existing + ".")):
                raise ValueError(
                    f"stat path {full!r} collides with registered "
                    f"{existing!r}"
                )
        self._entries[full] = source
        return source

    def drop(self, prefix: str = "") -> int:
        """Remove every entry under ``prefix``; returns how many."""
        full = self._join(prefix) if prefix else self._prefix
        doomed = [key for key in self._entries
                  if not full or key == full or key.startswith(full + ".")]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    # -- export -------------------------------------------------------------

    def paths(self) -> list[str]:
        """Sorted registered paths visible from this scope (relative)."""
        if not self._prefix:
            return sorted(self._entries)
        cut = len(self._prefix) + 1
        return sorted(
            key[cut:] for key in self._entries
            if key.startswith(self._prefix + ".")
        )

    @staticmethod
    def _resolve(source: StatSource):
        if isinstance(source, LatencyStats):
            return source.summary()
        if isinstance(source, RatioStat):
            return {"hits": source.hits, "total": source.total,
                    "ratio": source.ratio}
        if isinstance(source, Counter):
            return {k: float(v) for k, v in source.as_dict().items()}
        if isinstance(source, bool):
            return float(source)
        if isinstance(source, (int, float)):
            return source
        if isinstance(source, dict):
            return {key: StatsRegistry._resolve(value)
                    for key, value in source.items()}
        if callable(source):
            return StatsRegistry._resolve(source())
        raise TypeError(f"cannot resolve stat source {type(source).__name__}")

    def snapshot(self) -> dict:
        """The stats tree under this scope as plain nested dicts."""
        tree: dict = {}
        for path in self.paths():
            node = tree
            parts = path.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = self._resolve(
                self._entries[self._join(path)]
            )
        return tree

    def flat(self) -> dict[str, float]:
        """The snapshot flattened to dotted-path -> float leaves."""
        out: dict[str, float] = {}

        def walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key, child in value.items():
                    walk(f"{prefix}.{key}" if prefix else key, child)
            else:
                out[prefix] = float(value)

        walk("", self.snapshot())
        return out


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; the paper's cross-workload averages use it."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    total_weight = sum(weights)
    if total_weight == 0:
        return 0.0
    return sum(v * w for v, w in zip(values, weights)) / total_weight
