"""Statistics accumulators and the hierarchical stats registry."""

from repro.sim.stats import (
    Counter,
    Histogram,
    LatencyStats,
    RatioStat,
    StatsRegistry,
    TimeSeries,
    geometric_mean,
    weighted_mean,
)

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
