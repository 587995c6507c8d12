"""Epoch-analytical engine: skip steady-state phases in closed form.

The exact engines replay every access; at the paper's scale (10^8–10^9
references behind Table II and Fig. 20–22) the next order of magnitude
comes from not replaying stable phases at all.  This engine applies the
interval/analytical-model technique (arXiv:2502.10167, and METICULOUS's
coarse timing tiers, arXiv:2309.06565) to the single-survivor trace
drain:

1. **Calibrate** — replay ``stable_windows`` consecutive windows
   exactly, recording each window's columnar
   :class:`~repro.engine.columnar.WindowSignature` (R/W mix, line
   pressure, row locality) and its measured deltas (clock advance,
   core stats, cache hit counters, backend counters).
2. **Skip** — once the signatures and the per-window clock advance
   agree within ``tolerance``, stop generating records: subsequent
   windows are marked *pending* and the trace generator is left
   untouched (skipping the generation is where most of the wall-clock
   win lives).
3. **Probe** — every ``probe_interval`` windows the pending block is
   settled analytically — one bulk update per stat from the calibrated
   means — and the next window is generated and replayed exactly.  A
   probe whose signature or timing drifts is a **phase boundary**: the
   engine falls back to calibration and replays exactly until the new
   phase stabilizes.

Exactness escape hatches, so crash-fuzzer semantics are untouched:

* an armed fault injector anywhere in the port chain (a scheduled
  ``crash_at_op`` or pending compound cuts) disables skipping for the
  whole drain — fault points always land on exactly-replayed traffic;
* a persistence cut (``flush_cache``) landing while windows are
  pending forces **exact replay from the last phase boundary**: the
  pending windows are generated and executed for real before the dump,
  so no analytically-skipped dirty line is missing from the recovered
  state, and the cache dump drains the true dirty set;
* non-stationary or unsized sources (no ``count``/``refs`` hint, no
  ``stationary`` marker) drain through the exact window loop.

Because skipped windows are *estimated* from calibrated means, an
epoch run's aggregate timing/stats are an approximation of the exact
run (the forced-boundary configuration — ``probe_interval=1`` or an
infinite ``stable_windows`` — degenerates to the extent engine
byte-for-byte; the equivalence suite pins that).  Backend counters for
the skipped traffic are accumulated into the per-run
:class:`EpochReport`, which ``Machine.run`` folds into the run's
counters and power report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.base import register_engine
from repro.engine.columnar import WindowSignature, signature_of_records
from repro.engine.extent import ExtentEngine

__all__ = ["EpochEngine", "EpochReport"]


@dataclass
class EpochReport:
    """What one run's epoch acceleration did (and estimated)."""

    #: windows advanced analytically / records never generated
    windows_skipped: int = 0
    records_skipped: int = 0
    #: windows replayed exactly (calibration + probes + tails)
    windows_exact: int = 0
    records_exact: int = 0
    #: steady phases entered (skip-mode activations)
    phases: int = 0
    #: probes that drifted and forced recalibration
    boundaries: int = 0
    #: pending windows force-replayed by a mid-epoch persistence cut
    windows_forced_exact: int = 0
    #: estimated backend-counter deltas for the skipped traffic
    counter_deltas: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "windows_skipped": self.windows_skipped,
            "records_skipped": self.records_skipped,
            "windows_exact": self.windows_exact,
            "records_exact": self.records_exact,
            "phases": self.phases,
            "boundaries": self.boundaries,
            "windows_forced_exact": self.windows_forced_exact,
            "counter_deltas": dict(self.counter_deltas),
        }


@dataclass
class _WindowDelta:
    """Measured side effects of one exactly-replayed window."""

    now: float
    instructions: float
    reads: float
    writes: float
    evictions: float
    compute_ns: float
    read_stall_ns: float
    write_stall_ns: float
    software_ns: float
    read_hit_hits: float
    read_hit_total: float
    write_hit_hits: float
    write_hit_total: float
    cache_evictions: float
    cache_dirty_evictions: float
    counters: dict[str, float]


def _rel_close(a: float, b: float, tolerance: float) -> bool:
    scale = max(abs(a), abs(b), 1e-9)
    return abs(a - b) / scale <= tolerance


def _armed_fault(backend) -> bool:
    """Is any injector in the port chain armed?

    Structural walk down ``inner`` links: a scheduled
    :class:`~repro.memory.port.FaultInjector` exposes ``crash_at_op``,
    a :class:`~repro.faults.compound.CompoundFaultInjector` carries
    pending ``cuts``.  Armed means every record must replay exactly so
    the trip lands on real traffic.
    """
    seen = 0
    node = backend
    while node is not None and seen < 64:
        if getattr(node, "crash_at_op", None) is not None:
            return True
        if getattr(node, "cuts", None):
            return True
        node = getattr(node, "inner", None)
        seen += 1
    return False


class _EpochSession:
    """One drain of one core's trace through the epoch state machine."""

    def __init__(
        self,
        engine: "EpochEngine",
        core,
        records,
        thread_id: int,
        remaining: Optional[int],
        analytic: bool,
    ) -> None:
        self.engine = engine
        self.core = core
        self.records = iter(records)
        self.thread_id = thread_id
        self.remaining = remaining
        self.analytic = analytic
        #: sliding calibration history: (signature, delta) per window
        self.history: list[tuple[WindowSignature, _WindowDelta]] = []
        self.skipping = False
        self.pending = 0
        self.finished = False

    # -- stepping ---------------------------------------------------------

    def step(self) -> bool:
        """Advance one window-equivalent; False when the drain is done."""
        engine = self.engine
        window = engine.window
        if not self.analytic:
            chunk = list(itertools.islice(self.records, window))
            if not chunk:
                return False
            self._execute_exact(chunk)
            return True
        if self.remaining <= 0:
            self.settle_pending_analytic()
            return False
        if self.skipping and self.remaining >= window:
            if (self.pending + 1 < engine.probe_interval
                    and self.remaining > window):
                # Mark the window pending without generating it — the
                # iterator stays parked at the last phase boundary.
                self.pending += 1
                self.remaining -= window
                return True
            # Probe due: settle the pending block analytically, then
            # replay the next real window and check for drift.
            self.settle_pending_analytic()
            return self._exact_step(probe=True)
        return self._exact_step()

    def _exact_step(self, probe: bool = False) -> bool:
        engine = self.engine
        window = engine.window
        if self.pending:
            # Pending windows are logically earlier than this one —
            # settle them before executing anything later.
            self.settle_pending_analytic()
        take = min(window, self.remaining)
        chunk = list(itertools.islice(self.records, take))
        if not chunk:
            # Length hint overshot the generator: settle and stop.
            self.remaining = 0
            self.settle_pending_analytic()
            return False
        self.remaining -= len(chunk)
        if len(chunk) < window:
            # Undersized tail: exact, never measured.
            self._execute_exact(chunk)
            return True
        signature = signature_of_records(chunk)
        delta = self._measure_exact(chunk)
        if probe:
            mean_sig, mean_now = self._calibration_mean()
            if (signature.close_to(mean_sig, engine.tolerance)
                    and _rel_close(delta.now, mean_now, engine.tolerance)):
                self._push_history(signature, delta)
            else:
                # Phase boundary: drift detected — recalibrate from here.
                engine._report.boundaries += 1
                self.history = [(signature, delta)]
                self.skipping = False
            return True
        self._push_history(signature, delta)
        if (not self.skipping
                and len(self.history) >= engine.stable_windows
                and self._stable()):
            self.skipping = True
            engine._report.phases += 1
        return True

    def _push_history(self, signature: WindowSignature,
                      delta: _WindowDelta) -> None:
        self.history.append((signature, delta))
        if len(self.history) > self.engine.stable_windows:
            self.history.pop(0)

    def _stable(self) -> bool:
        tolerance = self.engine.tolerance
        mean_sig, mean_now = self._calibration_mean()
        for signature, delta in self.history:
            if not signature.close_to(mean_sig, tolerance):
                return False
            if not _rel_close(delta.now, mean_now, tolerance):
                return False
        return True

    def _calibration_mean(self) -> tuple[WindowSignature, float]:
        n = len(self.history)
        mean_sig = WindowSignature(
            records=sum(s.records for s, _ in self.history) // n,
            writes=sum(s.writes for s, _ in self.history) // n,
            instructions=sum(s.instructions for s, _ in self.history) // n,
            unique_lines=sum(s.unique_lines for s, _ in self.history) // n,
            row_locality=sum(s.row_locality for s, _ in self.history) / n,
        )
        mean_now = sum(d.now for _, d in self.history) / n
        return mean_sig, mean_now

    # -- exact execution + measurement ------------------------------------

    def _execute_exact(self, chunk) -> None:
        self.core.execute_window(chunk, self.thread_id)
        report = self.engine._report
        report.windows_exact += 1
        report.records_exact += len(chunk)

    def _measure_exact(self, chunk) -> _WindowDelta:
        core = self.core
        stats = core.stats
        cache = core.cache
        before = (
            core.now, stats.instructions, stats.reads, stats.writes,
            stats.evictions, stats.compute_ns, stats.read_stall_ns,
            stats.write_stall_ns, stats.software_ns,
        )
        cache_before = (
            cache.read_hits.hits, cache.read_hits.total,
            cache.write_hits.hits, cache.write_hits.total,
            cache.evictions, cache.dirty_evictions,
        )
        counters_before = self._numeric_counters()
        self._execute_exact(chunk)
        counters_after = self._numeric_counters()
        counter_delta = {
            key: counters_after[key] - counters_before.get(key, 0.0)
            for key in counters_after
        }
        return _WindowDelta(
            now=core.now - before[0],
            instructions=stats.instructions - before[1],
            reads=stats.reads - before[2],
            writes=stats.writes - before[3],
            evictions=stats.evictions - before[4],
            compute_ns=stats.compute_ns - before[5],
            read_stall_ns=stats.read_stall_ns - before[6],
            write_stall_ns=stats.write_stall_ns - before[7],
            software_ns=stats.software_ns - before[8],
            read_hit_hits=cache.read_hits.hits - cache_before[0],
            read_hit_total=cache.read_hits.total - cache_before[1],
            write_hit_hits=cache.write_hits.hits - cache_before[2],
            write_hit_total=cache.write_hits.total - cache_before[3],
            cache_evictions=cache.evictions - cache_before[4],
            cache_dirty_evictions=cache.dirty_evictions - cache_before[5],
            counters=counter_delta,
        )

    def _numeric_counters(self) -> dict[str, float]:
        # Ratio-shaped counters are stateless summaries, not additive
        # traffic counts — they cannot be advanced by deltas.
        out = {}
        for key, value in self.core.backend.counters().items():
            if isinstance(value, (int, float)) and "ratio" not in key:
                out[key] = float(value)
        return out

    # -- settlement -------------------------------------------------------

    def settle_pending_analytic(self) -> None:
        """Advance the pending block in closed form from the calibrated
        means: one bulk update per stat, no records generated."""
        k = self.pending
        if k <= 0:
            return
        self.pending = 0
        n = len(self.history)
        deltas = [d for _, d in self.history]
        core = self.core
        stats = core.stats
        cache = core.cache

        def mean(attr: str) -> float:
            return sum(getattr(d, attr) for d in deltas) / n

        core.now += k * mean("now")
        stats.compute_ns += k * mean("compute_ns")
        stats.read_stall_ns += k * mean("read_stall_ns")
        stats.write_stall_ns += k * mean("write_stall_ns")
        stats.software_ns += k * mean("software_ns")
        stats.instructions += int(round(k * mean("instructions")))
        stats.reads += int(round(k * mean("reads")))
        stats.writes += int(round(k * mean("writes")))
        stats.evictions += int(round(k * mean("evictions")))
        cache.read_hits.record_many(
            int(round(k * mean("read_hit_hits"))),
            int(round(k * mean("read_hit_total"))),
        )
        cache.write_hits.record_many(
            int(round(k * mean("write_hit_hits"))),
            int(round(k * mean("write_hit_total"))),
        )
        cache.evictions += int(round(k * mean("cache_evictions")))
        cache.dirty_evictions += int(round(k * mean("cache_dirty_evictions")))

        report = self.engine._report
        # First-seen order, so the report's key order does not follow
        # the per-process string hash; each key sums on its own.
        keys = dict.fromkeys(key for delta in deltas for key in delta.counters)
        for key in keys:
            per_window = sum(d.counters.get(key, 0.0) for d in deltas) / n
            if per_window:
                report.counter_deltas[key] = (
                    report.counter_deltas.get(key, 0.0) + k * per_window
                )
        report.windows_skipped += k
        report.records_skipped += k * self.engine.window

    def settle_pending_exact(self) -> None:
        """Generate and replay every pending window for real.

        The iterator is still parked at the last phase boundary, so the
        records produced here are the *true* skipped windows — after
        this, core clock, stats, cache contents and backend state are
        byte-identical to an exact drain of the same prefix.  Called by
        ``flush_cache`` when a persistence cut lands mid-epoch; the
        flush perturbs the cache, so the session recalibrates.
        """
        k = self.pending
        self.pending = 0
        window = self.engine.window
        for _ in range(k):
            chunk = list(itertools.islice(self.records, window))
            if not chunk:
                break
            self._execute_exact(chunk)
            self.engine._report.windows_forced_exact += 1
        self.skipping = False
        self.history = []


class EpochEngine(ExtentEngine):
    """Phase-detecting analytical engine over the extent engine's
    exact drain and flush."""

    name = "epoch"

    def __init__(
        self,
        window: int = 4096,
        stable_windows: int = 4,
        probe_interval: int = 64,
        tolerance: float = 0.08,
        min_windows: int = 12,
    ) -> None:
        super().__init__(window=window)
        if stable_windows < 1:
            raise ValueError("stable_windows must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        self.stable_windows = stable_windows
        self.probe_interval = probe_interval
        self.tolerance = tolerance
        self.min_windows = min_windows
        self._report = EpochReport()
        self._sessions: dict[int, _EpochSession] = {}

    @property
    def params(self) -> dict:
        return {**super().params, "stable_windows": self.stable_windows,
                "probe_interval": self.probe_interval,
                "tolerance": self.tolerance, "min_windows": self.min_windows}

    # -- per-run report (optional engine extension) -----------------------

    def begin_run(self) -> None:
        """Reset the per-run report (``Machine.run`` calls this)."""
        self._report = EpochReport()

    def take_run_report(self) -> EpochReport:
        """Return and reset the accumulated per-run report."""
        report, self._report = self._report, EpochReport()
        return report

    # -- drain ------------------------------------------------------------

    def drain(self, core, records, thread_id: int = 0, *,
              source=None, consumed: int = 0) -> None:
        session = self.open_session(
            core, records, thread_id, source=source, consumed=consumed
        )
        try:
            while session.step():
                pass
        finally:
            self.close_session(core)

    def open_session(self, core, records, thread_id: int = 0, *,
                     source=None, consumed: int = 0) -> _EpochSession:
        """Build (and register) the drain session for ``core``.

        Exposed for white-box tests that need to interleave stepping
        with persistence cuts; normal callers just use :meth:`drain`.
        """
        count = getattr(source, "count", None)
        if count is None:
            count = getattr(source, "refs", None)
        remaining = None
        if count is not None:
            remaining = max(0, int(count) - consumed)
        analytic = (
            bool(getattr(source, "stationary", False))
            and remaining is not None
            and remaining >= self.min_windows * self.window
            and not _armed_fault(core.backend)
        )
        session = _EpochSession(
            self, core, records, thread_id, remaining, analytic
        )
        self._sessions[core.core_id] = session
        return session

    def close_session(self, core) -> None:
        session = self._sessions.pop(core.core_id, None)
        if session is not None and session.analytic:
            session.settle_pending_analytic()

    # -- persistence cut --------------------------------------------------

    def flush_cache(self, core) -> tuple[int, list[int]]:
        session = self._sessions.get(core.core_id)
        if session is not None and session.pending:
            # A cut mid-epoch: replay the skipped block exactly before
            # dumping, so the dirty set being flushed is the real one.
            session.settle_pending_exact()
        return super().flush_cache(core)


register_engine("epoch", EpochEngine)
