"""The run telemetry collector: spans, counters, gauges, progress.

A generation run today spans multiple layers — model compilation, hour
stepping, checkpoint snapshots, worker pools — and production questions
("where did the time go?", "why is the resumed run slower?", "how many
events per UE-hour did this seed produce?") need structured answers, not
log archaeology.  :class:`RunTelemetry` is the single collection point:

- **spans** — named wall/CPU time intervals (``with tele.span("generate")``),
  re-entrant by name: entering the same span name again accumulates into
  the same record (count, total wall seconds, total CPU seconds).
- **counters** — monotonic integer accumulators (events emitted, UE-hours
  advanced, RNG draws, chunk retries, checkpoint snapshots/bytes).
- **gauges** — last-value-wins measurements with a ``max_gauge`` variant
  for high-water marks (peak RSS, active workers).
- **progress callbacks** — user-registered observers invoked (rate
  limited) as the run advances, so a million-UE run is watchable.

Everything is plain stdlib + integers; the cost of a counter bump is one
dict ``get`` and an add, which is what lets the generation hot paths keep
their counters *always on* (<3% overhead on ``bench_generator_speed``,
verified there).  There is always an ambient collector
(:func:`get_telemetry`); :func:`use_telemetry` installs a specific one
for a ``with`` scope, and every generation entry point also accepts an
explicit ``telemetry=`` argument that wins over the ambient one.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ProgressEvent",
    "RunTelemetry",
    "get_telemetry",
    "use_telemetry",
]

#: ``(phase, done, total)`` — ``total`` may be 0 when unknown.
ProgressEvent = Tuple[str, int, int]


def _peak_rss_bytes() -> int:
    """Max resident set size of this process in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


class _SpanHandle:
    """Context manager for one entry of a named span."""

    __slots__ = ("_tele", "_name", "_wall0", "_cpu0")

    def __init__(self, tele: "RunTelemetry", name: str) -> None:
        self._tele = tele
        self._name = name

    def __enter__(self) -> "_SpanHandle":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._tele._record_span(
            self._name,
            time.perf_counter() - self._wall0,
            time.process_time() - self._cpu0,
        )


class RunTelemetry:
    """Collects one run's spans, counters, and gauges (see module doc)."""

    def __init__(self, run_info: Optional[Dict[str, Any]] = None) -> None:
        self.run_info: Dict[str, Any] = dict(run_info or {})
        #: name -> [count, wall_s, cpu_s]
        self._spans: Dict[str, List[float]] = {}
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._callbacks: List[Tuple[Callable[..., None], float, List[float]]] = []

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> _SpanHandle:
        """Time a named phase: ``with tele.span("generate"): ...``."""
        return _SpanHandle(self, name)

    def _record_span(self, name: str, wall_s: float, cpu_s: float) -> None:
        rec = self._spans.get(name)
        if rec is None:
            self._spans[name] = [1, wall_s, cpu_s]
        else:
            rec[0] += 1
            rec[1] += wall_s
            rec[2] += cpu_s

    # -- counters -------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> None:
        """Bump a monotonic counter (``delta`` must be non-negative)."""
        if delta < 0:
            raise ValueError(f"counter {name!r}: delta must be >= 0, got {delta}")
        self._counters[name] = self._counters.get(name, 0) + int(delta)

    # -- gauges ---------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest observed value."""
        self._gauges[name] = float(value)

    def max_gauge(self, name: str, value: float) -> None:
        """Raise a high-water-mark gauge (keeps the maximum seen)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = float(value)

    def record_peak_rss(self) -> None:
        """Sample the process's peak RSS into the ``peak_rss_bytes`` gauge."""
        rss = _peak_rss_bytes()
        if rss:
            self.max_gauge("peak_rss_bytes", rss)

    # -- progress -------------------------------------------------------
    def on_progress(
        self,
        callback: Callable[[str, int, int], None],
        *,
        min_interval: float = 0.5,
    ) -> None:
        """Register ``callback(phase, done, total)`` for progress ticks.

        Calls are rate-limited to one per ``min_interval`` seconds per
        callback, except that completion ticks (``done == total`` with a
        known total) are always delivered — a watcher never misses the
        end of a phase.
        """
        if min_interval < 0:
            raise ValueError("min_interval must be non-negative")
        # The first tick is always due: -inf, not 0.0, because
        # time.monotonic() may start near zero (e.g. at host boot).
        self._callbacks.append((callback, float(min_interval), [-math.inf]))

    def progress(self, phase: str, done: int, total: int = 0) -> None:
        """Report progress; fan out to registered callbacks (rate-limited)."""
        if not self._callbacks:
            return
        now = time.monotonic()
        final = total > 0 and done >= total
        for callback, min_interval, last in self._callbacks:
            if not final and now - last[0] < min_interval:
                continue
            last[0] = now
            callback(phase, done, total)

    # -- merging --------------------------------------------------------
    def merge_child(self, record: Dict[str, Any]) -> None:
        """Fold a child record (e.g. one worker chunk's) into this run.

        ``record`` is the dict shape produced by :meth:`child_record`:
        counters add, span entries accumulate, gauges take the maximum
        (child gauges are high-water marks by convention).
        """
        for name, delta in record.get("counters", {}).items():
            self.count(name, int(delta))
        for name, (count, wall_s, cpu_s) in record.get("spans", {}).items():
            rec = self._spans.get(name)
            if rec is None:
                self._spans[name] = [int(count), float(wall_s), float(cpu_s)]
            else:
                rec[0] += int(count)
                rec[1] += float(wall_s)
                rec[2] += float(cpu_s)
        for name, value in record.get("gauges", {}).items():
            self.max_gauge(name, float(value))

    def child_record(self) -> Dict[str, Any]:
        """This collector's state as a mergeable child record."""
        return {
            "counters": dict(self._counters),
            "spans": {k: list(v) for k, v in self._spans.items()},
            "gauges": dict(self._gauges),
        }

    # -- reporting ------------------------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    @property
    def spans(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": int(c), "wall_s": w, "cpu_s": p}
            for name, (c, w, p) in self._spans.items()
        }

    def to_report(self) -> Dict[str, Any]:
        """The versioned, schema-conforming JSON report (a plain dict)."""
        from .report import REPORT_FORMAT, REPORT_VERSION

        self.record_peak_rss()
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "created_unix": time.time(),
            "run": {str(k): v for k, v in self.run_info.items()},
            "spans": self.spans,
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
        }

    def write_report(self, path: Any) -> Dict[str, Any]:
        """Validate and write the report to ``path``; returns the dict."""
        import json
        import os

        from .report import validate_report

        report = self.to_report()
        validate_report(report)
        with open(os.fspath(path), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return report


#: The ambient collector: always present, so hot paths can bump counters
#: unconditionally.  Replaced for a scope by :func:`use_telemetry`.
_ACTIVE = RunTelemetry()


def get_telemetry() -> RunTelemetry:
    """The currently active (ambient) collector."""
    return _ACTIVE


@contextlib.contextmanager
def use_telemetry(telemetry: RunTelemetry) -> Iterator[RunTelemetry]:
    """Install ``telemetry`` as the ambient collector for a ``with`` scope."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous
