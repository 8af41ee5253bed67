"""Benchmark-side spans around calls into the ``repro`` layers.

The traced run wraps each layer call the CLI handlers make in a
:class:`Tracer` span named ``<layer>.<what>``.  A span records its wall
time and the peak resident set size reached while it was open, so a
layer's ``peak_rss_mb`` is its own high-water mark rather than the
process's.  On Linux the kernel's peak-RSS counter (``VmHWM``) is reset
at every span boundary through ``/proc/self/clear_refs``; every open
span folds in the peak read at each boundary, so nested spans still see
the peaks that happened inside them.  Where that file is not writable
the spans report the process-wide high-water mark instead.

Pool workers are measured on their own.  The workers are forked, so
each starts with the parent's resident pages already counted in its
RSS; adding a worker's whole peak to the parent's would count those
shared pages twice.  :func:`watch_workers` installs a fork hook that
records each worker's RSS right after the fork and, when the worker
exits, writes how far its peak rose above that.  A pass's peak is the
parent's own peak plus that growth for every worker that exited during
the pass (:func:`measure_peak_mb`, and every :class:`Tracer` span).
Both halves are peaks, so the sum is an upper bound of the high-water
mark of parent and workers together.

:func:`wrap_calls` times calls to a layer function that another layer
imported by name (for example the replay inside the validation
metrics), without editing the program: it swaps the module attribute
for a timing wrapper for the duration of a ``with`` block.
"""

from __future__ import annotations

import contextlib
import multiprocessing.util
import os
import resource
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_KIB = 1024.0


def _read_status_kib(field: str) -> float:
    """``field`` (``VmHWM``, ``VmRSS``) of this process in KiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _read_hwm_kib() -> float:
    """Peak RSS of this process in KiB since the last reset."""
    return _read_status_kib("VmHWM")


def _reset_hwm() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


class _Workers:
    """Peak-RSS growth reported by exited pool workers, in KiB."""

    def __init__(self) -> None:
        self.directory: Optional[Path] = None
        self.seen: Dict[str, float] = {}
        self.total_kib = 0.0

    def after_fork(self) -> None:
        """Runs in each new worker: report its peak growth at exit."""
        if self.directory is None:
            return
        at_fork = _read_status_kib("VmRSS")
        name = f"{os.getpid()}-{uuid.uuid4().hex}"
        directory = self.directory

        def report() -> None:
            # Written under a hidden name and renamed, so the parent never
            # reads a half-written report.
            (directory / f".{name}").write_text(repr(_read_hwm_kib() - at_fork))
            os.replace(directory / f".{name}", directory / name)

        multiprocessing.util.Finalize(None, report, exitpriority=0)

    def growth_kib(self) -> float:
        """Growth summed over every worker that has exited so far."""
        if self.directory is None:
            return 0.0
        for name in os.listdir(self.directory):
            if name not in self.seen and not name.startswith("."):
                self.seen[name] = float((self.directory / name).read_text())
                self.total_kib += self.seen[name]
        return self.total_kib


_WORKERS = _Workers()
multiprocessing.util.register_after_fork(_WORKERS, _Workers.after_fork)


def watch_workers(directory: Path) -> None:
    """Measure the workers this process forks from now on; their
    reports go to ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    _WORKERS.directory, _WORKERS.seen, _WORKERS.total_kib = directory, {}, 0.0


def measure_peak_mb(fn):
    """Run ``fn()``; returns (its result, this process's peak RSS in MB
    while it ran plus the peak growth of the workers that exited)."""
    workers = _WORKERS.growth_kib()
    _reset_hwm()
    result = fn()
    peak = _read_hwm_kib() + _WORKERS.growth_kib() - workers
    return result, peak / _KIB


class Tracer:
    """Per-pass span totals (seconds) and per-layer peak RSS (MB)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.peak_mb: Dict[str, float] = {}
        # (layer, peak KiB so far, worker growth KiB when it opened)
        self._open: List[Tuple[str, float, float]] = []

    def _fold_peak(self) -> None:
        hwm = _read_hwm_kib()
        self._open = [(layer, max(peak, hwm), workers)
                      for layer, peak, workers in self._open]
        _reset_hwm()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time ``name`` (``<layer>.<what>``); seconds accumulate per name."""
        layer = name.split(".", 1)[0]
        self._fold_peak()
        self._open.append((layer, _read_hwm_kib(), _WORKERS.growth_kib()))
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._fold_peak()
            layer, peak, workers = self._open.pop()
            peak += _WORKERS.growth_kib() - workers
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.peak_mb[layer] = max(self.peak_mb.get(layer, 0.0), peak / _KIB)


@contextlib.contextmanager
def wrap_calls(
    tracer: Tracer, targets: List[Tuple[object, str, str]]
) -> Iterator[None]:
    """Time every call to ``module.attr`` under span ``name``.

    ``targets`` holds ``(module, attr, name)`` triples.  The original
    attributes are restored when the block exits.
    """
    saved = []

    def timed(fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    try:
        for module, attr, name in targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, timed(fn, name))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
