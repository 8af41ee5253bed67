"""Discrete-event simulation of a mobile core's control plane.

Drives a full core network — MME/HSS/SGW/PGW for LTE, AMF/UDM/SMF/UPF
for 5G SA — with a control-plane trace.  Every UE event launches its
3GPP procedure (:mod:`repro.mcn.procedures`); each step queues at its
network function (a FIFO worker pool), is serviced, and hands off to
the next step after an inter-NF link delay.

Outputs answer the questions the paper's generator exists to answer:
which function saturates first, what the end-to-end procedure latencies
look like under realistic bursty load, and how the 4G and 5G cores
compare under the same UE behaviour.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from array import array
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..telemetry import RunTelemetry, get_telemetry
from ..trace.events import EventType
from ..trace.trace import Trace
from .procedures import functions_for, procedures_for

#: Service-time jitter factors drawn per numpy call.
JITTER_BLOCK = 8192


@dataclasses.dataclass(frozen=True)
class FunctionReport:
    """Load statistics of one network function."""

    name: str
    messages: int
    utilization: float
    mean_wait: float
    p95_wait: float
    max_wait: float


@dataclasses.dataclass(frozen=True)
class ProcedureReport:
    """End-to-end latency statistics of one procedure type."""

    name: str
    count: int
    mean_latency: float
    p95_latency: float
    p99_latency: float
    max_latency: float


@dataclasses.dataclass(frozen=True)
class CoreReport:
    """Outcome of driving the core with one trace."""

    core: str
    num_events: int
    num_messages: int
    span: float
    functions: Dict[str, FunctionReport]
    procedures: Dict[str, ProcedureReport]

    def bottleneck(self) -> Optional[str]:
        """The most utilized network function, or ``None`` if no messages flowed."""
        if not self.functions:
            return None
        return max(self.functions.values(), key=lambda f: f.utilization).name


class _FunctionQueue:
    """A FIFO pool of ``workers`` servers for one network function.

    ``free_at`` is a min-heap of the times each server next falls idle;
    ``waits`` holds one queueing delay per message, in service order.
    """

    __slots__ = ("name", "free_at", "busy", "waits")

    def __init__(self, name: str, workers: int, start: float) -> None:
        self.name = name
        self.free_at = [start] * workers
        self.busy = 0.0
        self.waits = array("d")


class CoreNetworkSimulator:
    """Simulates one core generation under a control-plane trace.

    Parameters
    ----------
    core:
        ``"epc"`` (LTE) or ``"5gc"`` (5G SA).
    workers:
        Worker pool size per network function; either one integer for
        all functions or a per-function mapping.
    link_delay:
        One-way inter-NF message delay, seconds (same-datacenter scale).
    service_jitter:
        Uniform +/- fraction applied to each step's mean service time.
    """

    def __init__(
        self,
        core: str = "epc",
        *,
        workers: "int | Mapping[str, int]" = 4,
        link_delay: float = 0.0005,
        service_jitter: float = 0.3,
        seed: int = 0,
    ) -> None:
        self.core = core
        self.procedures = procedures_for(core)
        self.function_names = functions_for(core)
        if isinstance(workers, int):
            if workers <= 0:
                raise ValueError("workers must be positive")
            self.workers = {nf: workers for nf in self.function_names}
        else:
            self.workers = {nf: int(workers.get(nf, 4)) for nf in self.function_names}
            if any(w <= 0 for w in self.workers.values()):
                raise ValueError("workers must be positive")
        if link_delay < 0:
            raise ValueError("link_delay must be non-negative")
        if not 0.0 <= service_jitter < 1.0:
            raise ValueError("service_jitter must be in [0, 1)")
        self.link_delay = link_delay
        self.service_jitter = service_jitter
        self.seed = seed

    # ------------------------------------------------------------------
    def process(
        self, trace: Trace, *, telemetry: Optional[RunTelemetry] = None
    ) -> CoreReport:
        """Run the trace through the core and report per-NF/per-procedure stats.

        A zero-event trace yields an empty report (``num_events == 0``,
        no function or procedure entries, ``bottleneck() is None``)
        rather than raising.  The run is timed under the ``mcn-drive``
        span and counts ``mcn_events`` / ``mcn_messages`` on
        ``telemetry`` (default: the ambient collector).
        """
        tele = telemetry if telemetry is not None else get_telemetry()
        with tele.span("mcn-drive"):
            report = self._process(trace, rng=np.random.default_rng(self.seed))
        tele.count("mcn_events", report.num_events)
        tele.count("mcn_messages", report.num_messages)
        return report

    def _process(self, trace: Trace, *, rng: np.random.Generator) -> CoreReport:
        if len(trace) == 0:
            return CoreReport(
                core=self.core,
                num_events=0,
                num_messages=0,
                span=0.0,
                functions={},
                procedures={},
            )
        times = trace.times
        t0 = float(times.min())
        span = float(times.max()) - t0
        queues = {
            nf: _FunctionQueue(nf, self.workers[nf], t0)
            for nf in self.function_names
        }
        latencies = {p.name: array("d") for p in self.procedures.values()}

        # Flat step table: one row per (procedure, step) with its queue,
        # mean service time and the row of the next step (-1 on the last
        # one, whose latency goes to the procedure's sink).  ``first`` and
        # ``length`` map an event code to its procedure's first row and
        # step count; codes without a procedure (TAU in a 5GC) keep -1/0.
        steps = []
        sinks = []
        num_codes = int(max(EventType)) + 1
        first = np.full(num_codes, -1, dtype=np.int64)
        length = np.zeros(num_codes, dtype=np.int64)
        for event, procedure in self.procedures.items():
            first[int(event)] = len(steps)
            length[int(event)] = len(procedure.steps)
            for k, step in enumerate(procedure.steps):
                last = k + 1 == len(procedure.steps)
                queue = queues[step.nf]
                steps.append((
                    queue, queue.free_at, queue.waits.append, step.service_mean,
                    -1 if last else len(steps) + 1,
                ))
                sinks.append(latencies[procedure.name].append if last else None)

        codes = trace.event_types
        if codes.min() < 0 or codes.max() >= num_codes:
            raise ValueError("trace contains unknown event types")
        # Arrivals in stable time order, unhandled events dropped.
        order = np.argsort(times, kind="stable")
        arrival_steps = first[codes[order]]
        handled = arrival_steps >= 0
        arrival_times = times[order[handled]].tolist()
        arrival_steps = arrival_steps[handled].tolist()
        num_messages = int(length[codes].sum())
        draw = jitter_factors(rng, self.service_jitter, num_messages)

        # Merge the time-ordered arrivals with a heap of the follow-up
        # steps still in flight.  An arrival wins a tie with a follow-up
        # and follow-ups tie-break by creation order: the (time, counter)
        # order of one global heap whose arrivals were all pushed first.
        link_delay = self.link_delay
        counter = itertools.count()
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        heap: List[Tuple[float, int, int, float]] = []
        num_arrivals = len(arrival_times)
        i = 0
        next_arrival = arrival_times[0] if num_arrivals else 0.0
        while True:
            if heap and (i == num_arrivals or heap[0][0] < next_arrival):
                t, _, s, started = heappop(heap)
            elif i < num_arrivals:
                t = started = next_arrival
                s = arrival_steps[i]
                i += 1
                if i < num_arrivals:
                    next_arrival = arrival_times[i]
            else:
                break
            queue, free_at, wait, mean, following = steps[s]
            service = mean * draw()
            free = free_at[0]
            start = free if free > t else t
            finish = start + service
            heapreplace(free_at, finish)
            wait(start - t)
            queue.busy += service
            if following >= 0:
                heappush(heap, (finish + link_delay, next(counter), following, started))
            else:
                sinks[s](finish - started)

        capacity = {nf: self.workers[nf] * max(span, 1e-9) for nf in queues}
        functions = {}
        for nf, queue in queues.items():
            waits = np.asarray(queue.waits) if queue.waits else np.zeros(1)
            functions[nf] = FunctionReport(
                name=nf,
                messages=len(queue.waits),
                utilization=min(1.0, queue.busy / capacity[nf]),
                mean_wait=float(waits.mean()),
                p95_wait=float(np.percentile(waits, 95.0)),
                max_wait=float(waits.max()),
            )
        procedures = {}
        for name, values in latencies.items():
            if not values:
                continue
            arr = np.asarray(values)
            procedures[name] = ProcedureReport(
                name=name,
                count=arr.size,
                mean_latency=float(arr.mean()),
                p95_latency=float(np.percentile(arr, 95.0)),
                p99_latency=float(np.percentile(arr, 99.0)),
                max_latency=float(arr.max()),
            )
        return CoreReport(
            core=self.core,
            num_events=num_arrivals,
            num_messages=num_messages,
            span=span,
            functions=functions,
            procedures=procedures,
        )


def jitter_factors(
    rng: np.random.Generator, jitter: float, count: int
) -> Callable[[], float]:
    """Next-factor function for ``count`` jittered service times.

    The factors are ``rng.uniform(1 - jitter, 1 + jitter)`` drawn
    :data:`JITTER_BLOCK` at a time; numpy's Generator yields the same
    doubles as one scalar call per factor, and exactly ``count`` are
    drawn.  Without jitter every factor is 1.0 and nothing is drawn.
    """
    if jitter == 0:
        return itertools.repeat(1.0).__next__
    sizes = [JITTER_BLOCK] * (count // JITTER_BLOCK)
    if count % JITTER_BLOCK:
        sizes.append(count % JITTER_BLOCK)
    blocks = (rng.uniform(1.0 - jitter, 1.0 + jitter, size).tolist() for size in sizes)
    return itertools.chain.from_iterable(blocks).__next__
