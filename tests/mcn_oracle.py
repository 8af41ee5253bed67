"""Per-event reference drives of the MCN simulators, kept as test oracles.

These are the original one-event-at-a-time loops of
``CoreNetworkSimulator._process`` and ``MmeSimulator.process``: one
global heap of every step, one scalar ``rng.uniform`` per message and an
``EventType`` per event.  The production drives must reproduce their
reports to the bit (``repr`` equality).  The core oracle anchors the
worker pools and the span at the earliest / latest timestamp, so it
also holds for traces built with ``sort=False``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.mcn import CoreNetworkSimulator, MmeSimulator
from repro.mcn.mme import MmeReport
from repro.mcn.network import CoreReport, FunctionReport, ProcedureReport
from repro.statemachines.lte import two_level_machine
from repro.statemachines.replay import _canonical_source_for
from repro.trace import EventType, Trace


class _Queue:
    def __init__(self, workers: int, start: float) -> None:
        self.free_at = [start] * workers
        self.busy = 0.0
        self.waits: List[float] = []

    def serve(self, arrival: float, service: float) -> float:
        free = heapq.heappop(self.free_at)
        start = max(arrival, free)
        finish = start + service
        heapq.heappush(self.free_at, finish)
        self.waits.append(start - arrival)
        self.busy += service
        return finish


def _jittered(mean: float, jitter: float, rng: np.random.Generator) -> float:
    if jitter == 0:
        return mean
    return mean * rng.uniform(1.0 - jitter, 1.0 + jitter)


def reference_core_report(
    sim: CoreNetworkSimulator, trace: Trace, rng: Optional[np.random.Generator] = None
) -> CoreReport:
    """``sim``'s report on ``trace``, one heap entry per step."""
    if rng is None:
        rng = np.random.default_rng(sim.seed)
    if len(trace) == 0:
        return CoreReport(sim.core, 0, 0, 0.0, {}, {})
    t0 = float(trace.times.min())
    queues = {nf: _Queue(sim.workers[nf], t0) for nf in sim.function_names}
    latencies: Dict[str, List[float]] = {p.name: [] for p in sim.procedures.values()}
    skipped = 0
    counter = itertools.count()
    heap = []
    for i in range(len(trace)):
        procedure = sim.procedures.get(EventType(int(trace.event_types[i])))
        if procedure is None:
            skipped += 1
            continue
        t = float(trace.times[i])
        heapq.heappush(heap, (t, next(counter), procedure, 0, t))

    num_messages = 0
    while heap:
        t, _, procedure, step_idx, started = heapq.heappop(heap)
        step = procedure.steps[step_idx]
        service = _jittered(step.service_mean, sim.service_jitter, rng)
        finish = queues[step.nf].serve(t, service)
        num_messages += 1
        if step_idx + 1 < len(procedure.steps):
            heapq.heappush(
                heap,
                (finish + sim.link_delay, next(counter), procedure, step_idx + 1, started),
            )
        else:
            latencies[procedure.name].append(finish - started)

    span = float(trace.times.max()) - t0
    functions = {}
    for nf, queue in queues.items():
        waits = np.asarray(queue.waits) if queue.waits else np.zeros(1)
        functions[nf] = FunctionReport(
            name=nf,
            messages=len(queue.waits),
            utilization=min(1.0, queue.busy / (sim.workers[nf] * max(span, 1e-9))),
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
        core=sim.core,
        num_events=len(trace) - skipped,
        num_messages=num_messages,
        span=span,
        functions=functions,
        procedures=procedures,
    )


def reference_mme_report(sim: MmeSimulator, trace: Trace) -> MmeReport:
    """``sim``'s report on ``trace``, one scalar draw per event."""
    n = len(trace)
    if n == 0:
        raise ValueError("cannot process an empty trace")
    rng = np.random.default_rng(sim.seed)
    machine = two_level_machine()
    workers = [float(trace.times[0])] * sim.num_workers
    heapq.heapify(workers)
    waits = np.empty(n, dtype=np.float64)
    latencies = np.empty(n, dtype=np.float64)
    busy = 0.0
    violations = 0
    ue_state: Dict[int, Optional[str]] = {}
    events_by_type = {e: 0 for e in EventType}
    for i in range(n):
        arrival = float(trace.times[i])
        event = EventType(int(trace.event_types[i]))
        ue = int(trace.ue_ids[i])
        events_by_type[event] += 1
        state = ue_state.get(ue)
        if state is None:
            state = _canonical_source_for(machine, event)
        if machine.can_fire(state, event):
            state = machine.next_state(state, event)
        else:
            violations += 1
            state = machine.next_state(_canonical_source_for(machine, event), event)
        ue_state[ue] = state

        free = heapq.heappop(workers)
        start = max(arrival, free)
        service = _jittered(sim.service_means.get(event, 0.005), sim.service_jitter, rng)
        heapq.heappush(workers, start + service)
        waits[i] = start - arrival
        latencies[i] = waits[i] + service
        busy += service

    span = float(trace.times[-1] - trace.times[0])
    p50, p95, p99 = np.percentile(waits, [50.0, 95.0, 99.0])
    return MmeReport(
        num_events=n,
        span=span,
        mean_wait=float(waits.mean()),
        p50_wait=float(p50),
        p95_wait=float(p95),
        p99_wait=float(p99),
        max_wait=float(waits.max()),
        mean_latency=float(latencies.mean()),
        utilization=min(1.0, busy / (sim.num_workers * max(span, 1e-9))),
        throughput=n / max(span, 1e-9),
        protocol_violations=violations,
        events_by_type=events_by_type,
    )
