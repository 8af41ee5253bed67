"""A minimal MME (mobile core control-plane) queueing model.

The paper's motivation is driving MCN designs with realistic control
traffic.  This module provides a downstream consumer: a discrete-event
MME with a worker pool that processes control events in arrival order,
tracks each UE's state against the two-level machine (events a real MME
would reject are counted as protocol violations), and reports queueing
statistics.

It is intentionally simple — an M/G/c-style worker pool — but it is
enough to expose the difference between workloads: bursty, realistic
traffic produces markedly worse tail latency than a Poisson stream of
the same volume, and baseline-synthesized traffic triggers protocol
violations (``HO`` in IDLE) that the proposed model's traffic does not.
"""

from __future__ import annotations

import dataclasses
import heapq
from array import array
from typing import Dict, List, Optional

import numpy as np

from ..statemachines.lte import two_level_machine
from ..statemachines.replay import _canonical_source_for
from ..trace.events import EventType
from ..trace.trace import Trace
from .network import jitter_factors

#: Default mean service time per event type, seconds.  Attach/detach do
#: the most signaling work (HSS, session setup); handovers are mid;
#: connection management is cheap.  Values are representative, not
#: vendor-measured.
DEFAULT_SERVICE_MEANS: Dict[EventType, float] = {
    EventType.ATCH: 0.020,
    EventType.DTCH: 0.010,
    EventType.SRV_REQ: 0.004,
    EventType.S1_CONN_REL: 0.003,
    EventType.HO: 0.008,
    EventType.TAU: 0.005,
}


@dataclasses.dataclass(frozen=True)
class MmeReport:
    """Outcome of processing one trace through the MME model."""

    num_events: int
    span: float                      #: first-to-last arrival, seconds
    mean_wait: float                 #: queueing delay, seconds
    p50_wait: float
    p95_wait: float
    p99_wait: float
    max_wait: float
    mean_latency: float              #: wait + service
    utilization: float               #: busy worker-seconds / capacity
    throughput: float                #: events per second over the span
    protocol_violations: int         #: events invalid for the UE's state
    events_by_type: Dict[EventType, int]


class MmeSimulator:
    """A ``num_workers``-wide control-plane processor."""

    def __init__(
        self,
        num_workers: int = 4,
        *,
        service_means: Optional[Dict[EventType, float]] = None,
        service_jitter: float = 0.3,
        seed: int = 0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if not 0.0 <= service_jitter < 1.0:
            raise ValueError("service_jitter must be in [0, 1)")
        self.num_workers = num_workers
        self.service_means = dict(service_means or DEFAULT_SERVICE_MEANS)
        self.service_jitter = service_jitter
        self.seed = seed

    def process(self, trace: Trace) -> MmeReport:
        """Run the trace through the worker pool and report statistics.

        Events are served in trace order.  Service means come from a
        per-event-code table and the jitter factors are drawn in blocks,
        the same doubles one scalar draw per event would give.
        """
        n = len(trace)
        if n == 0:
            raise ValueError("cannot process an empty trace")
        codes = trace.event_types
        if codes.min() < 0 or codes.max() > max(EventType):
            raise ValueError("trace contains unknown event types")
        machine = two_level_machine()
        # Per event code: its service mean, the state it is valid from
        # when the UE's state is unknown or the event violates it, and
        # the state it leads to from there.
        means = [self.service_means.get(e, 0.005) for e in EventType]
        source = [_canonical_source_for(machine, e) for e in EventType]
        fallback = [machine.next_state(source[e], e) for e in EventType]
        transitions = {
            (state, int(e)): machine.next_state(state, e)
            for state in machine.states
            for e in EventType
            if machine.can_fire(state, e)
        }

        workers: List[float] = [float(trace.times[0])] * self.num_workers
        waits = array("d")
        latencies = array("d")
        wait, latency = waits.append, latencies.append
        draw = jitter_factors(np.random.default_rng(self.seed), self.service_jitter, n)
        heapreplace = heapq.heapreplace
        busy = 0.0
        violations = 0
        ue_state: Dict[int, str] = {}

        for arrival, code, ue in zip(
            trace.times.tolist(), codes.tolist(), trace.ue_ids.tolist()
        ):
            # Per-UE protocol check (lenient: unknown start state).
            state = transitions.get((ue_state.get(ue, source[code]), code))
            if state is None:
                violations += 1
                state = fallback[code]
            ue_state[ue] = state

            free = workers[0]
            start = free if free > arrival else arrival
            service = means[code] * draw()
            heapreplace(workers, start + service)
            w = start - arrival
            wait(w)
            latency(w + service)
            busy += service

        span = float(trace.times[-1] - trace.times[0])
        capacity = self.num_workers * max(span, 1e-9)
        waits = np.asarray(waits)
        p50, p95, p99 = np.percentile(waits, [50.0, 95.0, 99.0])
        counts = np.bincount(codes, minlength=len(EventType))
        return MmeReport(
            num_events=n,
            span=span,
            mean_wait=float(waits.mean()),
            p50_wait=float(p50),
            p95_wait=float(p95),
            p99_wait=float(p99),
            max_wait=float(waits.max()),
            mean_latency=float(np.asarray(latencies).mean()),
            utilization=min(1.0, busy / capacity),
            throughput=n / max(span, 1e-9),
            protocol_violations=violations,
            events_by_type={e: int(counts[e]) for e in EventType},
        )
