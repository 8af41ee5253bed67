"""Replaying traces through state machines.

The modeling pipeline never observes UE states directly — only events.
Replay reconstructs the state trajectory of each UE by walking its
event sequence through a state machine, which yields:

* **sojourn samples** per (source state, triggering event) — the raw
  material for the Semi-Markov sojourn CDFs;
* **transition counts** — the raw material for ``p_xy``;
* **top-level state intervals** — used to compute CONNECTED/IDLE
  sojourn distributions and to classify ``HO``/``TAU`` events by the
  top-level state they occurred in (the ``HO (CONN.)`` / ``HO (IDLE)``
  rows of Tables 4 and 11).

Replays are *lenient*: a trace that violates the machine (e.g. a
baseline-synthesized trace firing ``HO`` in IDLE) does not abort the
replay.  Instead the decoder forces the state to a canonical source for
the offending event, counts a violation, and marks the produced record
as ``forced`` so fitting can exclude it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..trace.events import EventType
from ..trace.trace import Trace
from . import lte
from .fsm import HierarchicalStateMachine


@dataclasses.dataclass(frozen=True)
class TransitionRecord:
    """One observed transition of a replayed UE."""

    source: str
    event: EventType
    target: str
    enter_time: Optional[float]  #: when ``source`` was entered (None if unknown)
    fire_time: float             #: when ``event`` fired
    forced: bool                 #: True if the decoder had to correct the state

    @property
    def sojourn(self) -> Optional[float]:
        """Time spent in ``source``, if the enter time is known."""
        if self.enter_time is None:
            return None
        return self.fire_time - self.enter_time


@dataclasses.dataclass(frozen=True)
class StateInterval:
    """A maximal interval a UE spent in one top-level state."""

    state: str
    start: Optional[float]  #: None when the interval began before the trace
    end: Optional[float]    #: None when the interval outlives the trace

    @property
    def complete(self) -> bool:
        """Whether both endpoints were observed."""
        return self.start is not None and self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return (self.end - self.start) if self.complete else None


@dataclasses.dataclass
class ReplayResult:
    """Everything extracted from replaying one UE's event sequence."""

    records: List[TransitionRecord]
    violations: int
    final_state: Optional[str]


# Canonical source state to force when an event is invalid in the
# current (or unknown) state of the two-level machine.
_CANONICAL_SOURCE = {
    EventType.ATCH: lte.DEREGISTERED,
    EventType.DTCH: lte.S1_REL_S_1,
    EventType.SRV_REQ: lte.S1_REL_S_1,
    EventType.S1_CONN_REL: lte.SRV_REQ_S,
    EventType.HO: lte.SRV_REQ_S,
    EventType.TAU: lte.S1_REL_S_1,
}


def replay_ue(
    event_types: Sequence[int],
    times: Sequence[float],
    machine: Optional[HierarchicalStateMachine] = None,
    *,
    initial_state: Optional[str] = None,
) -> ReplayResult:
    """Replay one UE's chronological event sequence through ``machine``.

    Parameters
    ----------
    event_types, times:
        Parallel sequences (chronological).  ``event_types`` may be raw
        integers or :class:`EventType` members.
    machine:
        Defaults to the LTE two-level machine.
    initial_state:
        State of the UE at the start of the sequence.  ``None`` means
        unknown: the first record carries ``enter_time=None`` and its
        source is inferred from the first event.
    """
    if machine is None:
        machine = lte.two_level_machine()
    if len(event_types) != len(times):
        raise ValueError("event_types and times must have equal length")

    records: List[TransitionRecord] = []
    violations = 0
    state = initial_state
    entered_at: Optional[float] = None
    if initial_state is not None:
        entered_at = None  # entering time of a supplied state is unknown

    for raw_event, t in zip(event_types, times):
        event = EventType(int(raw_event))
        forced = False
        if state is None or not machine.can_fire(state, event):
            if state is not None:
                violations += 1
            forced = True
            state = _canonical_source_for(machine, event)
            entered_at = None
        target = machine.next_state(state, event)
        records.append(
            TransitionRecord(
                source=state,
                event=event,
                target=target,
                enter_time=entered_at,
                fire_time=float(t),
                forced=forced,
            )
        )
        state = target
        entered_at = float(t)

    return ReplayResult(records=records, violations=violations, final_state=state)


def _canonical_source_for(
    machine: HierarchicalStateMachine, event: EventType
) -> str:
    """A state from which ``event`` is guaranteed valid in ``machine``."""
    candidate = _CANONICAL_SOURCE.get(event)
    if candidate is not None and candidate in machine.states:
        if machine.can_fire(candidate, event):
            return candidate
    # Fall back to any state with an outgoing edge for this event.
    for state in sorted(machine.states):
        if machine.can_fire(state, event):
            return state
    raise ValueError(f"event {event.name} has no source state in {machine.name}")


#: Available whole-trace replay engines.
REPLAY_ENGINES = ("reference", "compiled")


def replay_trace(
    trace: Trace,
    machine: Optional[HierarchicalStateMachine] = None,
    *,
    engine: str = "reference",
):
    """Replay every UE of ``trace`` independently.

    ``engine="reference"`` walks each UE event by event and returns the
    ``{ue: ReplayResult}`` mapping; ``engine="compiled"`` lowers the
    machine to integer tables and replays the whole trace as flat
    arrays, returning an equivalent
    :class:`repro.statemachines.compiled_replay.TraceReplay` (its
    ``to_results()`` decodes to exactly the reference mapping).  The
    derived functions in this module accept either shape.
    """
    if engine not in REPLAY_ENGINES:
        raise ValueError(
            f"unknown replay engine {engine!r}; expected one of {REPLAY_ENGINES}"
        )
    if engine == "compiled":
        from .compiled_replay import replay_trace_compiled

        return replay_trace_compiled(trace, machine)
    if machine is None:
        machine = lte.two_level_machine()
    return {
        ue: replay_ue(sub.event_types, sub.times, machine)
        for ue, sub in trace.per_ue()
    }


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def sojourn_samples(
    results,
    *,
    include_forced: bool = False,
) -> Dict[Tuple[str, EventType], np.ndarray]:
    """Group sojourn durations by (source state, triggering event).

    Records whose enter time is unknown, or that the decoder had to
    force (unless ``include_forced``), are skipped.  Accepts either the
    reference ``{ue: ReplayResult}`` mapping or a compiled
    ``TraceReplay``.
    """
    if not isinstance(results, dict):
        return results.sojourn_samples(include_forced=include_forced)
    grouped: Dict[Tuple[str, EventType], List[float]] = {}
    for result in results.values():
        for rec in result.records:
            if rec.sojourn is None:
                continue
            if rec.forced and not include_forced:
                continue
            grouped.setdefault((rec.source, rec.event), []).append(rec.sojourn)
    return {
        key: np.asarray(values, dtype=np.float64)
        for key, values in grouped.items()
    }


def transition_counts(
    results,
) -> Dict[Tuple[str, EventType, str], int]:
    """Count observed (source, event, target) transitions across UEs.

    Accepts either the reference ``{ue: ReplayResult}`` mapping or a
    compiled ``TraceReplay``.
    """
    if not isinstance(results, dict):
        return results.transition_counts()
    counts: Dict[Tuple[str, EventType, str], int] = {}
    for result in results.values():
        for rec in result.records:
            key = (rec.source, rec.event, rec.target)
            counts[key] = counts.get(key, 0) + 1
    return counts


def per_ue_event_counts(results, event: EventType) -> np.ndarray:
    """Records of one event type per replayed UE, in ascending UE order.

    The lenient replay keeps one record per event, so these are the
    UEs' event counts.  Accepts either the reference
    ``{ue: ReplayResult}`` mapping or a compiled ``TraceReplay``.
    """
    if not isinstance(results, dict):
        return results.per_ue_event_counts(event)
    return np.array(
        [
            sum(rec.event == event for rec in results[ue].records)
            for ue in sorted(results)
        ],
        dtype=np.int64,
    )


def top_level_intervals(
    records: Sequence[TransitionRecord],
    machine=None,
    *,
    end_time: Optional[float] = None,
) -> List[StateInterval]:
    """Project a replayed record stream onto top-level state intervals.

    For hierarchical machines states project onto their parents; for
    flat machines (e.g. EMM-ECM) every state is its own top level.  The
    first interval's start is unknown (``None``); the last interval's
    end is ``end_time`` (or ``None`` if not supplied).
    """
    if machine is None:
        machine = lte.two_level_machine()
    parent = getattr(machine, "parent", lambda state: state)
    intervals: List[StateInterval] = []
    current: Optional[str] = None
    current_start: Optional[float] = None
    for rec in records:
        src_top = parent(rec.source)
        dst_top = parent(rec.target)
        if current is None:
            current = src_top
            current_start = rec.enter_time
        if src_top != dst_top:
            intervals.append(
                StateInterval(state=current, start=current_start, end=rec.fire_time)
            )
            current = dst_top
            current_start = rec.fire_time
    if current is not None:
        intervals.append(StateInterval(state=current, start=current_start, end=end_time))
    return intervals


def top_state_sojourns(
    results,
    machine: Optional[HierarchicalStateMachine] = None,
) -> Dict[str, np.ndarray]:
    """Durations of complete top-level state visits, grouped by state.

    This yields the CONNECTED / IDLE / DEREGISTERED sojourn samples the
    paper fits and compares (Figs. 3-4, Table 5).  Accepts either the
    reference ``{ue: ReplayResult}`` mapping or a compiled
    ``TraceReplay`` (which already carries its machine's tables).
    """
    if not isinstance(results, dict):
        return results.top_state_sojourns()
    if machine is None:
        machine = lte.two_level_machine()
    grouped: Dict[str, List[float]] = {}
    for result in results.values():
        for interval in top_level_intervals(result.records, machine):
            if interval.complete:
                grouped.setdefault(interval.state, []).append(interval.duration)
    return {
        state: np.asarray(values, dtype=np.float64)
        for state, values in grouped.items()
    }


def classify_category2_events(
    trace: Trace,
    *,
    engine: str = "compiled",
) -> Dict[Tuple[EventType, str], int]:
    """Count ``HO``/``TAU`` events by the top-level state they occur in.

    This backs the ``HO (CONN.)`` / ``HO (IDLE)`` / ``TAU (CONN.)`` /
    ``TAU (IDLE)`` rows of Tables 4 and 11.  The top-level state is
    tracked leniently from Category-1 events only, so traces violating
    the two-level machine (e.g. Base-synthesized traces with ``HO`` in
    IDLE) are classified faithfully rather than corrected.

    Both engines return identical counts; ``"compiled"`` replaces the
    per-event Python loop with a vectorized per-UE forward fill and the
    ``"reference"`` loop is kept as the oracle.
    """
    if engine not in REPLAY_ENGINES:
        raise ValueError(
            f"unknown replay engine {engine!r}; expected one of {REPLAY_ENGINES}"
        )
    if engine == "compiled":
        from .compiled_replay import classify_category2_arrays

        return classify_category2_arrays(trace)
    counts: Dict[Tuple[EventType, str], int] = {
        (EventType.HO, lte.CONNECTED): 0,
        (EventType.HO, lte.IDLE): 0,
        (EventType.TAU, lte.CONNECTED): 0,
        (EventType.TAU, lte.IDLE): 0,
    }
    force_to = {
        EventType.ATCH: lte.CONNECTED,
        EventType.DTCH: lte.DEREGISTERED,
        EventType.SRV_REQ: lte.CONNECTED,
        EventType.S1_CONN_REL: lte.IDLE,
    }
    for _, sub in trace.per_ue():
        state = _infer_initial_top_state(sub.event_types)
        for raw in sub.event_types:
            event = EventType(int(raw))
            if event in force_to:
                state = force_to[event]
            else:
                key = (event, state if state != lte.DEREGISTERED else lte.IDLE)
                if key in counts:
                    counts[key] += 1
    return counts


def _infer_initial_top_state(event_types: Sequence[int]) -> str:
    """Back-infer a UE's top-level state before its first Category-1 event."""
    for raw in event_types:
        event = EventType(int(raw))
        if event == EventType.ATCH:
            return lte.DEREGISTERED
        if event == EventType.SRV_REQ:
            return lte.IDLE
        if event in (EventType.S1_CONN_REL, EventType.DTCH):
            return lte.CONNECTED
    # Only HO/TAU events: HO implies CONNECTED; an all-TAU UE could be in
    # either state, and CONNECTED is the conservative choice for HO counting.
    for raw in event_types:
        if EventType(int(raw)) == EventType.HO:
            return lte.CONNECTED
    return lte.IDLE
