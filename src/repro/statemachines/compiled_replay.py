"""Compiled trace replay: array-at-a-time state reconstruction.

The reference :func:`repro.statemachines.replay.replay_trace` walks
every UE's events one Python object at a time, which makes the §8
evaluation harness the slowest remaining stage at the ROADMAP's
"millions of users" scale.  This module lowers each state machine to
small integer lookup tables once (:class:`MachineTable`, shared with
:mod:`repro.model.compiled_fit`, which historically owned them) and
replays a whole trace as flat arrays:

* rows are sorted by ``(ue, time)`` with one stable argsort (traces are
  already time-sorted);
* the state trajectory of every UE falls out of a segmented
  Hillis–Steele function-composition scan (:func:`_replay_codes`) in
  ``O(log n)`` vectorized passes;
* the §8 evaluation quantities — sojourn samples per (state, event),
  transition counts, complete top-level state intervals, and the
  Category-2 (``HO``/``TAU``) state classification — are extracted with
  ``bincount`` / ``searchsorted`` group-bys instead of per-record dict
  appends.

Every extraction is **exactly** equal to the reference replay's —
same keys, same counts, same sample values in the same order — because
the ``(ue, time)`` sort reproduces the reference's iteration order and
every group-by uses a stable argsort.  The reference path is kept as
the oracle; equality is pinned per machine × device in the tests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..trace.events import EventType
from ..trace.trace import Trace
from . import lte
from .replay import (
    ReplayResult,
    TransitionRecord,
    _canonical_source_for,
)

_NUM_EVENTS = int(max(EventType)) + 1


# ---------------------------------------------------------------------------
# Machine lowering
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MachineTable:
    """A state machine lowered to integer lookup tables.

    State codes index ``names`` (sorted state names, so code order ==
    the reference fitter's name-sorted source order).  ``-1`` marks
    invalid entries throughout.
    """

    machine_name: str
    names: Tuple[str, ...]
    next_state: np.ndarray     #: (S, E) target code, -1 if cannot fire
    canon: np.ndarray          #: (E,) canonical forced source, -1 if none
    fallback_next: np.ndarray  #: (E,) target code after forcing
    total: np.ndarray          #: (E, S) forced-apply function table
    const_target: np.ndarray   #: (E,) target if source-independent, else -1
    parent_names: Tuple[str, ...]
    parent_code: np.ndarray    #: (S,) top-level state code per state
    connected_code: int        #: parent code of CONNECTED (-1 if absent)
    idle_code: int             #: parent code of IDLE (-1 if absent)

    @property
    def num_states(self) -> int:
        return len(self.names)

    @property
    def num_events(self) -> int:
        return _NUM_EVENTS


def lower_machine(machine) -> MachineTable:
    """Lower ``machine`` to the integer tables the compiled replay uses."""
    names = tuple(sorted(machine.states))
    code = {name: i for i, name in enumerate(names)}
    num_states = len(names)
    next_state = np.full((num_states, _NUM_EVENTS), -1, dtype=np.int16)
    for s_i, state in enumerate(names):
        for event in EventType:
            if machine.can_fire(state, event):
                next_state[s_i, int(event)] = code[machine.next_state(state, event)]
    canon = np.full(_NUM_EVENTS, -1, dtype=np.int16)
    for event in EventType:
        try:
            canon[int(event)] = code[_canonical_source_for(machine, event)]
        except ValueError:
            pass  # event has no source state in this machine
    fallback_next = np.where(
        canon >= 0,
        next_state[np.maximum(canon, 0), np.arange(_NUM_EVENTS)],
        np.int16(-1),
    ).astype(np.int16)
    # total[e, s]: the state reached by firing e from s, forcing to the
    # canonical source when the transition is invalid — the *total*
    # function the lenient replay applies per event.
    total = np.where(
        next_state.T >= 0, next_state.T, fallback_next[:, None]
    ).astype(np.int16)
    # Events whose total row is constant (same target from every source)
    # are reset points: the state after one is known without looking
    # left, so the replay scan never has to compose across them.  In
    # the paper's machines most events are like this — all of them for
    # emm_ecm and nr_sa, everything but S1_CONN_REL/TAU for two_level.
    const_target = np.where(
        (canon >= 0) & (total == total[:, :1]).all(axis=1),
        total[:, 0],
        np.int16(-1),
    ).astype(np.int16)

    parent_fn = getattr(machine, "parent", lambda state: state)
    parent_names = tuple(sorted({parent_fn(state) for state in names}))
    parent_of = {name: i for i, name in enumerate(parent_names)}
    parent_code = np.asarray(
        [parent_of[parent_fn(state)] for state in names], dtype=np.int16
    )
    return MachineTable(
        machine_name=machine.name,
        names=names,
        next_state=next_state,
        canon=canon,
        fallback_next=fallback_next,
        total=total,
        const_target=const_target,
        parent_names=parent_names,
        parent_code=parent_code,
        connected_code=parent_of.get(lte.CONNECTED, -1),
        idle_code=parent_of.get(lte.IDLE, -1),
    )


#: Lowered tables cached by machine name (machine builders are pure, so
#: two machines with the same name are structurally identical).
_TABLE_CACHE: Dict[str, MachineTable] = {}


def table_for(machine) -> MachineTable:
    """Cached :func:`lower_machine` keyed on ``machine.name``."""
    table = _TABLE_CACHE.get(machine.name)
    if table is None:
        table = lower_machine(machine)
        _TABLE_CACHE[machine.name] = table
    return table


# ---------------------------------------------------------------------------
# Vectorized replay core
# ---------------------------------------------------------------------------

def _replay_codes(
    events: np.ndarray, first: np.ndarray, table: MachineTable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay a segmented event stream; returns (source, target, forced).

    ``events`` is an int array of event codes, ``first`` flags the first
    event of each segment (each segment replays like an independent
    ``replay_ue`` call with unknown initial state).

    The state trajectory is reconstructed with a segmented
    Hillis–Steele scan over *function* rows: row ``i`` is the total
    state map of event ``i`` (constant for segment-first events, whose
    source is forced to the canonical state), and composing rows within
    a segment yields, in ``O(log n)`` passes, the constant map "state
    after event ``i``".
    """
    n = len(events)
    empty = np.empty(0, dtype=np.int16)
    if n == 0:
        return empty, empty, np.empty(0, dtype=bool)
    bad = table.canon[events] < 0
    if bad.any():
        event = EventType(int(events[int(np.argmax(bad))]))
        raise ValueError(
            f"event {event.name} has no source state in {table.machine_name}"
        )

    rows_f = table.total[events].copy()  # (n, S)
    rows_f[first] = table.fallback_next[events[first]][:, None]
    # Scan barriers: segment firsts AND constant-row events.  A constant
    # row already *is* the map "state after this event", so composition
    # only has to run inside the (short) runs of source-dependent events
    # between barriers — for emm_ecm and nr_sa every event is constant
    # and the loop below exits after one empty pass.
    reset = first | (table.const_target[events] >= 0)
    idx = np.arange(n)
    start_of = np.maximum.accumulate(np.where(reset, idx, -1))
    stride = 1
    while True:
        rows = np.flatnonzero(idx >= stride)
        rows = rows[(rows - stride) >= start_of[rows]]
        if rows.size == 0:
            break
        # Compose: new[i](s) = F_i(F_{i-stride}(s)).  Both gathers read
        # pre-update values before the assignment writes back.
        rows_f[rows] = np.take_along_axis(
            rows_f[rows], rows_f[rows - stride].astype(np.intp), axis=1
        )
        stride *= 2
    state_after = rows_f[:, 0]

    prev = np.empty(n, dtype=np.int64)
    prev[0] = 0
    prev[1:] = state_after[:-1]
    prev_safe = np.where(first, 0, prev)
    forced = first | (table.next_state[prev_safe, events] < 0)
    source = np.where(forced, table.canon[events], prev_safe).astype(np.int16)
    return source, state_after.astype(np.int16), forced


@dataclasses.dataclass
class VectorizedReplay:
    """Array-valued result of :func:`vectorized_replay` for one UE."""

    sources: np.ndarray    #: (n,) source state codes
    targets: np.ndarray    #: (n,) target state codes
    events: np.ndarray     #: (n,) event codes
    times: np.ndarray      #: (n,) fire times
    forced: np.ndarray     #: (n,) bool, True where the decoder forced
    state_names: Tuple[str, ...]
    violations: int
    final_state: Optional[str]

    def records(self) -> List[TransitionRecord]:
        """Decode to the reference :class:`TransitionRecord` stream."""
        out: List[TransitionRecord] = []
        names = self.state_names
        for i in range(len(self.events)):
            forced = bool(self.forced[i])
            out.append(
                TransitionRecord(
                    source=names[int(self.sources[i])],
                    event=EventType(int(self.events[i])),
                    target=names[int(self.targets[i])],
                    enter_time=None if forced else float(self.times[i - 1]),
                    fire_time=float(self.times[i]),
                    forced=forced,
                )
            )
        return out


def vectorized_replay(
    event_types: Sequence[int],
    times: Sequence[float],
    machine=None,
) -> VectorizedReplay:
    """Array-at-a-time equivalent of :func:`repro.statemachines.replay.replay_ue`.

    Produces the identical transition stream (source, event, target,
    enter/fire times, forced flags) for one UE's chronological event
    sequence, with unknown initial state.
    """
    if machine is None:
        machine = lte.two_level_machine()
    events = np.asarray(event_types, dtype=np.int64).ravel()
    fire_times = np.asarray(times, dtype=np.float64).ravel()
    if len(events) != len(fire_times):
        raise ValueError("event_types and times must have equal length")
    table = lower_machine(machine)
    first = np.zeros(len(events), dtype=bool)
    if len(events):
        first[0] = True
    sources, targets, forced = _replay_codes(events, first, table)
    violations = int(np.count_nonzero(forced & ~first))
    final_state = table.names[int(targets[-1])] if len(events) else None
    return VectorizedReplay(
        sources=sources,
        targets=targets,
        events=events,
        times=fire_times,
        forced=forced,
        state_names=table.names,
        violations=violations,
        final_state=final_state,
    )


# ---------------------------------------------------------------------------
# Whole-trace replay
# ---------------------------------------------------------------------------

def _group_arrays(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Group ``values`` by integer ``keys``, preserving in-group order."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_vals = values[order]
    present, starts = np.unique(sorted_keys, return_index=True)
    bounds = np.append(starts, len(sorted_keys))
    groups = [sorted_vals[bounds[i]: bounds[i + 1]] for i in range(len(present))]
    return present, groups


@dataclasses.dataclass
class TraceReplay:
    """Every UE of one trace replayed, kept as flat arrays.

    Rows are in ``(ue, time)`` order — the exact order the reference
    :func:`repro.statemachines.replay.replay_trace` visits records in —
    segmented by ``first`` flags at UE boundaries.  All derived
    quantities are exactly equal to the reference's (same keys, same
    values, same in-group sample order).
    """

    ues: np.ndarray        #: sorted distinct UE ids
    ue_code: np.ndarray    #: (n,) per-row index into ``ues``
    events: np.ndarray     #: (n,) event codes
    times: np.ndarray      #: (n,) fire times (absolute)
    sources: np.ndarray    #: (n,) source state codes
    targets: np.ndarray    #: (n,) target state codes
    forced: np.ndarray     #: (n,) bool
    first: np.ndarray      #: (n,) bool, True at each UE's first row
    table: MachineTable

    def __len__(self) -> int:
        return len(self.events)

    @property
    def num_ues(self) -> int:
        return len(self.ues)

    # -- reference decoding -------------------------------------------
    def to_results(self) -> Dict[int, ReplayResult]:
        """Decode to the reference ``{ue: ReplayResult}`` mapping.

        This is the oracle bridge: the output compares equal to
        ``replay_trace(trace, machine, engine="reference")``.
        """
        out: Dict[int, ReplayResult] = {}
        names = self.table.names
        starts = np.flatnonzero(self.first)
        bounds = np.append(starts, len(self.events))
        for seg in range(len(starts)):
            lo, hi = int(bounds[seg]), int(bounds[seg + 1])
            records: List[TransitionRecord] = []
            violations = 0
            for i in range(lo, hi):
                forced = bool(self.forced[i])
                if forced and i > lo:
                    violations += 1
                records.append(
                    TransitionRecord(
                        source=names[int(self.sources[i])],
                        event=EventType(int(self.events[i])),
                        target=names[int(self.targets[i])],
                        enter_time=None if forced else float(self.times[i - 1]),
                        fire_time=float(self.times[i]),
                        forced=forced,
                    )
                )
            out[int(self.ues[seg])] = ReplayResult(
                records=records,
                violations=violations,
                final_state=names[int(self.targets[hi - 1])],
            )
        return out

    # -- derived quantities (flat-array group-bys) --------------------
    def sojourn_samples(
        self, *, include_forced: bool = False
    ) -> Dict[Tuple[str, EventType], np.ndarray]:
        """Sojourns grouped by (source, event); == reference ``sojourn_samples``.

        Forced records never carry an enter time, so they are excluded
        regardless of ``include_forced`` — exactly like the reference,
        where a forced record's ``sojourn`` is ``None``.
        """
        del include_forced  # forced records have no enter time either way
        valid = np.flatnonzero(~self.forced)
        durations = self.times[valid] - self.times[valid - 1]
        keys = (
            self.sources[valid].astype(np.int64) * self.table.num_events
            + self.events[valid]
        )
        present, groups = _group_arrays(keys, durations)
        names = self.table.names
        return {
            (
                names[int(key) // self.table.num_events],
                EventType(int(key) % self.table.num_events),
            ): group
            for key, group in zip(present, groups)
        }

    def transition_counts(self) -> Dict[Tuple[str, EventType, str], int]:
        """(source, event, target) counts; == reference ``transition_counts``."""
        num_states = self.table.num_states
        num_events = self.table.num_events
        keys = (
            self.sources.astype(np.int64) * num_events + self.events
        ) * num_states + self.targets
        counts = np.bincount(keys, minlength=num_states * num_events * num_states)
        names = self.table.names
        out: Dict[Tuple[str, EventType, str], int] = {}
        for key in np.flatnonzero(counts):
            tgt = int(key) % num_states
            src_ev = int(key) // num_states
            out[
                (
                    names[src_ev // num_events],
                    EventType(src_ev % num_events),
                    names[tgt],
                )
            ] = int(counts[key])
        return out

    def per_ue_event_counts(self, event: EventType) -> np.ndarray:
        """Rows of one event type per UE; == reference ``per_ue_event_counts``."""
        return np.bincount(
            self.ue_code[self.events == int(event)], minlength=self.num_ues
        )

    def _interval_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Complete top-level intervals as (ue_code, state_parent, duration).

        Consecutive parent-boundary records within one UE open and close
        an interval whose state is the opening boundary's target parent
        (the ``current`` the reference tracks).  A UE's leading interval
        starts at an unknown time and its trailing one never ends, so
        neither is complete — pairing consecutive boundaries drops both.
        """
        src_par = self.table.parent_code[self.sources]
        tgt_par = self.table.parent_code[self.targets]
        bpos = np.flatnonzero(src_par != tgt_par)
        if bpos.size < 2:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int16),
                np.empty(0, dtype=np.float64),
            )
        same_ue = self.ue_code[bpos[1:]] == self.ue_code[bpos[:-1]]
        open_b = bpos[:-1][same_ue]
        close_b = bpos[1:][same_ue]
        return (
            self.ue_code[open_b],
            tgt_par[open_b],
            self.times[close_b] - self.times[open_b],
        )

    def top_state_sojourns(self) -> Dict[str, np.ndarray]:
        """Complete top-level sojourns by state; == reference ``top_state_sojourns``."""
        _, states, durations = self._interval_arrays()
        present, groups = _group_arrays(states.astype(np.int64), durations)
        names = self.table.parent_names
        return {names[int(code)]: group for code, group in zip(present, groups)}


def replay_trace_compiled(trace: Trace, machine=None) -> TraceReplay:
    """Replay every UE of ``trace`` as flat arrays (see :class:`TraceReplay`)."""
    if machine is None:
        machine = lte.two_level_machine()
    table = table_for(machine)
    # Trace rows are already time-sorted, so one stable UE sort yields
    # the (ue, time) order the reference replay visits records in.
    order = np.argsort(trace.ue_ids, kind="stable")
    ue = trace.ue_ids[order]
    times = trace.times[order]
    events = trace.event_types[order].astype(np.int64)
    first = np.empty(len(ue), dtype=bool)
    if len(ue):
        first[0] = True
        first[1:] = ue[1:] != ue[:-1]
    sources, targets, forced = _replay_codes(events, first, table)
    ues = ue[first] if len(ue) else np.empty(0, dtype=np.int64)
    ue_code = np.cumsum(first) - 1 if len(ue) else np.empty(0, dtype=np.int64)
    return TraceReplay(
        ues=ues,
        ue_code=ue_code,
        events=events,
        times=times,
        sources=sources,
        targets=targets,
        forced=forced,
        first=first,
        table=table,
    )


# ---------------------------------------------------------------------------
# Category-2 classification (Tables 4 & 11)
# ---------------------------------------------------------------------------

#: Top-level state codes used by the classification arrays.
_CONN, _IDLE, _DEREG = 0, 1, 2

#: State after a Category-1 event (the lenient tracker of the reference).
_FORCE_TO = np.full(_NUM_EVENTS, -1, dtype=np.int64)
_FORCE_TO[int(EventType.ATCH)] = _CONN
_FORCE_TO[int(EventType.DTCH)] = _DEREG
_FORCE_TO[int(EventType.SRV_REQ)] = _CONN
_FORCE_TO[int(EventType.S1_CONN_REL)] = _IDLE

#: Initial top-level state back-inferred from a UE's first Category-1
#: event (mirrors ``replay._infer_initial_top_state``).
_INIT_FROM = np.full(_NUM_EVENTS, -1, dtype=np.int64)
_INIT_FROM[int(EventType.ATCH)] = _DEREG
_INIT_FROM[int(EventType.SRV_REQ)] = _IDLE
_INIT_FROM[int(EventType.S1_CONN_REL)] = _CONN
_INIT_FROM[int(EventType.DTCH)] = _CONN


def classify_category2_arrays(trace: Trace) -> Dict[Tuple[EventType, str], int]:
    """Vectorized twin of the reference ``classify_category2_events``.

    Tracks each UE's top-level state from Category-1 events only (a
    forward fill over per-UE segments) and bin-counts the ``HO``/``TAU``
    rows by that state, with ``DEREGISTERED`` counted as ``IDLE``.
    """
    counts: Dict[Tuple[EventType, str], int] = {
        (EventType.HO, lte.CONNECTED): 0,
        (EventType.HO, lte.IDLE): 0,
        (EventType.TAU, lte.CONNECTED): 0,
        (EventType.TAU, lte.IDLE): 0,
    }
    n = len(trace)
    if n == 0:
        return counts
    order = np.argsort(trace.ue_ids, kind="stable")
    ue = trace.ue_ids[order]
    events = trace.event_types[order].astype(np.int64)
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = ue[1:] != ue[:-1]
    ue_code = np.cumsum(first) - 1
    num_ues = int(ue_code[-1]) + 1
    idx = np.arange(n)

    # Per-UE initial state: decided by the first Category-1 event, else
    # CONNECTED when any HO is present, else IDLE.
    setter = _FORCE_TO[events]  # -1 for HO/TAU rows
    cat1_pos = np.flatnonzero(setter >= 0)
    first_cat1 = np.full(num_ues, -1, dtype=np.int64)
    first_cat1[ue_code[cat1_pos][::-1]] = cat1_pos[::-1]
    has_ho = np.zeros(num_ues, dtype=bool)
    has_ho[ue_code[events == int(EventType.HO)]] = True
    init = np.where(has_ho, _CONN, _IDLE)
    seen = first_cat1 >= 0
    init[seen] = _INIT_FROM[events[np.maximum(first_cat1, 0)]][seen]

    # State at each row = value of the last Category-1 setter strictly
    # before it within the same UE, else that UE's initial state.
    start_of = np.maximum.accumulate(np.where(first, idx, -1))
    last_setter = np.maximum.accumulate(np.where(setter >= 0, idx, -1))
    prev_setter = np.empty(n, dtype=np.int64)
    prev_setter[0] = -1
    prev_setter[1:] = last_setter[:-1]
    in_segment = prev_setter >= start_of
    state = np.where(
        in_segment, setter[np.maximum(prev_setter, 0)], init[ue_code]
    )
    state = np.where(state == _DEREG, _IDLE, state)

    for event in (EventType.HO, EventType.TAU):
        rows = events == int(event)
        counts[(event, lte.CONNECTED)] = int(
            np.count_nonzero(rows & (state == _CONN))
        )
        counts[(event, lte.IDLE)] = int(
            np.count_nonzero(rows & (state == _IDLE))
        )
    return counts
