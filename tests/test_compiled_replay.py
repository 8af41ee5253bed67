"""Compiled whole-trace replay: exact equivalence with the reference.

The evaluation tentpole guarantee mirrors the fitting one: the compiled
``replay_trace(engine="compiled")`` path must produce *identical*
outputs to the reference per-event walk — same decoded records, same
sojourn samples in the same order, same transition counts, same
top-level intervals, same Category-2 classification — for every
machine kind and device cohort, including traces that violate the
machine (forced transitions).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.statemachines import (
    REPLAY_ENGINES,
    TraceReplay,
    classify_category2_events,
    per_ue_event_counts,
    replay_trace,
    replay_ue,
    sojourn_samples,
    top_state_sojourns,
    transition_counts,
)
from repro.statemachines.compiled_replay import table_for
from repro.statemachines.lte import emm_ecm_machine, two_level_machine
from repro.statemachines.nr import nr_sa_machine
from repro.trace import DeviceType, EventType, Trace

from conftest import make_trace

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: machine builder + the event codes that machine can replay.
MACHINES = {
    "two_level": (two_level_machine, [0, 1, 2, 3, 4, 5]),
    "emm_ecm": (emm_ecm_machine, [0, 1, 2, 3]),
    "nr_sa": (nr_sa_machine, [0, 1, 2, 3, 4]),
}

P = DeviceType.PHONE
E = EventType


def _filter_events(trace, codes):
    mask = np.isin(trace.event_types, np.asarray(codes))
    return Trace(
        trace.ue_ids[mask],
        trace.times[mask],
        trace.event_types[mask],
        trace.device_types[mask],
    )


def assert_replays_equal(trace, machine):
    """Pin compiled == reference for one (trace, machine) pair."""
    ref = replay_trace(trace, machine, engine="reference")
    comp = replay_trace(trace, machine, engine="compiled")
    assert isinstance(comp, TraceReplay)
    decoded = comp.to_results()
    assert set(decoded) == set(ref)
    for ue in ref:
        assert decoded[ue].records == ref[ue].records
        assert decoded[ue].violations == ref[ue].violations
        assert decoded[ue].final_state == ref[ue].final_state
    ref_soj, comp_soj = sojourn_samples(ref), sojourn_samples(comp)
    assert set(ref_soj) == set(comp_soj)
    for key in ref_soj:
        assert np.array_equal(ref_soj[key], comp_soj[key])
    assert transition_counts(ref) == transition_counts(comp)
    ref_top = top_state_sojourns(ref, machine)
    comp_top = top_state_sojourns(comp)
    assert set(ref_top) == set(comp_top)
    for state in ref_top:
        assert np.array_equal(ref_top[state], comp_top[state])


class TestEngineDispatch:
    def test_engines_listed(self):
        assert REPLAY_ENGINES == ("reference", "compiled")

    def test_unknown_engine_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="unknown replay engine"):
            replay_trace(tiny_trace, engine="gpu")
        with pytest.raises(ValueError, match="unknown replay engine"):
            classify_category2_events(tiny_trace, engine="gpu")

    def test_compiled_returns_trace_replay(self, tiny_trace):
        result = replay_trace(tiny_trace, engine="compiled")
        assert isinstance(result, TraceReplay)
        assert result.num_ues == tiny_trace.num_ues
        assert len(result) == len(tiny_trace)

    def test_empty_trace(self):
        empty = Trace.empty()
        assert replay_trace(empty, engine="reference") == {}
        comp = replay_trace(empty, engine="compiled")
        assert comp.to_results() == {}
        assert sojourn_samples(comp) == {}
        assert transition_counts(comp) == {}
        assert top_state_sojourns(comp) == {}


class TestMachineDeviceEquality:
    """The pinned machine × device equality grid of the tentpole."""

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    @pytest.mark.parametrize("device_type", list(DeviceType))
    def test_ground_truth_cohorts(self, kind, device_type, ground_truth_trace):
        builder, codes = MACHINES[kind]
        cohort = _filter_events(
            ground_truth_trace.filter_device(device_type), codes
        )
        assert len(cohort) > 0
        assert_replays_equal(cohort, builder())

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_tiny_trace(self, kind, tiny_trace):
        builder, codes = MACHINES[kind]
        assert_replays_equal(_filter_events(tiny_trace, codes), builder())


class TestForcedViolations:
    """Traces that violate the machine exercise the forced-repair path."""

    #: Every row deliberately out of order for the two-level machine:
    #: HO before any attach, double SRV_REQ, S1_CONN_REL from DEREGISTERED.
    VIOLATING_ROWS = [
        (1, 1.0, E.HO, P),           # first event, invalid anywhere cold
        (1, 2.0, E.SRV_REQ, P),      # SRV_REQ while CONNECTED
        (1, 3.0, E.SRV_REQ, P),      # and again
        (1, 4.0, E.DTCH, P),
        (1, 5.0, E.S1_CONN_REL, P),  # release while DEREGISTERED
        (2, 0.5, E.TAU, P),
        (2, 1.5, E.ATCH, P),
        (2, 2.5, E.ATCH, P),         # double attach
        (2, 3.5, E.HO, P),
        (2, 4.5, E.HO, P),
        (3, 9.0, E.S1_CONN_REL, P),  # lone release
    ]

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_violating_trace_equality(self, kind):
        builder, codes = MACHINES[kind]
        trace = _filter_events(make_trace(self.VIOLATING_ROWS), codes)
        assert_replays_equal(trace, builder())

    def test_violations_counted(self):
        trace = make_trace(self.VIOLATING_ROWS)
        ref = replay_trace(trace, engine="reference")
        comp = replay_trace(trace, engine="compiled").to_results()
        assert sum(r.violations for r in ref.values()) > 0
        for ue in ref:
            assert comp[ue].violations == ref[ue].violations


class TestPerUeEventCounts:
    @pytest.mark.parametrize("event", [E.SRV_REQ, E.S1_CONN_REL, E.HO])
    def test_engines_agree(self, event, ground_truth_trace):
        violating = make_trace(TestForcedViolations.VIOLATING_ROWS)
        for trace in (ground_truth_trace, violating, Trace.empty()):
            ref = per_ue_event_counts(replay_trace(trace, engine="reference"), event)
            comp = per_ue_event_counts(replay_trace(trace, engine="compiled"), event)
            assert np.array_equal(ref, comp)
            assert len(comp) == trace.num_ues
            assert comp.sum() == np.count_nonzero(trace.event_types == int(event))


class TestHypothesisEquality:
    @pytest.mark.parametrize("kind", sorted(MACHINES))
    @SETTINGS
    @given(data=st.data())
    def test_matches_replay_ue_per_ue(self, kind, data):
        """Compiled whole-trace replay == replay_ue on every UE."""
        builder, codes = MACHINES[kind]
        machine = builder()
        num_ues = data.draw(st.integers(min_value=1, max_value=4))
        rows = []
        per_ue = {}
        for ue in range(num_ues):
            events = data.draw(
                st.lists(st.sampled_from(codes), min_size=1, max_size=15)
            )
            deltas = data.draw(
                st.lists(
                    st.floats(min_value=1e-3, max_value=600.0, allow_nan=False),
                    min_size=len(events),
                    max_size=len(events),
                )
            )
            times = np.cumsum(np.asarray(deltas, dtype=np.float64))
            per_ue[ue] = (events, times)
            rows.extend((ue, t, e, 0) for t, e in zip(times, events))
        trace = make_trace(rows)
        decoded = replay_trace(trace, machine, engine="compiled").to_results()
        assert set(decoded) == set(per_ue)
        for ue, (events, times) in per_ue.items():
            ref = replay_ue(events, times, machine)
            assert decoded[ue].records == ref.records
            assert decoded[ue].violations == ref.violations
            assert decoded[ue].final_state == ref.final_state


class TestCategory2Classification:
    def test_ground_truth_equality(self, ground_truth_trace):
        ref = classify_category2_events(ground_truth_trace, engine="reference")
        comp = classify_category2_events(ground_truth_trace, engine="compiled")
        assert ref == comp
        assert sum(ref.values()) > 0

    def test_empty_trace(self):
        counts = classify_category2_events(Trace.empty(), engine="compiled")
        assert set(counts.values()) == {0}

    def test_all_tau_and_lone_ho_ues(self):
        # An all-TAU UE back-infers IDLE; a UE with any HO infers CONNECTED.
        trace = make_trace(
            [
                (1, 1.0, E.TAU, P),
                (1, 2.0, E.TAU, P),
                (2, 1.0, E.TAU, P),
                (2, 2.0, E.HO, P),
            ]
        )
        ref = classify_category2_events(trace, engine="reference")
        comp = classify_category2_events(trace, engine="compiled")
        assert ref == comp

    @SETTINGS
    @given(data=st.data())
    def test_random_traces_equal(self, data):
        num_ues = data.draw(st.integers(min_value=1, max_value=5))
        rows = []
        for ue in range(num_ues):
            events = data.draw(
                st.lists(st.sampled_from(list(range(6))), max_size=20)
            )
            for i, event in enumerate(events):
                rows.append((ue, float(i + 1), event, 0))
        if not rows:
            return
        trace = make_trace(rows)
        assert classify_category2_events(
            trace, engine="reference"
        ) == classify_category2_events(trace, engine="compiled")


class TestTableCache:
    def test_cached_by_machine_name(self):
        machine = two_level_machine()
        assert table_for(machine) is table_for(two_level_machine())
        assert table_for(machine).machine_name == machine.name
