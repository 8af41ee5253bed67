"""Tests for the validation metrics (repro.validation)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.generator import TrafficGenerator
from repro.statemachines import lte
from repro.statemachines.replay import replay_trace
from repro.telemetry import RunTelemetry, use_telemetry
from repro.trace import DeviceType, EventType
from repro.validation import (
    BREAKDOWN_ROWS,
    MICRO_QUANTITIES,
    CohortProfile,
    activity_split_ydistance,
    breakdown_difference,
    breakdown_with_states,
    cohort_profile,
    count_ydistance,
    format_percent,
    format_ratio,
    format_table,
    macro_comparison,
    max_abs_breakdown_difference,
    micro_comparison,
    micro_comparison_partial,
    per_ue_counts,
    sojourn_ydistance,
)

from conftest import make_trace

E = EventType
P = DeviceType.PHONE


class TestBreakdownWithStates:
    def test_eight_rows(self):
        assert len(BREAKDOWN_ROWS) == 8

    def test_fractions_sum_to_one(self, ground_truth_trace):
        for dt in DeviceType:
            bd = breakdown_with_states(ground_truth_trace, dt)
            assert sum(bd.values()) == pytest.approx(1.0)

    def test_ho_rows_split_by_state(self):
        tr = make_trace(
            [
                (1, 1.0, E.SRV_REQ, P),
                (1, 2.0, E.HO, P),
                (1, 3.0, E.S1_CONN_REL, P),
                (1, 4.0, E.HO, P),  # invalid but must be *counted* as IDLE
            ]
        )
        bd = breakdown_with_states(tr, P)
        assert bd["HO (CONN.)"] == pytest.approx(0.25)
        assert bd["HO (IDLE)"] == pytest.approx(0.25)

    def test_empty_device(self, tiny_trace):
        bd = breakdown_with_states(tiny_trace, DeviceType.TABLET)
        assert all(v == 0.0 for v in bd.values())

    def test_difference_is_signed(self, ground_truth_trace, synthesized_trace):
        diff = breakdown_difference(ground_truth_trace, synthesized_trace, P)
        assert set(diff) == set(BREAKDOWN_ROWS)
        # Differences must cancel: both breakdowns sum to 1.
        assert sum(diff.values()) == pytest.approx(0.0, abs=1e-9)

    def test_max_abs_difference(self, ground_truth_trace, synthesized_trace):
        value = max_abs_breakdown_difference(
            ground_truth_trace, synthesized_trace, P
        )
        diffs = breakdown_difference(ground_truth_trace, synthesized_trace, P)
        assert value == max(abs(v) for v in diffs.values())

    def test_macro_comparison_structure(self, ground_truth_trace, synthesized_trace):
        table = macro_comparison(
            ground_truth_trace, {"ours": synthesized_trace}, [P]
        )
        assert set(table) == {P}
        assert set(table[P]) == {"real", "ours"}


class TestPerUeCounts:
    def test_zero_padding(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P)])
        counts = per_ue_counts(tr, P, E.SRV_REQ, num_ues=4)
        assert list(counts) == [0.0, 0.0, 0.0, 1.0]

    def test_padding_smaller_than_present_rejected(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.SRV_REQ, P)])
        with pytest.raises(ValueError, match="smaller"):
            per_ue_counts(tr, P, E.SRV_REQ, num_ues=1)


class TestYdistances:
    def test_identical_traces_zero_distance(self, ground_truth_trace):
        assert (
            count_ydistance(
                ground_truth_trace, ground_truth_trace, P, E.SRV_REQ
            )
            == 0.0
        )

    def test_count_ydistance_range(self, ground_truth_trace, synthesized_trace):
        d = count_ydistance(
            ground_truth_trace.window(3600.0, 7200.0),
            synthesized_trace,
            P,
            E.SRV_REQ,
        )
        assert 0.0 <= d <= 1.0

    def test_sojourn_ydistance_identical(self, ground_truth_trace):
        assert (
            sojourn_ydistance(
                ground_truth_trace, ground_truth_trace, P, lte.CONNECTED
            )
            == 0.0
        )

    def test_sojourn_ydistance_missing_state(self, tiny_trace):
        silent = make_trace([(9, 1.0, E.ATCH, P)])
        with pytest.raises(ValueError, match="sojourns"):
            sojourn_ydistance(tiny_trace, silent, P, lte.CONNECTED)

    def test_activity_split(self, ground_truth_trace, synthesized_trace):
        inactive, active = activity_split_ydistance(
            ground_truth_trace.window(3600.0, 7200.0),
            synthesized_trace,
            P,
            E.SRV_REQ,
        )
        for v in (inactive, active):
            assert math.isnan(v) or 0.0 <= v <= 1.0

    def test_micro_comparison_keys(self, ground_truth_trace, synthesized_trace):
        metrics = micro_comparison(
            ground_truth_trace.window(3600.0, 7200.0), synthesized_trace, P
        )
        assert set(metrics) == {"SRV_REQ", "S1_CONN_REL", "CONNECTED", "IDLE"}

    def test_count_padding_changes_distance(self):
        # Regression (Scenario 2 bias): without population padding two
        # cohorts of different sizes but identical per-active-UE counts
        # look indistinguishable; the zero-event UEs are the difference.
        real = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.SRV_REQ, P)])
        syn = make_trace([(7, 1.5, E.SRV_REQ, P)])
        assert count_ydistance(real, syn, P, E.SRV_REQ) == 0.0
        assert (
            count_ydistance(real, syn, P, E.SRV_REQ, syn_num_ues=2) == 0.5
        )


#: Each UE closes an IDLE sojourn (release -> service request) but its
#: CONNECTED interval never closes: first interval has no start, last
#: has no end.
_NO_CONNECTED_ROWS = [
    (1, 10.0, E.S1_CONN_REL, P),
    (1, 20.0, E.SRV_REQ, P),
    (2, 5.0, E.S1_CONN_REL, P),
    (2, 50.0, E.SRV_REQ, P),
]


class TestMicroComparisonPartial:
    def test_partial_reports_computable_quantities(self, ground_truth_trace):
        # Regression: the harness used to wrap all four quantities in a
        # single try/except, so one missing sojourn discarded every
        # micro-metric for the device.
        real = make_trace(_NO_CONNECTED_ROWS)
        syn = ground_truth_trace.window(3600.0, 7200.0)
        values, skipped = micro_comparison_partial(real, syn, P)
        assert set(values) == {"SRV_REQ", "S1_CONN_REL", "IDLE"}
        assert set(skipped) == {"CONNECTED"}
        assert "CONNECTED" in skipped["CONNECTED"]
        assert "PHONE" in skipped["CONNECTED"]

    def test_strict_comparison_raises(self, ground_truth_trace):
        real = make_trace(_NO_CONNECTED_ROWS)
        syn = ground_truth_trace.window(3600.0, 7200.0)
        with pytest.raises(ValueError, match="CONNECTED"):
            micro_comparison(real, syn, P)

    def test_engines_agree(self, ground_truth_trace, synthesized_trace):
        real = ground_truth_trace.window(3600.0, 7200.0)
        ref = micro_comparison_partial(
            real, synthesized_trace, P, engine="reference"
        )
        comp = micro_comparison_partial(
            real, synthesized_trace, P, engine="compiled"
        )
        assert ref == comp


def _oracle(real, syn, device_type, real_num_ues=None, syn_num_ues=None):
    """Table-4/5 values from the per-quantity reference functions.

    Nothing here goes through a :class:`CohortProfile`: the breakdown
    classifies the trace with the reference walk, counts come from
    ``per_ue_counts`` and sojourns from the reference replay.
    """
    micro = {}
    for name, event_type in (("SRV_REQ", E.SRV_REQ), ("S1_CONN_REL", E.S1_CONN_REL)):
        try:
            micro[name] = count_ydistance(
                real, syn, device_type, event_type,
                real_num_ues=real_num_ues, syn_num_ues=syn_num_ues,
            )
        except ValueError:
            pass
    for state in (lte.CONNECTED, lte.IDLE):
        try:
            micro[state] = sojourn_ydistance(
                real, syn, device_type, state, engine="reference"
            )
        except ValueError:
            pass
    return (
        breakdown_with_states(real, device_type, engine="reference"),
        breakdown_difference(real, syn, device_type, engine="reference"),
        micro,
    )


def _assert_profile_path_exact(real, syn, device_type, real_num_ues=None,
                               syn_num_ues=None):
    """Profile-path values == reference values, with ``==``."""
    real_p = cohort_profile(real, device_type)
    syn_p = cohort_profile(syn, device_type)
    kwargs = dict(real_num_ues=real_num_ues, syn_num_ues=syn_num_ues)
    values, skipped = micro_comparison_partial(real_p, syn_p, device_type, **kwargs)
    real_bd, diff, micro = _oracle(real, syn, device_type, **kwargs)
    assert breakdown_with_states(real_p, device_type) == real_bd
    assert breakdown_difference(real_p, syn_p, device_type) == diff
    assert values == micro
    assert list(values) == [q for q in MICRO_QUANTITIES if q in values]
    assert set(values) | set(skipped) == set(MICRO_QUANTITIES)
    assert (values, skipped) == micro_comparison_partial(
        real, syn, device_type, engine="reference", **kwargs
    )


def _assert_profiles_equal(a: CohortProfile, b: CohortProfile):
    assert a.device_type == b.device_type
    assert (a.num_events, a.num_ues) == (b.num_events, b.num_ues)
    assert a.row_counts == b.row_counts
    for field in ("ue_counts", "sojourns"):
        x, y = getattr(a, field), getattr(b, field)
        assert set(x) == set(y)
        for key in x:
            assert np.array_equal(x[key], y[key])


class TestCohortProfile:
    def test_ground_truth_every_device(self, ground_truth_trace, synthesized_trace):
        real = ground_truth_trace.window(3600.0, 7200.0)
        for dt in DeviceType:
            _assert_profile_path_exact(real, synthesized_trace, dt)
            _assert_profile_path_exact(
                real, synthesized_trace, dt,
                real_num_ues=real.filter_device(dt).num_ues + 3,
                syn_num_ues=synthesized_trace.filter_device(dt).num_ues + 5,
            )
            _assert_profiles_equal(
                cohort_profile(ground_truth_trace, dt),
                cohort_profile(ground_truth_trace, dt, engine="reference"),
            )

    def test_base_synthesized_trace(self, ground_truth_trace, base_model_set):
        # Base ignores the state machine (HO in IDLE and the like), so the
        # replay takes the forced-repair path on many rows.
        syn = TrafficGenerator(base_model_set).generate(
            150, start_hour=18, num_hours=1, seed=3
        )
        replay = replay_trace(syn.filter_device(P), engine="compiled")
        assert np.count_nonzero(replay.forced & ~replay.first) > 0
        real = ground_truth_trace.window(3600.0, 7200.0)
        for dt in DeviceType:
            _assert_profile_path_exact(real, syn, dt)
            _assert_profile_path_exact(syn, real, dt)
            _assert_profiles_equal(
                cohort_profile(syn, dt), cohort_profile(syn, dt, engine="reference")
            )

    def test_ue_with_two_device_types(self, ground_truth_trace):
        T = DeviceType.TABLET
        rows = [
            (1, 1.0, E.SRV_REQ, P),
            (1, 5.0, E.S1_CONN_REL, P),
            (1, 9.0, E.SRV_REQ, T),
            (1, 12.0, E.HO, T),
            (1, 20.0, E.S1_CONN_REL, T),
            (1, 40.0, E.SRV_REQ, P),
            (1, 41.0, E.TAU, P),
            (1, 60.0, E.S1_CONN_REL, P),
            (2, 2.0, E.S1_CONN_REL, T),
            (2, 30.0, E.SRV_REQ, T),
            (2, 31.0, E.S1_CONN_REL, T),
        ]
        # A validated Trace rejects such a UE; an unvalidated one can
        # still carry it, and both metric engines must agree on it.
        with pytest.raises(ValueError, match="UE 1 has more than one device"):
            make_trace(rows)
        trace = make_trace(rows, validate=False)
        syn = ground_truth_trace.window(3600.0, 7200.0)
        assert cohort_profile(trace, P).num_ues == 1
        assert cohort_profile(trace, T).num_ues == 2
        for dt in (P, T):
            _assert_profile_path_exact(trace, syn, dt)
            _assert_profile_path_exact(syn, trace, dt)
            _assert_profiles_equal(
                cohort_profile(trace, dt), cohort_profile(trace, dt, engine="reference")
            )

    def test_empty_cohort(self, tiny_trace):
        profile = cohort_profile(tiny_trace, DeviceType.TABLET)
        assert (profile.num_events, profile.num_ues) == (0, 0)
        assert set(profile.row_counts.values()) == {0}
        assert breakdown_with_states(profile, DeviceType.TABLET) == (
            breakdown_with_states(tiny_trace, DeviceType.TABLET)
        )
        assert profile.padded_counts("SRV_REQ", 4).tolist() == [0.0] * 4

    def test_padding_smaller_than_present_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="smaller than UEs present"):
            cohort_profile(tiny_trace, P).padded_counts("SRV_REQ", 1)

    def test_wrong_device_rejected(self, tiny_trace):
        profile = cohort_profile(tiny_trace, P)
        with pytest.raises(ValueError, match="profile of PHONE used for TABLET"):
            breakdown_with_states(profile, DeviceType.TABLET)
        with pytest.raises(ValueError, match="profile of PHONE"):
            micro_comparison_partial(tiny_trace, profile, DeviceType.TABLET)

    def test_one_replay_per_cohort(self, ground_truth_trace, synthesized_trace):
        tele = RunTelemetry()
        with use_telemetry(tele):
            real_p = cohort_profile(ground_truth_trace, P)
            syn_p = cohort_profile(synthesized_trace, P)
            breakdown_difference(real_p, syn_p, P)
            micro_comparison_partial(real_p, syn_p, P)
        assert tele.counters["validate_replays"] == 2
        assert tele.counters["validate_events"] == (
            len(ground_truth_trace.filter_device(P))
            + len(synthesized_trace.filter_device(P))
        )

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_traces_match_reference(self, data):
        """Profile path == reference path on small random traces."""
        traces = []
        for _ in range(2):
            rows = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=4),
                        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
                        st.sampled_from(list(EventType)),
                        st.sampled_from(list(DeviceType)),
                    ),
                    min_size=1,
                    max_size=40,
                )
            )
            # Unvalidated: UEs with two device types stay in the search space.
            traces.append(make_trace(rows, validate=False))
        real, syn = traces
        pad = data.draw(st.integers(min_value=0, max_value=3))
        for dt in DeviceType:
            _assert_profile_path_exact(real, syn, dt)
            _assert_profile_path_exact(
                real, syn, dt,
                real_num_ues=real.filter_device(dt).num_ues + pad,
                syn_num_ues=syn.filter_device(dt).num_ues,
            )
            _assert_profiles_equal(
                cohort_profile(real, dt), cohort_profile(real, dt, engine="reference")
            )


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert all(len(line) > 0 for line in lines)

    def test_format_percent(self):
        assert format_percent(0.123) == "12.3%"
        assert format_percent(-0.05, signed=True) == "-5.0%"
        assert format_percent(0.05, signed=True) == "+5.0%"

    def test_format_ratio(self):
        assert format_ratio(4.768) == "4.77x"
