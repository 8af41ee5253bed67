"""Tests for the evaluation harness (repro.harness)."""

import pytest

from repro.generator import TrafficGenerator
from repro.harness import DEFAULT_METHODS, EVAL_ENGINES, evaluate_methods
from repro.trace import DeviceType, EventType

from conftest import TRACE_START_HOUR, make_trace

E = EventType
P = DeviceType.PHONE


@pytest.fixture(scope="module")
def report(request):
    ground_truth = request.getfixturevalue("ground_truth_trace")
    holdout = request.getfixturevalue("holdout_trace")
    return evaluate_methods(
        ground_truth,
        holdout,
        methods=("base", "ours"),
        theta_n=25,
        trace_start_hour=TRACE_START_HOUR,
        generation_hour=TRACE_START_HOUR + 1,
        seed=5,
    )


class TestEvaluateMethods:
    def test_default_methods(self):
        assert DEFAULT_METHODS == ("base", "v1", "v2", "ours")

    def test_results_per_method(self, report):
        assert set(report.results) == {"base", "ours"}
        for result in report.results.values():
            assert len(result.synthesized) > 0
            assert result.macro_max_error

    def test_population_defaults_to_real(self, report, holdout_trace):
        assert report.num_ues == holdout_trace.num_ues

    def test_ours_wins_phones(self, report):
        assert report.winner(DeviceType.PHONE) == "ours"

    def test_macro_diffs_cover_rows(self, report):
        from repro.validation import BREAKDOWN_ROWS

        diff = report.results["ours"].macro_diff[DeviceType.PHONE]
        assert set(diff) == set(BREAKDOWN_ROWS)

    def test_micro_metrics_present(self, report):
        micro = report.results["ours"].micro[DeviceType.PHONE]
        assert "CONNECTED" in micro
        assert 0.0 <= micro["CONNECTED"] <= 1.0

    def test_to_text_renders_all_devices(self, report):
        text = report.to_text()
        assert "Macroscopic breakdown - PHONE" in text
        assert "Microscopic max y-distance - PHONE" in text
        assert "Ours" in text

    def test_prefitted_models_reused(
        self, ground_truth_trace, holdout_trace, ours_model_set
    ):
        report = evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        assert report.results["ours"].model is ours_model_set

    def test_explicit_population(self, ground_truth_trace, holdout_trace, ours_model_set):
        report = evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            num_ues=50,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        assert report.num_ues == 50
        assert report.results["ours"].synthesized.num_ues <= 50


class TestEvaluationEngines:
    def test_engines_listed(self):
        assert EVAL_ENGINES == ("compiled", "reference")

    def test_unknown_engine_rejected(self, ground_truth_trace, holdout_trace):
        with pytest.raises(ValueError, match="unknown evaluation engine"):
            evaluate_methods(ground_truth_trace, holdout_trace, engine="gpu")

    def test_negative_processes_rejected(self, ground_truth_trace, holdout_trace):
        with pytest.raises(ValueError, match="non-negative"):
            evaluate_methods(ground_truth_trace, holdout_trace, processes=-1)

    def test_engines_and_parallel_agree(
        self, ground_truth_trace, holdout_trace, ours_model_set
    ):
        kwargs = dict(
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        compiled = evaluate_methods(
            ground_truth_trace, holdout_trace, engine="compiled", **kwargs
        )
        reference = evaluate_methods(
            ground_truth_trace, holdout_trace, engine="reference", **kwargs
        )
        parallel = evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            engine="compiled",
            processes=2,
            **kwargs,
        )
        assert (
            compiled.to_dict()["methods"]
            == reference.to_dict()["methods"]
            == parallel.to_dict()["methods"]
        )

    @pytest.mark.parametrize("processes", [None, 2])
    def test_each_cohort_replayed_once(
        self, processes, ground_truth_trace, holdout_trace, ours_model_set,
        base_model_set,
    ):
        # The real trace is profiled once per device, not once per
        # method x device cell; each synthesized trace once per device.
        from repro.telemetry import RunTelemetry, use_telemetry

        tele = RunTelemetry()
        report = evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            methods=("base", "ours"),
            models={"base": base_model_set, "ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
            processes=processes,
            telemetry=tele,
        )
        devices = [dt for dt in DeviceType if len(holdout_trace.filter_device(dt))]
        syn_cohorts = sum(
            1
            for result in report.results.values()
            for dt in devices
            if len(result.synthesized.filter_device(dt))
        )
        assert tele.counters["validate_replays"] == len(devices) + syn_cohorts
        rendered = RunTelemetry()
        with use_telemetry(rendered):
            report.to_text()
        assert "validate_replays" not in rendered.counters

    def test_to_dict_shape(self, report):
        data = report.to_dict()
        assert data["engine"] in EVAL_ENGINES
        assert set(data["methods"]) == {"base", "ours"}
        ours = data["methods"]["ours"]
        assert set(ours) == {
            "macro_diff",
            "macro_max_error",
            "micro",
            "micro_skipped",
        }
        assert "PHONE" in ours["micro"]


#: A phone-only validation trace where every UE closes an IDLE sojourn
#: (release -> service request) but never a CONNECTED one: the first
#: CONNECTED interval has no start and the last has no end.
_NO_CONNECTED_ROWS = [
    (1, 10.0, E.S1_CONN_REL, P),
    (1, 20.0, E.SRV_REQ, P),
    (2, 5.0, E.S1_CONN_REL, P),
    (2, 50.0, E.SRV_REQ, P),
]


class TestBugfixRegressions:
    @pytest.fixture(scope="class")
    def partial_report(self, request):
        ground_truth = request.getfixturevalue("ground_truth_trace")
        ours_model_set = request.getfixturevalue("ours_model_set")
        real = make_trace(
            [(ue, t + 3600.0 * (TRACE_START_HOUR + 1), ev, dt)
             for ue, t, ev, dt in _NO_CONNECTED_ROWS]
        )
        return evaluate_methods(
            ground_truth,
            real,
            num_ues=30,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )

    def test_partial_micro_reported(self, partial_report):
        # Regression (bug 1): one unmeasurable quantity used to discard
        # every micro-metric of the device; now the computable ones are
        # reported and the skip carries its reason.
        result = partial_report.results["ours"]
        micro = result.micro[P]
        assert {"SRV_REQ", "S1_CONN_REL", "IDLE"} <= set(micro)
        assert "CONNECTED" not in micro
        assert "CONNECTED" in result.micro_skipped[P]
        assert "sojourn" in result.micro_skipped[P]["CONNECTED"]

    def test_to_text_lists_skips(self, partial_report):
        text = partial_report.to_text()
        assert "Skipped quantities - PHONE" in text
        assert "CONNECTED" in text

    def test_winner_unmeasured_device_raises(self, partial_report):
        # Regression (bug 3): an all-inf tie used to crown an arbitrary
        # method for devices absent from the real trace.
        assert partial_report.winner(P) == "ours"
        with pytest.raises(ValueError, match="TABLET"):
            partial_report.winner(DeviceType.TABLET)

    def test_count_cdf_populations_threaded(
        self, monkeypatch, ground_truth_trace, holdout_trace, ours_model_set
    ):
        # Regression (bug 2): the harness used to call count_ydistance
        # without populations, so zero-event UEs were never padded and
        # Table-5 numbers were biased whenever the synthesized
        # population differed from the real one (Scenario 2).
        from repro.harness import evaluation as ev
        from repro.validation.microscopic import (
            micro_comparison_partial as real_fn,
        )

        seen = {}

        def spy(real, syn, device_type, *, real_num_ues=None,
                syn_num_ues=None, engine="reference"):
            seen[device_type] = (real_num_ues, syn_num_ues)
            return real_fn(
                real,
                syn,
                device_type,
                real_num_ues=real_num_ues,
                syn_num_ues=syn_num_ues,
                engine=engine,
            )

        monkeypatch.setattr(ev, "micro_comparison_partial", spy)
        evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            num_ues=60,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        resolved = TrafficGenerator(ours_model_set).resolve_counts(60)
        assert seen
        for device_type, (real_n, syn_n) in seen.items():
            assert real_n == holdout_trace.filter_device(device_type).num_ues
            assert syn_n == resolved[device_type]
