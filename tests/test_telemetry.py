"""Tests for the run telemetry layer (repro.telemetry).

Covers the collector primitives (spans, counters, gauges, progress,
child-record merging), the versioned schema-validated report format,
the operator summary rendering, and the counters the generation entry
points maintain — including that serial, parallel, and streaming runs
of the same workload agree on them.
"""

import json
import pickle
import time

import pytest

from repro.generator import TrafficGenerator, generate_parallel, stream_events
from repro.mcn import CoreNetworkSimulator
from repro.telemetry import (
    REPORT_FORMAT,
    REPORT_VERSION,
    RunTelemetry,
    TelemetryReportError,
    get_telemetry,
    load_report,
    load_schema,
    summarize_report,
    use_telemetry,
    validate_report,
)

from conftest import TRACE_START_HOUR

RUN = dict(start_hour=TRACE_START_HOUR, num_hours=2, seed=11)
POP = 30


# ---------------------------------------------------------------------------
# Collector primitives
# ---------------------------------------------------------------------------


class TestSpans:
    def test_span_records_count_and_time(self):
        tele = RunTelemetry()
        with tele.span("work"):
            pass
        span = tele.spans["work"]
        assert span["count"] == 1
        assert span["wall_s"] >= 0.0
        assert span["cpu_s"] >= 0.0

    def test_same_name_accumulates(self):
        tele = RunTelemetry()
        for _ in range(3):
            with tele.span("work"):
                pass
        assert tele.spans["work"]["count"] == 3

    def test_reentrant_nesting(self):
        tele = RunTelemetry()
        with tele.span("outer"), tele.span("outer"):
            pass
        assert tele.spans["outer"]["count"] == 2

    def test_span_recorded_on_exception(self):
        tele = RunTelemetry()
        with pytest.raises(RuntimeError):
            with tele.span("work"):
                raise RuntimeError("boom")
        assert tele.spans["work"]["count"] == 1

    def test_span_wall_covers_sleep(self):
        tele = RunTelemetry()
        with tele.span("nap"):
            time.sleep(0.01)
        assert tele.spans["nap"]["wall_s"] >= 0.009


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        tele = RunTelemetry()
        tele.count("events")
        tele.count("events", 41)
        assert tele.counters == {"events": 42}

    def test_zero_delta_is_allowed(self):
        tele = RunTelemetry()
        tele.count("events", 0)
        assert tele.counters["events"] == 0

    def test_negative_delta_rejected(self):
        tele = RunTelemetry()
        with pytest.raises(ValueError, match="delta"):
            tele.count("events", -1)

    def test_gauge_last_value_wins(self):
        tele = RunTelemetry()
        tele.gauge("workers", 4)
        tele.gauge("workers", 2)
        assert tele.gauges["workers"] == 2.0

    def test_max_gauge_keeps_high_water_mark(self):
        tele = RunTelemetry()
        tele.max_gauge("peak", 10)
        tele.max_gauge("peak", 3)
        tele.max_gauge("peak", 12)
        assert tele.gauges["peak"] == 12.0

    def test_record_peak_rss_positive(self):
        tele = RunTelemetry()
        tele.record_peak_rss()
        # A running CPython process occupies at least a few MiB.
        assert tele.gauges["peak_rss_bytes"] > 1 << 20


class TestProgress:
    def test_every_tick_delivered_at_zero_interval(self):
        tele = RunTelemetry()
        seen = []
        tele.on_progress(lambda *tick: seen.append(tick), min_interval=0.0)
        for done in range(1, 4):
            tele.progress("phase", done, 3)
        assert seen == [("phase", 1, 3), ("phase", 2, 3), ("phase", 3, 3)]

    def test_rate_limited_but_completion_always_delivered(self):
        tele = RunTelemetry()
        seen = []
        tele.on_progress(lambda *tick: seen.append(tick), min_interval=3600.0)
        for done in range(1, 6):
            tele.progress("phase", done, 5)
        # First tick passes (timer starts at 0), middle ticks are
        # suppressed, the completion tick always lands.
        assert seen == [("phase", 1, 5), ("phase", 5, 5)]

    def test_unknown_total_never_counts_as_completion(self):
        tele = RunTelemetry()
        seen = []
        tele.on_progress(lambda *tick: seen.append(tick), min_interval=3600.0)
        tele.progress("phase", 1)
        tele.progress("phase", 2)
        assert seen == [("phase", 1, 0)]

    def test_first_tick_delivered_right_after_boot(self, monkeypatch):
        # Regression: the last-tick time was seeded with 0.0, so while
        # time.monotonic() (seconds since boot) was below min_interval
        # the first tick was dropped.
        from repro.telemetry import collector

        monkeypatch.setattr(collector.time, "monotonic", lambda: 0.1)
        tele = RunTelemetry()
        seen = []
        tele.on_progress(lambda *tick: seen.append(tick), min_interval=3600.0)
        tele.progress("phase", 1, 5)
        tele.progress("phase", 2, 5)
        assert seen == [("phase", 1, 5)]

    def test_negative_interval_rejected(self):
        tele = RunTelemetry()
        with pytest.raises(ValueError, match="min_interval"):
            tele.on_progress(lambda *tick: None, min_interval=-1.0)

    def test_no_callbacks_is_free(self):
        RunTelemetry().progress("phase", 1, 2)  # must not raise


class TestChildRecords:
    def test_round_trip_merges_everything(self):
        child = RunTelemetry()
        with child.span("chunk"):
            pass
        child.count("events", 7)
        child.max_gauge("peak", 100)

        parent = RunTelemetry()
        parent.count("events", 3)
        parent.max_gauge("peak", 50)
        parent.merge_child(child.child_record())

        assert parent.counters["events"] == 10
        assert parent.gauges["peak"] == 100.0
        assert parent.spans["chunk"]["count"] == 1

    def test_merge_accumulates_existing_spans(self):
        a, b = RunTelemetry(), RunTelemetry()
        for tele in (a, b):
            with tele.span("chunk"):
                pass
        a.merge_child(b.child_record())
        assert a.spans["chunk"]["count"] == 2

    def test_child_record_is_picklable(self):
        child = RunTelemetry()
        child.count("events", 1)
        with child.span("chunk"):
            pass
        record = pickle.loads(pickle.dumps(child.child_record()))
        assert record["counters"] == {"events": 1}

    def test_merge_empty_record_is_noop(self):
        tele = RunTelemetry()
        tele.merge_child({})
        assert tele.counters == {} and tele.gauges == {}


class TestAmbientCollector:
    def test_ambient_always_present(self):
        assert isinstance(get_telemetry(), RunTelemetry)

    def test_use_telemetry_scopes_and_restores(self):
        outer = get_telemetry()
        mine = RunTelemetry()
        with use_telemetry(mine):
            assert get_telemetry() is mine
        assert get_telemetry() is outer

    def test_restored_after_exception(self):
        outer = get_telemetry()
        with pytest.raises(RuntimeError):
            with use_telemetry(RunTelemetry()):
                raise RuntimeError("boom")
        assert get_telemetry() is outer


# ---------------------------------------------------------------------------
# Report format
# ---------------------------------------------------------------------------


def _sample_report():
    tele = RunTelemetry({"command": "generate", "seed": 11})
    with tele.span("generate"):
        pass
    tele.count("events_emitted", 123)
    tele.gauge("active_workers", 2)
    return tele.to_report()


class TestReportFormat:
    def test_schema_document_loads(self):
        schema = load_schema()
        assert schema["properties"]["format"]["const"] == REPORT_FORMAT
        assert schema["properties"]["version"]["const"] == REPORT_VERSION

    def test_report_is_schema_valid(self):
        report = _sample_report()
        assert validate_report(report) is report
        assert report["format"] == REPORT_FORMAT
        assert report["version"] == REPORT_VERSION

    def test_report_is_json_serializable(self):
        json.dumps(_sample_report())

    def test_write_and_load_round_trip(self, tmp_path):
        tele = RunTelemetry({"command": "generate"})
        tele.count("events_emitted", 5)
        path = tmp_path / "telemetry.json"
        written = tele.write_report(path)
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(written))

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda r: r.update(format="other"), "format"),
            (lambda r: r.update(version=99), "version"),
            (lambda r: r.pop("counters"), "counters"),
            (lambda r: r.update(extra=1), "extra"),
            (lambda r: r["counters"].update(bad=-1), "minimum"),
            (lambda r: r["counters"].update(bad=1.5), "integer"),
            (lambda r: r["spans"].update(bad={"count": 1}), "wall_s"),
            (lambda r: r.update(spans=[]), "object"),
        ],
    )
    def test_invalid_reports_rejected(self, mutate, fragment):
        report = _sample_report()
        mutate(report)
        with pytest.raises(TelemetryReportError, match=fragment):
            validate_report(report)

    def test_non_dict_rejected(self):
        with pytest.raises(TelemetryReportError, match="object"):
            validate_report([1, 2, 3])

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TelemetryReportError, match="cannot read"):
            load_report(tmp_path / "nope.json")

    def test_load_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(TelemetryReportError, match="cannot read"):
            load_report(path)


class TestSummary:
    def test_summary_mentions_all_sections(self):
        text = summarize_report(_sample_report())
        assert "command=generate" in text
        assert "generate" in text
        assert "events_emitted" in text
        assert "active_workers" in text
        assert "share" in text

    def test_empty_report_summary(self):
        text = summarize_report(RunTelemetry().to_report())
        # peak RSS is sampled by to_report, so gauges are present even
        # on an otherwise empty run.
        assert "peak_rss_bytes" in text

    def test_summary_validates_first(self):
        report = _sample_report()
        report.pop("spans")
        with pytest.raises(TelemetryReportError):
            summarize_report(report)


# ---------------------------------------------------------------------------
# Generation entry points maintain the counters
# ---------------------------------------------------------------------------


def _generate_with_telemetry(model_set, mode, engine):
    tele = RunTelemetry()
    gen = TrafficGenerator(model_set)
    if mode == "serial":
        trace = gen.generate(POP, engine=engine, telemetry=tele, **RUN)
    elif mode == "parallel":
        trace = generate_parallel(
            model_set,
            POP,
            engine=engine,
            processes=1,
            chunk_size=8,
            telemetry=tele,
            **RUN,
        )
    else:
        with use_telemetry(tele):
            chunks = list(stream_events(model_set, POP, engine=engine, **RUN))
        trace = None if not chunks else chunks
    return tele, trace


class TestGenerationCounters:
    @pytest.mark.parametrize("engine", ("compiled", "reference"))
    def test_serial_counters(self, ours_model_set, engine):
        tele, trace = _generate_with_telemetry(ours_model_set, "serial", engine)
        assert tele.counters["events_emitted"] == len(trace)
        assert tele.counters["ue_hours"] == POP * RUN["num_hours"]
        assert tele.counters["rng_draws"] > 0
        assert "generate" in tele.spans
        assert tele.gauges.get("peak_rss_bytes", 0) > 0

    @pytest.mark.parametrize("engine", ("compiled", "reference"))
    def test_parallel_agrees_with_serial(self, ours_model_set, engine):
        serial, _ = _generate_with_telemetry(ours_model_set, "serial", engine)
        par, _ = _generate_with_telemetry(ours_model_set, "parallel", engine)
        for counter in ("events_emitted", "ue_hours", "rng_draws"):
            assert par.counters[counter] == serial.counters[counter], counter
        assert par.gauges["active_workers"] >= 1

    @pytest.mark.parametrize("engine", ("compiled", "reference"))
    def test_streaming_agrees_with_serial(self, ours_model_set, engine):
        serial, _ = _generate_with_telemetry(ours_model_set, "serial", engine)
        stream, _ = _generate_with_telemetry(ours_model_set, "stream", engine)
        for counter in ("events_emitted", "ue_hours", "rng_draws"):
            assert stream.counters[counter] == serial.counters[counter], counter

    def test_checkpointed_run_counts_snapshots(self, ours_model_set, tmp_path):
        tele = RunTelemetry()
        TrafficGenerator(ours_model_set).generate(
            POP,
            telemetry=tele,
            checkpoint_path=tmp_path / "ck.npz",
            **RUN,
        )
        # One snapshot before the first hour plus one per completed hour.
        assert tele.counters["checkpoint_snapshots"] == RUN["num_hours"] + 1
        assert tele.counters["checkpoint_bytes"] > 0
        assert "checkpoint" in tele.spans

    def test_mcn_counters(self, ours_model_set):
        trace = TrafficGenerator(ours_model_set).generate(POP, **RUN)
        tele = RunTelemetry()
        report = CoreNetworkSimulator("epc").process(trace, telemetry=tele)
        assert tele.counters["mcn_events"] == report.num_events
        assert tele.counters["mcn_messages"] == report.num_messages
        assert "mcn-drive" in tele.spans

    def test_explicit_telemetry_wins_over_ambient(self, ours_model_set):
        ambient, mine = RunTelemetry(), RunTelemetry()
        with use_telemetry(ambient):
            TrafficGenerator(ours_model_set).generate(
                POP, telemetry=mine, **RUN
            )
        assert mine.counters.get("events_emitted", 0) > 0
        assert ambient.counters == {}


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCliTelemetry:
    def test_generate_writes_report_and_summarize_renders(
        self, ours_model_set, tmp_path, capsys
    ):
        from repro.cli import main

        model_path = tmp_path / "model.json.gz"
        ours_model_set.save(model_path)
        report_path = tmp_path / "telemetry.json"
        assert (
            main(
                [
                    "generate",
                    "--model",
                    str(model_path),
                    "--ues",
                    "20",
                    "--start-hour",
                    str(TRACE_START_HOUR),
                    "--hours",
                    "1",
                    "--seed",
                    "3",
                    "--out",
                    str(tmp_path / "trace.npz"),
                    "--telemetry",
                    str(report_path),
                ]
            )
            == 0
        )
        report = load_report(report_path)
        assert report["run"]["command"] == "generate"
        assert report["counters"]["events_emitted"] > 0

        capsys.readouterr()
        assert main(["telemetry", "summarize", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "events_emitted" in out
        assert "Per-phase breakdown" in out

    def test_summarize_rejects_bad_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            main(["telemetry", "summarize", str(path)])
