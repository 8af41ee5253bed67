"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.model import ModelSet
from repro.trace import read_npz


@pytest.fixture()
def workspace(tmp_path, ground_truth_trace, ours_model_set):
    """A tmp dir pre-seeded with a trace and a fitted model."""
    from repro.trace import write_npz

    trace_path = tmp_path / "real.npz"
    write_npz(ground_truth_trace, trace_path)
    model_path = tmp_path / "model.json.gz"
    ours_model_set.save(model_path)
    return tmp_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "simulate", "fit", "generate", "inspect", "validate",
            "scale5g", "gof", "mme", "dot",
        ):
            args = parser.parse_args(_minimal_args(command))
            assert args.command == command


def _minimal_args(command):
    stubs = {
        "simulate": ["simulate", "--ues", "1", "--out", "x.npz"],
        "fit": ["fit", "--trace", "x.npz", "--out", "m.json"],
        "generate": ["generate", "--model", "m.json", "--ues", "1", "--out", "y.npz"],
        "inspect": ["inspect", "--model", "m.json"],
        "validate": ["validate", "--real", "a.npz", "--synthesized", "b.npz"],
        "scale5g": ["scale5g", "--model", "m.json", "--mode", "sa", "--out", "n.json"],
        "gof": ["gof", "--trace", "x.npz"],
        "mme": ["mme", "--trace", "x.npz"],
        "dot": ["dot"],
    }
    return stubs[command]


class TestSimulate:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        rc = main(
            [
                "simulate", "--phones", "5", "--tablets", "2",
                "--hours", "1", "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        trace = read_npz(out)
        assert trace.num_ues <= 7
        assert "wrote" in capsys.readouterr().out

    def test_rejects_conflicting_population(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--ues", "5", "--phones", "2",
                 "--out", str(tmp_path / "t.npz")]
            )

    def test_rejects_missing_population(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "t.npz")])

    def test_rejects_unknown_extension(self, tmp_path):
        with pytest.raises(SystemExit, match="extension"):
            main(["simulate", "--ues", "2", "--out", str(tmp_path / "t.parquet")])


class TestFitGenerateRoundtrip:
    def test_fit_then_generate(self, workspace, capsys):
        model_out = workspace / "fitted.json.gz"
        rc = main(
            [
                "fit", "--trace", str(workspace / "real.npz"),
                "--method", "ours", "--theta-n", "25",
                "--start-hour", "17", "--out", str(model_out),
            ]
        )
        assert rc == 0
        assert ModelSet.load(model_out).machine_kind == "two_level"

        trace_out = workspace / "syn.npz"
        rc = main(
            [
                "generate", "--model", str(model_out), "--ues", "30",
                "--start-hour", "18", "--out", str(trace_out),
            ]
        )
        assert rc == 0
        assert len(read_npz(trace_out)) > 0

    def test_generate_parallel_flag(self, workspace):
        trace_out = workspace / "syn_par.npz"
        rc = main(
            [
                "generate", "--model", str(workspace / "model.json.gz"),
                "--ues", "20", "--start-hour", "18",
                "--processes", "2", "--out", str(trace_out),
            ]
        )
        assert rc == 0
        serial_out = workspace / "syn_ser.npz"
        main(
            [
                "generate", "--model", str(workspace / "model.json.gz"),
                "--ues", "20", "--start-hour", "18",
                "--out", str(serial_out),
            ]
        )
        assert read_npz(trace_out) == read_npz(serial_out)

    def test_generate_checkpoint_roundtrip(self, workspace):
        model = str(workspace / "model.json.gz")
        plain_out = workspace / "plain.npz"
        main(
            [
                "generate", "--model", model, "--ues", "20",
                "--start-hour", "18", "--hours", "2",
                "--out", str(plain_out),
            ]
        )
        checkpoint = workspace / "run-checkpoint.npz"
        first_out = workspace / "first.npz"
        rc = main(
            [
                "generate", "--model", model, "--ues", "20",
                "--start-hour", "18", "--hours", "2",
                "--checkpoint", str(checkpoint), "--out", str(first_out),
            ]
        )
        assert rc == 0
        assert checkpoint.exists()
        resumed_out = workspace / "resumed.npz"
        rc = main(
            [
                "generate", "--model", model, "--ues", "20",
                "--start-hour", "18", "--hours", "2",
                "--checkpoint", str(checkpoint), "--resume",
                "--out", str(resumed_out),
            ]
        )
        assert rc == 0
        assert read_npz(plain_out) == read_npz(first_out)
        assert read_npz(plain_out) == read_npz(resumed_out)

    def test_resume_requires_checkpoint(self, workspace):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(
                [
                    "generate", "--model", str(workspace / "model.json.gz"),
                    "--ues", "5", "--start-hour", "18", "--resume",
                    "--out", str(workspace / "x.npz"),
                ]
            )


class TestOtherCommands:
    def test_inspect(self, workspace, capsys):
        rc = main(["inspect", "--model", str(workspace / "model.json.gz")])
        assert rc == 0
        assert "predicted events/UE-hour" in capsys.readouterr().out

    def test_validate(self, workspace, capsys):
        syn = workspace / "syn.npz"
        main(
            ["generate", "--model", str(workspace / "model.json.gz"),
             "--ues", "100", "--start-hour", "18", "--out", str(syn)]
        )
        capsys.readouterr()
        rc = main(
            ["validate", "--real", str(workspace / "real.npz"),
             "--synthesized", str(syn)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Breakdown - PHONE" in out

    def test_scale5g(self, workspace, capsys):
        out = workspace / "sa.json.gz"
        rc = main(
            ["scale5g", "--model", str(workspace / "model.json.gz"),
             "--mode", "sa", "--out", str(out)]
        )
        assert rc == 0
        assert ModelSet.load(out).machine_kind == "nr_sa"

    def test_gof(self, workspace, capsys):
        rc = main(
            ["gof", "--trace", str(workspace / "real.npz"),
             "--device", "phone", "--start-hour", "17"]
        )
        assert rc == 0
        assert "GoF pass rates" in capsys.readouterr().out

    def test_mme(self, workspace, capsys):
        rc = main(["mme", "--trace", str(workspace / "real.npz"), "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "protocol violations" in out
        assert "utilization" in out

    def test_dot(self, capsys):
        rc = main(["dot", "--machine", "two_level"])
        assert rc == 0
        assert capsys.readouterr().out.startswith('digraph "LTE-two-level"')


class TestValidate:
    @pytest.fixture()
    def synthesized(self, workspace):
        syn = workspace / "syn.npz"
        main(
            ["generate", "--model", str(workspace / "model.json.gz"),
             "--ues", "100", "--start-hour", "18", "--out", str(syn)]
        )
        return syn

    def _validate(self, real, syn, *extra):
        return main(["validate", "--real", str(real), "--synthesized", str(syn),
                     *extra])

    def test_output_matches_trace_path(self, workspace, synthesized, capsys):
        # With every quantity measurable the output is byte-identical to
        # the tables computed straight from the traces.
        from repro.trace import DeviceType
        from repro.validation import (
            BREAKDOWN_ROWS,
            breakdown_difference,
            breakdown_with_states,
            format_table,
            micro_comparison,
        )

        capsys.readouterr()
        assert self._validate(workspace / "real.npz", synthesized) == 0
        out = capsys.readouterr().out
        real, syn = read_npz(workspace / "real.npz"), read_npz(synthesized)
        expected = []
        for dt in DeviceType:
            if len(real.filter_device(dt)) == 0:
                continue
            real_bd = breakdown_with_states(real, dt, engine="reference")
            diff = breakdown_difference(real, syn, dt, engine="reference")
            rows = [[r, f"{100 * real_bd[r]:.1f}%", f"{100 * diff[r]:+.1f}%"]
                    for r in BREAKDOWN_ROWS]
            expected.append(format_table(["Event", "Real", "Diff"], rows,
                                         title=f"Breakdown - {dt.name}"))
            micro = micro_comparison(real, syn, dt, engine="reference")
            expected.append(format_table(
                ["Quantity", "max y-distance"],
                [[k, f"{100 * v:.1f}%"] for k, v in micro.items()],
            ))
            expected.append("")
        assert out == "\n".join(expected) + "\n"

    def test_measurable_rows_kept_when_one_is_skipped(self, workspace, capsys):
        # Regression: one unmeasurable quantity used to discard the whole
        # micro table.  No UE here closes an IDLE sojourn.
        from repro.trace import DeviceType, EventType, write_npz

        from conftest import make_trace

        P, E = DeviceType.PHONE, EventType
        real = workspace / "no_idle.npz"
        write_npz(make_trace([
            (1, 100.0, E.SRV_REQ, P),
            (1, 160.0, E.S1_CONN_REL, P),
            (2, 200.0, E.SRV_REQ, P),
            (2, 290.0, E.S1_CONN_REL, P),
        ]), real)
        assert self._validate(real, workspace / "real.npz") == 0
        out = capsys.readouterr().out
        micro_table = out.split("Quantity")[1].split("(microscopic")[0]
        quantities = [line.split()[0] for line in micro_table.splitlines()
                      if line.split()[:1] in (["SRV_REQ"], ["S1_CONN_REL"],
                                              ["CONNECTED"], ["IDLE"])]
        assert quantities == ["SRV_REQ", "S1_CONN_REL", "CONNECTED"]
        assert ("(microscopic comparison skipped for IDLE: no complete IDLE "
                "sojourns for PHONE in one of the traces)") in out

    def test_telemetry_counts_one_replay_per_cohort(self, workspace, synthesized,
                                                   tmp_path, capsys):
        import json

        from repro.telemetry import validate_report
        from repro.trace import DeviceType

        path = tmp_path / "validate_tele.json"
        assert self._validate(workspace / "real.npz", synthesized,
                              "--telemetry", str(path)) == 0
        assert f"telemetry report -> {path}" in capsys.readouterr().out
        report = json.loads(path.read_text())
        validate_report(report)
        assert report["run"]["command"] == "validate"
        assert {"trace-load", "validate-profile", "validate-metrics"} <= set(
            report["spans"]
        )
        real, syn = read_npz(workspace / "real.npz"), read_npz(synthesized)
        present = [dt for dt in DeviceType if len(real.filter_device(dt))]
        assert all(len(syn.filter_device(dt)) for dt in present)
        assert report["counters"]["validate_replays"] == 2 * len(present)
        assert report["counters"]["validate_events"] == len(real) + len(syn)


class TestExtendedCommands:
    def test_core(self, workspace, capsys):
        rc = main(
            ["core", "--trace", str(workspace / "real.npz"),
             "--core", "epc", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "MME" in out

    def test_core_5gc(self, workspace, capsys):
        rc = main(
            ["core", "--trace", str(workspace / "real.npz"), "--core", "5gc"]
        )
        assert rc == 0
        assert "AMF" in capsys.readouterr().out

    def test_sessions(self, workspace, capsys):
        rc = main(["sessions", "--trace", str(workspace / "real.npz")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sessions" in out
        assert "PHONE" in out

    def test_hurst(self, workspace, capsys):
        rc = main(["hurst", "--trace", str(workspace / "real.npz")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "variance-time" in out
        assert "verdict" in out

    def test_check_clean_model(self, workspace, capsys):
        rc = main(["check", "--model", str(workspace / "model.json.gz")])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_anonymize(self, workspace, capsys):
        out = workspace / "anon.npz"
        rc = main(
            ["anonymize", "--trace", str(workspace / "real.npz"),
             "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        original = read_npz(workspace / "real.npz")
        anon = read_npz(out)
        assert len(anon) == len(original)
        assert anon != original  # ids and epoch moved

    def test_evaluate(self, workspace, capsys):
        rc = main(
            ["evaluate", "--train", str(workspace / "real.npz"),
             "--real", str(workspace / "real.npz"),
             "--methods", "ours", "--theta-n", "25",
             "--train-start-hour", "17", "--hour", "17", "--ues", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Macroscopic breakdown" in out
        assert "winner" in out


class TestFitFlags:
    def _fit_args(self, workspace, out, extra):
        return [
            "fit", "--trace", str(workspace / "real.npz"),
            "--theta-n", "25", "--start-hour", "17",
            "--out", str(out), *extra,
        ]

    def test_engines_produce_equal_models(self, workspace):
        ref_out = workspace / "ref.json.gz"
        comp_out = workspace / "comp.json.gz"
        assert main(self._fit_args(
            workspace, ref_out, ["--engine", "reference", "--no-cache"]
        )) == 0
        assert main(self._fit_args(
            workspace, comp_out, ["--engine", "compiled", "--no-cache"]
        )) == 0
        assert (
            ModelSet.load(ref_out).to_dict() == ModelSet.load(comp_out).to_dict()
        )

    def test_second_fit_is_a_cache_hit(self, workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold_out = workspace / "cold.json.gz"
        warm_out = workspace / "warm.json.gz"
        assert main(self._fit_args(
            workspace, cold_out, ["--cache-dir", str(cache)]
        )) == 0
        out = capsys.readouterr().out
        assert "(cache hit)" not in out
        assert main(self._fit_args(
            workspace, warm_out, ["--cache-dir", str(cache)]
        )) == 0
        out = capsys.readouterr().out
        assert "(cache hit)" in out
        assert (
            ModelSet.load(cold_out).to_dict() == ModelSet.load(warm_out).to_dict()
        )

    def test_telemetry_report_written(self, workspace, tmp_path):
        import json

        report_path = tmp_path / "fit_tele.json"
        assert main(self._fit_args(
            workspace, workspace / "tele.json.gz",
            ["--no-cache", "--telemetry", str(report_path)],
        )) == 0
        report = json.loads(report_path.read_text())
        assert report["run"]["command"] == "fit"
        assert report["run"]["engine"] == "compiled"
        assert report["counters"]["segments_replayed"] > 0
        assert report["counters"]["transitions_counted"] > 0

    @pytest.mark.slow
    def test_processes_flag_matches_serial(self, workspace):
        par_out = workspace / "par.json.gz"
        ser_out = workspace / "ser.json.gz"
        assert main(self._fit_args(
            workspace, par_out, ["--no-cache", "--processes", "2"]
        )) == 0
        assert main(self._fit_args(workspace, ser_out, ["--no-cache"])) == 0
        assert (
            ModelSet.load(par_out).to_dict() == ModelSet.load(ser_out).to_dict()
        )
