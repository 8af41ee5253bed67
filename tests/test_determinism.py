"""Pipeline-level determinism: one seed, one output file.

Every way of running ``repro generate`` — serial, a process pool, with a
checkpoint, interrupted and resumed — and the streaming generator must
write the *same bytes* for the same seed, as must ``repro simulate`` for
any number of UE-range shard processes.  NPZ writes are byte
reproducible (zip members carry a fixed timestamp), so the files are
compared byte for byte, not decoded.
"""

import itertools

import pytest

from repro.cli import main
from repro.generator import ChunkFailedError, stream_events, stream_to_trace
from repro.generator.parallel import FAULT_ENV
from repro.groundtruth import simulate_ground_truth
from repro.generator.compiled import CompiledPopulation
from repro.trace import DeviceType, write_npz

from conftest import TRACE_START_HOUR

UES = 60
HOURS = 3


@pytest.fixture(scope="module")
def model_path(ours_model_set, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json.gz"
    ours_model_set.save(path)
    return path


@pytest.mark.parametrize("seed", [3, 8])
def test_every_generation_mode_writes_identical_bytes(
    ours_model_set, model_path, seed, tmp_path, monkeypatch
):
    def generate(out, *extra):
        argv = [
            "generate", "--model", str(model_path), "--ues", str(UES),
            "--start-hour", str(TRACE_START_HOUR), "--hours", str(HOURS),
            "--seed", str(seed), "--out", str(tmp_path / out), *extra,
        ]
        assert main(argv) == 0
        return (tmp_path / out).read_bytes()

    outputs = {
        "serial": generate("serial.npz", "--processes", "1"),
        "pool": generate("pool.npz", "--processes", "2"),
        "checkpointed": generate(
            "checkpointed.npz", "--processes", "1",
            "--checkpoint", str(tmp_path / "ck.npz"),
        ),
    }

    # Kill a checkpointed run in its second hour, then resume it.
    original = CompiledPopulation.advance_hour
    calls = itertools.count()

    def dying(self, *args, **kwargs):
        if next(calls) >= 1:
            raise KeyboardInterrupt
        return original(self, *args, **kwargs)

    resume_ck = str(tmp_path / "resume-ck.npz")
    monkeypatch.setattr(CompiledPopulation, "advance_hour", dying)
    with pytest.raises(KeyboardInterrupt):
        generate("interrupted.npz", "--processes", "1", "--checkpoint", resume_ck)
    monkeypatch.setattr(CompiledPopulation, "advance_hour", original)
    assert not (tmp_path / "interrupted.npz").exists()
    outputs["resumed"] = generate(
        "resumed.npz", "--processes", "1", "--checkpoint", resume_ck, "--resume"
    )

    streamed = stream_to_trace(
        stream_events(
            ours_model_set, UES, start_hour=TRACE_START_HOUR,
            num_hours=HOURS, seed=seed,
        )
    )
    write_npz(streamed, tmp_path / "streamed.npz")
    outputs["streamed"] = (tmp_path / "streamed.npz").read_bytes()

    assert len(streamed) > 0
    differing = sorted(
        mode for mode, data in outputs.items() if data != outputs["serial"]
    )
    assert differing == []


@pytest.mark.parametrize("seed", [4, 15])
def test_simulate_writes_identical_bytes_for_any_process_count(seed, tmp_path):
    def simulate(processes):
        out = tmp_path / f"sim-{processes}.npz"
        argv = [
            "simulate", "--ues", "150", "--hours", "2", "--start-hour", "23",
            "--seed", str(seed), "--processes", processes, "--out", str(out),
        ]
        assert main(argv) == 0
        return out.read_bytes()

    serial = simulate("1")
    assert simulate("2") == serial
    assert simulate("0") == serial


@pytest.mark.slow
def test_failing_simulate_shard_names_its_ue_range(tmp_path, monkeypatch):
    # Two workers take 2-UE shares cut inside each device block, so shard
    # 5 is the first two tablets, UEs 10-11.
    monkeypatch.setenv(
        FAULT_ENV, f"chunk=5;fails=99;mode=raise;dir={tmp_path}"
    )
    with pytest.raises(ChunkFailedError) as info:
        simulate_ground_truth(
            {DeviceType.PHONE: 10, DeviceType.TABLET: 6}, 600.0, processes=2
        )
    assert info.value.device_type is DeviceType.TABLET
    assert info.value.ue_range == (10, 12)
    assert "injected fault on chunk 5" in str(info.value)
