"""Pipeline-level determinism: one seed, one output file.

Every way of running ``repro generate`` — serial, a process pool, with a
checkpoint, interrupted and resumed — and the streaming generator must
write the *same bytes* for the same seed.  NPZ writes are byte
reproducible (zip members carry a fixed timestamp), so the files are
compared byte for byte, not decoded.
"""

import itertools

import pytest

from repro.cli import main
from repro.generator import stream_events, stream_to_trace
from repro.generator.compiled import CompiledPopulation
from repro.trace import write_npz

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
