"""Checkpoint/resume and fault-tolerance tests.

The contract under test: a run interrupted at *any* point and resumed
from its checkpoint produces output bit-identical to an uninterrupted
run with the same arguments — across the serial, streaming, and
parallel entry points — and worker failures in
``generate_parallel`` are either masked transparently or reported as a
structured :class:`ChunkFailedError`.
"""

import itertools
import json
import os
import zipfile

import numpy as np
import pytest

from repro.generator import (
    CheckpointError,
    CheckpointMismatchError,
    ChunkFailedError,
    GenerationCheckpoint,
    TrafficGenerator,
    generate_parallel,
    stream_events,
)
from repro.generator.compiled import CompiledPopulation
from repro.generator.parallel import FAULT_ENV
from repro.trace import DeviceType

from conftest import TRACE_START_HOUR

#: The generation engine.  Tests that once ran per engine keep the
#: parametrization, so their ids stay stable.
ENGINES = ("compiled",)

RUN = dict(start_hour=TRACE_START_HOUR, num_hours=3, seed=7)
POP = 40


def assert_traces_equal(a, b):
    assert np.array_equal(a.ue_ids, b.ue_ids)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.event_types, b.event_types)
    assert np.array_equal(a.device_types, b.device_types)


@pytest.fixture(scope="module")
def generator(ours_model_set):
    return TrafficGenerator(ours_model_set)


@pytest.fixture(scope="module")
def baseline(generator):
    """The uninterrupted serial trace — the bit-identity oracle."""
    return generator.generate(POP, **RUN)


def _interrupted(generator, path, monkeypatch):
    """Run until the second hour's snapshot, then kill the run."""
    original = CompiledPopulation.advance_hour
    calls = itertools.count()

    def dying(self, *args, **kwargs):
        if next(calls) >= 1:
            raise KeyboardInterrupt
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CompiledPopulation, "advance_hour", dying)
    with pytest.raises(KeyboardInterrupt):
        generator.generate(POP, checkpoint_path=path, **RUN)
    monkeypatch.setattr(CompiledPopulation, "advance_hour", original)


class TestModelHash:
    def test_stable(self, ours_model_set):
        assert ours_model_set.content_hash() == ours_model_set.content_hash()

    def test_roundtrip_preserves_hash(self, ours_model_set):
        from repro.model import ModelSet

        clone = ModelSet.from_dict(ours_model_set.to_dict())
        assert clone.content_hash() == ours_model_set.content_hash()

    def test_differs_across_model_sets(self, ours_model_set, base_model_set):
        assert ours_model_set.content_hash() != base_model_set.content_hash()


class TestSerialCheckpoint:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpointed_run_matches_plain(
        self, generator, baseline, engine, tmp_path
    ):
        path = tmp_path / "run.npz"
        trace = generator.generate(
            POP, checkpoint_path=path, **RUN
        )
        assert_traces_equal(baseline, trace)
        assert path.exists()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_interrupt_and_resume_bit_identical(
        self, generator, baseline, engine, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.npz"
        # Kill the run partway through the second hour.
        _interrupted(generator, path, monkeypatch)

        resumed = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, resumed)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_resume_after_completion(
        self, generator, baseline, engine, tmp_path
    ):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        again = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, again)

    def test_checkpoint_written_before_first_hour(
        self, generator, tmp_path, monkeypatch
    ):
        """A kill before any hour completes still leaves a resumable file."""
        path = tmp_path / "run.npz"

        def dying(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CompiledPopulation, "advance_hour", dying)
        with pytest.raises(KeyboardInterrupt):
            generator.generate(POP, checkpoint_path=path, **RUN)
        assert path.exists()
        assert GenerationCheckpoint.load(path).hours_done == 0

    def test_mismatched_seed_rejected(self, generator, tmp_path):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            generator.generate(
                POP,
                checkpoint_path=path,
                resume=True,
                start_hour=RUN["start_hour"],
                num_hours=RUN["num_hours"],
                seed=RUN["seed"] + 1,
            )

    def test_mismatched_model_rejected(
        self, generator, base_model_set, tmp_path
    ):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        other = TrafficGenerator(base_model_set)
        with pytest.raises(CheckpointMismatchError, match="model_hash"):
            other.generate(POP, checkpoint_path=path, resume=True, **RUN)

    def test_mismatch_message_names_all_fields(self, generator, tmp_path):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            generator.generate(
                POP,
                checkpoint_path=path,
                resume=True,
                start_hour=RUN["start_hour"] + 1,
                num_hours=RUN["num_hours"] + 1,
                seed=RUN["seed"],
            )
        message = str(excinfo.value)
        assert "start_hour" in message and "num_hours" in message

    def test_resume_without_checkpoint_path(self, generator):
        with pytest.raises(ValueError, match="checkpoint_path"):
            generator.generate(POP, resume=True, **RUN)

    def test_missing_file(self, generator, tmp_path):
        with pytest.raises(CheckpointError):
            generator.generate(
                POP,
                checkpoint_path=tmp_path / "nope.npz",
                resume=True,
                **RUN,
            )

    def test_garbage_file(self, generator, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError):
            generator.generate(POP, checkpoint_path=path, resume=True, **RUN)


class TestCheckpointFile:
    """The checkpoint stays a plain ``.npz`` that is replaced atomically."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_numpy_savez_compressed_checkpoint_resumes_bit_identical(
        self, generator, baseline, engine, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.npz"
        _interrupted(generator, path, monkeypatch)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        with np.load(path, allow_pickle=False) as data:
            members = {name: data[name] for name in data.files}
        np.savez_compressed(path, **members)

        resumed = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, resumed)

    def test_failed_save_keeps_previous_checkpoint(
        self, generator, baseline, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.npz"
        _interrupted(generator, path, monkeypatch)
        before = path.read_bytes()
        checkpoint = GenerationCheckpoint.load(path)
        checkpoint.hours_done += 1
        write_array = np.lib.format.write_array
        calls = itertools.count()

        def failing(fp, array, *args, **kwargs):
            if next(calls) == 1:
                raise OSError("disk full")
            return write_array(fp, array, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["run.npz"]
        resumed = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, resumed)


def _rewrite_meta(path, key_changes=(), **meta_changes):
    """Edit the metadata of the checkpoint at ``path`` in place.

    ``key_changes`` maps run-key fields to new values (``None`` deletes
    the field).  The file is written back with ``np.savez_compressed``,
    as checkpoints once were.
    """
    with np.load(path, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    meta = json.loads(str(members["meta"][()]))
    for name, value in dict(key_changes).items():
        if value is None:
            meta["key"].pop(name)
        else:
            meta["key"][name] = value
    meta.update(meta_changes)
    members["meta"] = np.asarray(json.dumps(meta))
    np.savez_compressed(path, **members)


def _as_engine_keyed(path, engine="compiled"):
    """Turn a checkpoint into one written while runs still named their
    engine: the key carries ``engine`` and the meta a ``sessions`` slot."""
    _rewrite_meta(path, {"engine": engine}, sessions=None)


class TestCheckpointRunKey:
    """Loading the run key: malformed keys and engine-keyed checkpoints."""

    @pytest.fixture
    def checkpoint_path(self, generator, tmp_path):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        return path

    def test_unknown_key_field_is_a_checkpoint_error(self, checkpoint_path):
        _rewrite_meta(checkpoint_path, {"future_field": 1})
        with pytest.raises(CheckpointError, match="future_field"):
            GenerationCheckpoint.load(checkpoint_path)

    def test_missing_key_field_is_a_checkpoint_error(self, checkpoint_path):
        _rewrite_meta(checkpoint_path, {"seed": None})
        with pytest.raises(CheckpointError, match="seed"):
            GenerationCheckpoint.load(checkpoint_path)

    def test_non_mapping_key_is_a_checkpoint_error(self, checkpoint_path):
        _rewrite_meta(checkpoint_path, key=["generate"])
        with pytest.raises(CheckpointError, match="run key"):
            GenerationCheckpoint.load(checkpoint_path)

    def test_reference_engine_key_rejected_naming_engine(
        self, generator, checkpoint_path
    ):
        _as_engine_keyed(checkpoint_path, engine="reference")
        with pytest.raises(CheckpointMismatchError, match="engine"):
            generator.generate(
                POP, checkpoint_path=checkpoint_path, resume=True, **RUN
            )

    def test_engine_keyed_generate_checkpoint_resumes(
        self, generator, baseline, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.npz"
        _interrupted(generator, path, monkeypatch)
        _as_engine_keyed(path)
        assert GenerationCheckpoint.load(path).hours_done == 1
        resumed = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, resumed)

    def test_engine_keyed_stream_checkpoint_resumes(
        self, ours_model_set, tmp_path
    ):
        path = tmp_path / "stream.npz"
        whole = list(stream_events(ours_model_set, POP, **RUN))
        stream = stream_events(
            ours_model_set, POP, checkpoint_path=path, **RUN
        )
        consumed = [next(stream) for _ in range(len(whole) // 2)]
        stream.close()
        _as_engine_keyed(path)
        replay_from = GenerationCheckpoint.load(path).events_emitted
        assert replay_from > 0
        resumed = list(
            stream_events(
                ours_model_set, POP, checkpoint_path=path, resume=True, **RUN
            )
        )
        assert consumed[:replay_from] + resumed == whole

    def test_engine_keyed_parallel_checkpoint_resumes(
        self, ours_model_set, baseline, tmp_path
    ):
        path = tmp_path / "par.npz"

        def bomb(chunk_idx, attempt):
            if chunk_idx == 3:
                raise RuntimeError("interrupted")

        kwargs = dict(processes=1, chunk_size=7, checkpoint_path=path, **RUN)
        with pytest.raises(ChunkFailedError):
            generate_parallel(
                ours_model_set, POP, max_retries=0, fault_hook=bomb, **kwargs
            )
        _as_engine_keyed(path)
        assert len(GenerationCheckpoint.load(path).chunk_columns) == 3
        resumed = generate_parallel(
            ours_model_set, POP, resume=True, **kwargs
        )
        assert_traces_equal(baseline, resumed)


class TestStreamingCheckpoint:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_interrupted_stream_plus_resumed_equals_whole(
        self, ours_model_set, engine, tmp_path
    ):
        """Kill a stream mid-hour; concatenated streams match end to end."""
        path = tmp_path / "stream.npz"
        whole = list(
            stream_events(ours_model_set, POP, **RUN)
        )

        stream = stream_events(
            ours_model_set, POP, checkpoint_path=path, **RUN
        )
        # Consume into the middle of the second hour, then drop the stream
        # (simulating a crash between checkpoints).
        consumed = [next(stream) for _ in range(len(whole) // 2)]
        stream.close()

        # The checkpoint tells the consumer exactly how many of its
        # events precede the resume point.
        replay_from = GenerationCheckpoint.load(path).events_emitted
        assert 0 < replay_from <= len(consumed)

        resumed = list(
            stream_events(
                ours_model_set,
                POP,
                checkpoint_path=path,
                resume=True,
                **RUN,
            )
        )
        assert consumed[:replay_from] + resumed == whole

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stream_checkpoint_written_eagerly(
        self, ours_model_set, engine, tmp_path
    ):
        path = tmp_path / "stream.npz"
        stream = stream_events(
            ours_model_set, POP, checkpoint_path=path, **RUN
        )
        next(stream)  # killed in the very first hour
        stream.close()
        assert GenerationCheckpoint.load(path).events_emitted == 0

    def test_stream_resume_requires_checkpoint_path(self, ours_model_set):
        with pytest.raises(ValueError, match="checkpoint_path"):
            stream_events(ours_model_set, POP, resume=True, **RUN)

    def test_stream_rejects_serial_checkpoint(
        self, generator, ours_model_set, tmp_path
    ):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        with pytest.raises(CheckpointMismatchError, match="kind"):
            next(
                iter(
                    stream_events(
                        ours_model_set,
                        POP,
                        checkpoint_path=path,
                        resume=True,
                        **RUN,
                    )
                )
            )


class TestParallelCheckpoint:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpointed_parallel_matches_serial(
        self, ours_model_set, baseline, engine, tmp_path
    ):
        path = tmp_path / "par.npz"
        trace = generate_parallel(
            ours_model_set,
            POP,
            processes=1,
            chunk_size=7,
            checkpoint_path=path,
            **RUN,
        )
        assert_traces_equal(baseline, trace)

    def test_interrupted_parallel_resumes(
        self, ours_model_set, baseline, tmp_path
    ):
        path = tmp_path / "par.npz"

        def bomb(chunk_idx, attempt):
            if chunk_idx == 3:
                raise RuntimeError("interrupted")

        with pytest.raises(ChunkFailedError):
            generate_parallel(
                ours_model_set,
                POP,
                processes=1,
                chunk_size=7,
                checkpoint_path=path,
                max_retries=0,
                fault_hook=bomb,
                **RUN,
            )
        # Chunks 0-2 are in the checkpoint; the resume regenerates the rest.
        assert len(GenerationCheckpoint.load(path).chunk_columns) == 3
        resumed = generate_parallel(
            ours_model_set,
            POP,
            processes=1,
            chunk_size=7,
            checkpoint_path=path,
            resume=True,
            **RUN,
        )
        assert_traces_equal(baseline, resumed)

    def test_inline_retry_masks_transient_failure(
        self, ours_model_set, baseline
    ):
        failures = {"left": 2}

        def flaky(chunk_idx, attempt):
            if chunk_idx == 1 and failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient")

        trace = generate_parallel(
            ours_model_set,
            POP,
            processes=1,
            chunk_size=7,
            max_retries=2,
            retry_backoff=0.0,
            fault_hook=flaky,
            **RUN,
        )
        assert failures["left"] == 0
        assert_traces_equal(baseline, trace)

    def test_inline_poisoned_chunk_fails_structured(self, ours_model_set):
        def poisoned(chunk_idx, attempt):
            if chunk_idx == 2:
                raise RuntimeError("always broken")

        with pytest.raises(ChunkFailedError) as excinfo:
            generate_parallel(
                ours_model_set,
                POP,
                processes=1,
                chunk_size=7,
                max_retries=1,
                retry_backoff=0.0,
                fault_hook=poisoned,
                **RUN,
            )
        err = excinfo.value
        assert err.ue_range == (14, 21)
        assert err.device_type == DeviceType.PHONE
        assert err.attempts == 2
        assert err.hour_range == (
            RUN["start_hour"],
            RUN["start_hour"] + RUN["num_hours"],
        )
        assert "UEs [14, 21)" in str(err)


@pytest.mark.slow
class TestParallelWorkerCrash:
    """Real multiprocess fault injection via the env knob."""

    def _run(self, model_set, **kwargs):
        return generate_parallel(
            model_set,
            POP,
            processes=2,
            chunk_size=7,
            retry_backoff=0.01,
            **RUN,
            **kwargs,
        )

    def test_killed_worker_recovers_bit_identical(
        self, ours_model_set, baseline, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            FAULT_ENV, f"chunk=2;fails=1;mode=exit;dir={tmp_path}"
        )
        trace = self._run(ours_model_set)
        assert_traces_equal(baseline, trace)
        # Exactly one injected death.
        assert sorted(os.listdir(tmp_path)) == ["fault-2-0"]

    def test_raising_worker_recovers_bit_identical(
        self, ours_model_set, baseline, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            FAULT_ENV, f"chunk=0;fails=2;mode=raise;dir={tmp_path}"
        )
        trace = self._run(ours_model_set, max_retries=2)
        assert_traces_equal(baseline, trace)

    def test_poisoned_raising_chunk_names_itself(
        self, ours_model_set, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            FAULT_ENV, f"chunk=1;fails=99;mode=raise;dir={tmp_path}"
        )
        with pytest.raises(ChunkFailedError) as excinfo:
            self._run(ours_model_set, max_retries=1)
        assert excinfo.value.ue_range == (7, 14)
        assert excinfo.value.device_type == DeviceType.PHONE

    def test_poisoned_crashing_chunk_isolated_and_named(
        self, ours_model_set, tmp_path, monkeypatch
    ):
        """A chunk that always kills its worker is confirmed via the
        single-worker isolation round, never a bare BrokenProcessPool."""
        monkeypatch.setenv(
            FAULT_ENV, f"chunk=0;fails=99;mode=exit;dir={tmp_path}"
        )
        with pytest.raises(ChunkFailedError) as excinfo:
            self._run(ours_model_set, max_retries=1)
        assert excinfo.value.ue_range == (0, 7)
        assert "died" in str(excinfo.value)

    def test_crash_then_resume_from_checkpoint(
        self, ours_model_set, baseline, tmp_path, monkeypatch
    ):
        path = tmp_path / "par.npz"
        monkeypatch.setenv(
            FAULT_ENV, f"chunk=3;fails=99;mode=raise;dir={tmp_path}"
        )
        with pytest.raises(ChunkFailedError):
            self._run(ours_model_set, max_retries=0, checkpoint_path=path)
        monkeypatch.delenv(FAULT_ENV)
        resumed = self._run(
            ours_model_set, checkpoint_path=path, resume=True
        )
        assert_traces_equal(baseline, resumed)
