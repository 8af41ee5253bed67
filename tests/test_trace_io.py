"""Tests for trace serialization (repro.trace.io)."""

import csv
import itertools
import os
import zipfile

import numpy as np
import pytest

from repro.trace import (
    DeviceType,
    EventType,
    Trace,
    read_csv,
    read_npz,
    write_csv,
    write_npz,
)
from repro.trace.io import write_npz_arrays

from conftest import make_trace

P = DeviceType.PHONE
E = EventType


@pytest.fixture()
def sample():
    return make_trace(
        [
            (1, 0.123, E.ATCH, P),
            (1, 10.5, E.SRV_REQ, P),
            (2, 3.004, E.HO, DeviceType.CONNECTED_CAR),
        ]
    )


class TestCsv:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        back = read_csv(path)
        assert back == sample

    def test_header_written(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "ue_id,time,event,device"

    def test_uses_protocol_names(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        body = path.read_text()
        assert "SRV_REQ" in body
        assert "CONNECTED_CAR" in body

    def test_millisecond_precision_preserved(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        back = read_csv(path)
        assert back.times[0] == pytest.approx(0.123, abs=1e-9)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ue_id,time,event,device\n1,2.0,ATCH\n")
        with pytest.raises(ValueError, match="4 columns"):
            read_csv(path)

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(Trace.empty(), path)
        assert len(read_csv(path)) == 0


class TestNpz:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path)
        back = read_npz(path)
        assert back == sample

    def test_exact_float_preservation(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path)
        back = read_npz(path)
        assert np.array_equal(back.times, sample.times)

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        write_npz(Trace.empty(), path)
        assert len(read_npz(path)) == 0


class TestNpzFormat:
    """The archive stays a plain ``.npz``: ours and numpy's read both ways."""

    COLUMNS = ("ue_ids", "times", "event_types", "device_types")

    @pytest.mark.parametrize(
        "compress, compress_type",
        [(True, zipfile.ZIP_DEFLATED), (False, zipfile.ZIP_STORED)],
    )
    def test_members_are_npy_files_a_bare_np_load_reads(
        self, sample, tmp_path, compress, compress_type
    ):
        path = tmp_path / "trace.npz"
        write_npz(sample, path, compress=compress)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert sorted(i.filename for i in infos) == sorted(
            f"{name}.npy" for name in self.COLUMNS
        )
        assert {i.compress_type for i in infos} == {compress_type}
        with np.load(path) as data:
            for name in self.COLUMNS:
                assert np.array_equal(data[name], getattr(sample, name))

    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("empty", [False, True])
    def test_all_columns_roundtrip_exactly(
        self, sample, tmp_path, compress, mmap, empty
    ):
        trace = Trace.empty() if empty else sample
        path = tmp_path / "trace.npz"
        write_npz(trace, path, compress=compress)
        back = read_npz(path, mmap=mmap)
        for name in self.COLUMNS:
            ours, theirs = getattr(back, name), getattr(trace, name)
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_numpy_savez_compressed_file_still_loads(self, sample, tmp_path, mmap):
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path, **{name: getattr(sample, name) for name in self.COLUMNS}
        )
        assert read_npz(path, mmap=mmap) == sample

    def test_missing_suffix_appended_like_np_savez(self, sample, tmp_path):
        write_npz(sample, tmp_path / "trace")
        assert os.listdir(tmp_path) == ["trace.npz"]
        assert read_npz(tmp_path / "trace.npz") == sample


class TestAtomicWrite:
    """A write that fails part-way leaves the old file, and no temp file."""

    @pytest.fixture()
    def other(self):
        return make_trace([(7, 1.0, E.TAU, P), (8, 2.0, E.S1_CONN_REL, P)])

    @pytest.mark.parametrize("compress", [True, False])
    def test_failed_npz_write_keeps_existing_file(
        self, sample, other, tmp_path, monkeypatch, compress
    ):
        path = tmp_path / "trace.npz"
        write_npz(sample, path)
        before = path.read_bytes()
        calls = itertools.count()
        write_array = np.lib.format.write_array

        def failing(fp, array, *args, **kwargs):
            if next(calls) == 2:  # after two of the four columns
                raise OSError("disk full")
            return write_array(fp, array, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            write_npz(other, path, compress=compress)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["trace.npz"]

    def test_failed_csv_write_keeps_existing_file(
        self, sample, other, tmp_path, monkeypatch
    ):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        before = path.read_bytes()
        real_writer = csv.writer

        class Failing:
            def __init__(self, fh):
                self._writer = real_writer(fh)
                self._rows = 0

            def writerow(self, row):
                if self._rows == 2:
                    raise OSError("disk full")
                self._rows += 1
                return self._writer.writerow(row)

        monkeypatch.setattr(csv, "writer", Failing)
        with pytest.raises(OSError, match="disk full"):
            write_csv(other, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_interrupt_is_not_swallowed(self, tmp_path):
        path = tmp_path / "arrays.npz"

        class Exploding:
            def __array__(self, dtype=None, copy=None):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_npz_arrays(path, {"a": np.arange(3), "b": Exploding()})
        assert os.listdir(tmp_path) == []

    def test_file_mode_matches_plain_open(self, sample, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        path = tmp_path / "trace.npz"
        write_npz(sample, path)
        assert path.stat().st_mode == plain.stat().st_mode


class TestNpzMmap:
    def test_uncompressed_roundtrip_is_memory_mapped(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path, compress=False)
        back = read_npz(path, mmap=True)
        assert back == sample
        # The Trace constructor strips the memmap subclass but keeps the
        # mapping alive (and copy-free) as each column's base.
        assert isinstance(back.times.base, np.memmap)

    def test_compressed_falls_back_to_full_read(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path, compress=True)
        back = read_npz(path, mmap=True)
        assert back == sample
        assert not isinstance(back.times.base, np.memmap)

    def test_mmap_false_matches_default_reader(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path, compress=False)
        assert read_npz(path, mmap=False) == sample

    def test_empty_trace_mmap(self, tmp_path):
        path = tmp_path / "empty.npz"
        write_npz(Trace.empty(), path, compress=False)
        assert len(read_npz(path, mmap=True)) == 0

    def test_exact_float_preservation(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path, compress=False)
        back = read_npz(path, mmap=True)
        assert np.array_equal(back.times, sample.times)


class TestContentHash:
    def test_stable_across_roundtrip(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path, compress=False)
        assert read_npz(path, mmap=True).content_hash() == sample.content_hash()

    def test_cached_per_instance(self, sample):
        assert sample.content_hash() is sample.content_hash()

    def test_differs_on_content_change(self, sample):
        shifted = Trace(
            sample.ue_ids, sample.times + 1.0,
            sample.event_types, sample.device_types,
        )
        assert shifted.content_hash() != sample.content_hash()


class TestNonFiniteTimestamps:
    """Readers reject NaN / inf timestamps, naming how many and where."""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv(self, bad, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ue_id,time,event,device\n"
            "1,0.5,ATCH,PHONE\n"
            f"1,{bad},SRV_REQ,PHONE\n"
        )
        with pytest.raises(ValueError, match="1 non-finite timestamp.*first at row 1"):
            read_csv(path)

    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_npz(self, compress, mmap, tmp_path):
        path = tmp_path / "bad.npz"
        save = np.savez_compressed if compress else np.savez
        save(
            path,
            ue_ids=np.array([1, 1, 2], dtype=np.int64),
            times=np.array([0.5, np.inf, np.nan]),
            event_types=np.array([0, 2, 2], dtype=np.int8),
            device_types=np.zeros(3, dtype=np.int8),
        )
        with pytest.raises(ValueError, match="2 non-finite timestamp.*first at row 1"):
            read_npz(path, mmap=mmap)


class TestUeWithTwoDeviceTypes:
    """Readers reject a UE whose rows carry two device types."""

    def test_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "ue_id,time,event,device\n"
            "1,0.5,ATCH,PHONE\n"
            "2,0.7,ATCH,TABLET\n"
            "1,1.5,SRV_REQ,CONNECTED_CAR\n"
        )
        with pytest.raises(ValueError, match="UE 1 has more than one device type"):
            read_csv(path)

    @pytest.mark.parametrize("compress", [True, False])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_npz(self, compress, mmap, tmp_path):
        path = tmp_path / "bad.npz"
        save = np.savez_compressed if compress else np.savez
        save(
            path,
            ue_ids=np.array([1, 2, 1], dtype=np.int64),
            times=np.array([0.5, 0.7, 1.5]),
            event_types=np.array([0, 0, 2], dtype=np.int8),
            device_types=np.array([0, 2, 1], dtype=np.int8),
        )
        with pytest.raises(
            ValueError, match=r"UE 1 has more .*\(row 0: 0, row 2: 1\)"
        ):
            read_npz(path, mmap=mmap)
