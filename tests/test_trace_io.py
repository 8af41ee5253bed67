"""Tests for trace serialization (repro.trace.io)."""

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
