"""Checkpoint container: round trips, checksum, corruption handling."""

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from qivcnet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from qivcnet.errors import DataError
from qivcnet.rng import Rng


def _arrays():
    rng = Rng(5)
    return {
        "w0": rng.normal((3, 2, 4)),
        "b0": rng.normal((4,)),
        "scalarish": rng.normal(()),
        "bn.mean": np.zeros(4),
    }


def test_round_trip_arrays_and_metadata(tmp_path):
    path = tmp_path / "ck.bin"
    meta = {"fold_index": 2, "best_val_f1": 0.9375, "tags": ["a", "b"],
            "nested": {"k": 5, "p": 0.05}}
    arrays = _arrays()
    save_checkpoint(path, arrays, meta)
    back, meta_back = load_checkpoint(path)
    assert set(back) == set(arrays)
    for name in arrays:
        assert back[name].shape == arrays[name].shape
        assert np.array_equal(back[name], arrays[name])
        assert back[name].dtype == np.float64
    assert meta_back == meta


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, _arrays(), {"z": 1, "a": 2})
    save_checkpoint(b, _arrays(), {"a": 2, "z": 1})  # key order must not matter
    assert a.read_bytes() == b.read_bytes()


def test_meta_name_reserved(tmp_path):
    with pytest.raises(DataError):
        save_checkpoint(tmp_path / "x.bin", {"meta": np.ones(2)}, {})


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "none.bin")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTACKPT" + bytes(32))
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_crc_detects_corruption(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, _arrays(), {"ok": True})
    blob = bytearray(path.read_bytes())
    flip = len(MAGIC) + 25
    blob[flip] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checksum"):
        load_checkpoint(path)


def _set_version(body):
    body[0:2] = struct.pack("<H", 2)


def _set_first_kind(body):
    # version u16, count u32, then the only entry: name length u16, "meta", kind u8
    body[6 + 2 + len("meta")] = 7


@pytest.mark.parametrize("edit, message", [
    (_set_version, "unsupported checkpoint version 2"),
    (_set_first_kind, "unknown entry kind 7"),
])
def test_well_formed_but_unknown_layout_is_rejected(tmp_path, edit, message):
    # the edited body gets a fresh checksum, so only the layout check can catch it
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {}, {"only": "meta"})
    body = bytearray(path.read_bytes()[len(MAGIC): -4])
    edit(body)
    path.write_bytes(MAGIC + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def _one_entry(name: bytes, rest: bytes) -> bytes:
    """A version-1 body with one entry: its name, then kind and payload bytes."""
    return struct.pack("<HIH", 1, 1, len(name)) + name + rest


@pytest.mark.parametrize("body, message", [
    (_one_entry(b"w", struct.pack("<BBI", 0, 1, 1000) + bytes(16)), "runs past"),
    (_one_entry(b"\xff", struct.pack("<BI", 1, 2) + b"{}"), "malformed"),
    (_one_entry(b"meta", struct.pack("<BI", 1, 3) + b"{x}"), "malformed"),
    (_one_entry(b"meta", struct.pack("<BI", 1, 2) + b"{}") + bytes(8), "end at byte"),
], ids=["array past the body", "name not utf-8", "json that does not parse", "trailing bytes"])
def test_malformed_entries_under_a_valid_checksum_are_rejected(tmp_path, body, message):
    path = tmp_path / "ck.bin"
    path.write_bytes(MAGIC + body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, _arrays(), {"ok": True})
    blob = path.read_bytes()
    for cut in (len(blob) - 9, len(MAGIC) + 3, 4):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_checkpoint(path)


def test_empty_arrays_ok(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {}, {"only": "meta"})
    arrays, meta = load_checkpoint(path)
    assert arrays == {}
    assert meta == {"only": "meta"}


def test_failed_write_keeps_earlier_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, _arrays(), {"epoch": 1})
    before = path.read_bytes()
    real_write = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    later = {name: arr + 1.0 for name, arr in _arrays().items()}
    with pytest.raises(OSError):
        save_checkpoint(path, later, {"epoch": 2})
    monkeypatch.undo()
    assert path.read_bytes() == before
    arrays, meta = load_checkpoint(path)
    assert meta == {"epoch": 1}
    assert np.array_equal(arrays["w0"], _arrays()["w0"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]
