"""WAV ingest, manifests, and the binary segment cache."""

import struct
import tracemalloc
import wave

import numpy as np
import pytest

from qivcnet.dataio import (
    iter_recordings,
    load_manifest,
    load_segment_cache,
    read_wav,
    save_segment_cache,
    write_csv,
)
from qivcnet.errors import DataError
from qivcnet.preprocess import SEGMENT_LENGTH, Segment
from qivcnet.rng import Rng


def _write_wav(path, samples, rate=4000, channels=1):
    pcm = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    if channels > 1:
        pcm = np.repeat(pcm, channels)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(pcm.tobytes())


def _segments(n):
    rng = Rng(0)
    return [Segment(values=rng.normal((SEGMENT_LENGTH,)).astype(np.float32).astype(np.float64),
                    label="abnormal" if i % 2 else "normal",
                    recording_id=f"rec{i:03d}", window_index=i)
            for i in range(n)]


# --------------------------------------------------------------------- wav

def test_wav_round_trip(tmp_path):
    t = np.arange(4000) / 4000.0
    x = 0.5 * np.sin(2 * np.pi * 50 * t)
    path = tmp_path / "a.wav"
    _write_wav(path, x)
    samples, rate = read_wav(path)
    assert rate == 4000.0
    assert len(samples) == 4000
    # one quantization step plus the 32767/32768 write/read scale mismatch
    assert np.max(np.abs(samples - x)) < 2.0 / 32768.0


def test_wav_stereo_uses_first_channel(tmp_path, capsys):
    path = tmp_path / "st.wav"
    _write_wav(path, np.linspace(-0.5, 0.5, 100), channels=2)
    samples, _ = read_wav(path)
    assert len(samples) == 100
    assert "channel 0" in capsys.readouterr().err


def test_wav_shorter_than_its_header_loads_with_a_warning(tmp_path, capsys):
    path = tmp_path / "short.wav"
    _write_wav(path, np.linspace(-0.5, 0.5, 4000))
    samples, _ = read_wav(path)
    assert len(samples) == 4000
    assert capsys.readouterr().err == ""
    path.write_bytes(path.read_bytes()[:-2000])  # 1000 whole frames gone
    samples, _ = read_wav(path)
    assert len(samples) == 3000
    assert capsys.readouterr().err == (
        f"warning: {path} holds 3000 of the 4000 frames its header declares\n")


def test_wav_missing_and_garbage(tmp_path):
    with pytest.raises(DataError):
        read_wav(tmp_path / "nope.wav")
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a riff file")
    with pytest.raises(DataError):
        read_wav(bad)


def test_wav_rejects_wrong_sample_width(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(1)
        wav.setframerate(4000)
        wav.writeframes(bytes(100))
    with pytest.raises(DataError):
        read_wav(path)


def test_wav_rejects_empty(tmp_path):
    path = tmp_path / "e.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(4000)
    with pytest.raises(DataError):
        read_wav(path)


# ---------------------------------------------------------------- manifest

def test_manifest_round_trip(tmp_path):
    _write_wav(tmp_path / "x.wav", np.ones(10) * 0.1)
    (tmp_path / "manifest.csv").write_text(
        "recording_id,relative_path,label\nr1,x.wav,normal\n")
    rows = load_manifest(tmp_path / "manifest.csv")
    assert rows == [("r1", tmp_path / "x.wav", "normal")]
    recs = list(iter_recordings(tmp_path / "manifest.csv"))
    assert len(recs) == 1
    assert recs[0].id == "r1"
    assert recs[0].sample_rate == 4000.0


def test_manifest_errors(tmp_path):
    with pytest.raises(DataError):
        load_manifest(tmp_path / "missing.csv")
    p = tmp_path / "m.csv"
    p.write_text("recording_id,label\nr1,normal\n")
    with pytest.raises(DataError):
        load_manifest(p)  # missing relative_path column
    p.write_text("recording_id,relative_path,label\nr1,x.wav,odd\n")
    with pytest.raises(DataError):
        load_manifest(p)  # unknown label
    p.write_text("recording_id,relative_path,label\n")
    with pytest.raises(DataError):
        load_manifest(p)  # no rows
    p.write_text("recording_id,relative_path,label\n\nr1,a.wav,normal,extra\n")
    with pytest.raises(DataError, match="m.csv:3"):
        load_manifest(p)  # a field more than the header, named by its file line


def test_manifest_missing_wav(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("recording_id,relative_path,label\nr1,gone.wav,normal\n")
    with pytest.raises(DataError):
        list(iter_recordings(p))


# ------------------------------------------------------------------- cache

def test_cache_round_trip_exact(tmp_path):
    segs = _segments(7)
    path = tmp_path / "segments.bin"
    save_segment_cache(path, segs)
    back = load_segment_cache(path)
    assert len(back) == 7
    for a, b in zip(segs, back):
        # values were float32-representable to begin with, so exact
        assert np.array_equal(a.values, b.values)
        assert (a.label, a.recording_id, a.window_index) == \
               (b.label, b.recording_id, b.window_index)


def test_cache_deterministic_bytes(tmp_path):
    segs = _segments(3)
    p1, p2, p3 = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "c.bin"
    assert save_segment_cache(p1, segs) == 3
    save_segment_cache(p2, segs)
    # a generator streams to the same bytes, count patched into the header
    assert save_segment_cache(p3, (s for s in segs)) == 3
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_cache_loads_into_one_float32_array(tmp_path):
    segs = _segments(64)
    path = tmp_path / "segments.bin"
    save_segment_cache(path, segs)
    load_segment_cache(path)                       # warm-up
    tracemalloc.start()
    try:
        back = load_segment_cache(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows themselves plus Segment objects; a whole-file read or float64
    # copies would add 512 kB or 1 MB
    assert peak <= 64 * SEGMENT_LENGTH * 4 + 64 * 1024, peak
    base = back[0].values.base
    assert base.shape == (64, SEGMENT_LENGTH) and base.dtype == np.float32
    for i, seg in enumerate(back):
        assert seg.values.dtype == np.float32 and seg.values.base is base
        assert np.shares_memory(seg.values, base[i])


def test_cache_empty_list_round_trips(tmp_path):
    path = tmp_path / "empty.bin"
    save_segment_cache(path, [])
    assert load_segment_cache(path) == []


def test_failed_write_keeps_earlier_cache(tmp_path):
    class FailsAfterTwo(list):
        def __iter__(self):
            yield from list.__iter__(self[:2])
            raise OSError("disk full")

    path = tmp_path / "segments.bin"
    save_segment_cache(path, _segments(3))
    before = path.read_bytes()
    with pytest.raises(OSError):
        save_segment_cache(path, FailsAfterTwo(_segments(5)))
    assert path.read_bytes() == before
    assert len(load_segment_cache(path)) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["segments.bin"]


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(DataError):
        load_segment_cache(path)


def test_cache_truncation(tmp_path):
    segs = _segments(2)
    path = tmp_path / "segments.bin"
    save_segment_cache(path, segs)
    blob = path.read_bytes()
    # the last claims 2**32 - 1 segments; the file size is checked before allocating
    for cut, why in ((blob[:len(blob) - 100], "truncated"), (blob[:17], "truncated"),
                     (blob[:5], "bad magic"),
                     (blob[:6] + struct.pack("<I", 0xFFFFFFFF) + blob[10:], "truncated")):
        (tmp_path / "cut.bin").write_bytes(cut)
        with pytest.raises(DataError, match=why):
            load_segment_cache(tmp_path / "cut.bin")


def test_cache_bad_label_byte(tmp_path):
    path = tmp_path / "segments.bin"
    save_segment_cache(path, _segments(1))
    blob = bytearray(path.read_bytes())
    blob[16] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="bad label byte 7"):
        load_segment_cache(path)


def test_cache_trailing_bytes(tmp_path):
    segs = _segments(1)
    path = tmp_path / "segments.bin"
    save_segment_cache(path, segs)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError):
        load_segment_cache(path)


def test_cache_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_segment_cache(tmp_path / "none.bin")


def test_cache_wrong_version(tmp_path):
    path = tmp_path / "v9.bin"
    path.write_bytes(b"QIVC" + struct.pack("<HII2x", 9, 0, SEGMENT_LENGTH))
    with pytest.raises(DataError):
        load_segment_cache(path)


# --------------------------------------------------------------------- csv

def test_write_csv_repr_floats(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("name", "value"), [("a", 0.1), ("b", 2), ("c", 1.0 / 3.0),
                                        ("d", np.float64(0.5)), ("e", np.int64(7))])
    text = path.read_text()
    assert text.splitlines()[0] == "name,value"
    assert "0.1" in text
    assert repr(1.0 / 3.0) in text
    # repr round-trips exactly
    assert float(text.splitlines()[3].split(",")[1]) == 1.0 / 3.0
    # numpy scalars render like the Python numbers they hold
    assert text.splitlines()[4:] == ["d,0.5", "e,7"]


def test_failed_write_keeps_earlier_csv(tmp_path):
    def fails_after_one():
        yield ("a", 1.0)
        raise OSError("disk full")

    path = tmp_path / "out.csv"
    write_csv(path, ("name", "value"), [("a", 1.0), ("b", 2.0)])
    before = path.read_bytes()
    with pytest.raises(OSError):
        write_csv(path, ("name", "value"), fails_after_one())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_write_csv_deterministic(tmp_path):
    rows = [("x", 1.2345678901234567), ("y", 7)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ("k", "v"), rows)
    write_csv(p2, ("k", "v"), rows)
    assert p1.read_bytes() == p2.read_bytes()
