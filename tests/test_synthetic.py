"""Synthetic corpus: class structure, murmur band separability, WAV rendering."""

import numpy as np
import pytest

from qivcnet.dataio import iter_recordings
from qivcnet.errors import DataError
from qivcnet.preprocess import SEGMENT_LENGTH, preprocess_recording
from qivcnet.rng import Rng
from qivcnet.synthetic import (
    SYNTH_RATE,
    _bandlimited_noise,
    make_dataset,
    synth_recording,
    write_wav_dataset,
)


def _band_energy_fraction(values, fs, low=150.0, high=350.0):
    spectrum = np.abs(np.fft.rfft(values)) ** 2
    freqs = np.fft.rfftfreq(len(values), d=1.0 / fs)
    band = spectrum[(freqs >= low) & (freqs <= high)].sum()
    return band / spectrum.sum()


def test_bandlimited_noise_unit_rms_and_band():
    noise = _bandlimited_noise(4000, SYNTH_RATE, 150.0, 350.0, Rng(3))
    assert np.sqrt(np.mean(noise ** 2)) == pytest.approx(1.0, rel=1e-12)
    assert _band_energy_fraction(noise, SYNTH_RATE) > 0.999


def test_bandlimited_noise_empty_band_rejected():
    # bins sit every 2 Hz for n=1000 at 2 kHz; (990.3, 991.7) misses them all
    with pytest.raises(DataError):
        _bandlimited_noise(1000, SYNTH_RATE, 990.3, 991.7, Rng(0))


def test_recording_basics():
    rec = synth_recording("a", "normal", Rng(1))
    assert rec.sample_rate == SYNTH_RATE
    assert len(rec.samples) == int(4.0 * SYNTH_RATE)
    assert rec.label == "normal"
    assert np.all(np.isfinite(rec.samples))


def test_recording_deterministic_and_varied():
    a = synth_recording("a", "abnormal", Rng(7))
    b = synth_recording("a", "abnormal", Rng(7))
    c = synth_recording("a", "abnormal", Rng(8))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_murmur_band_separates_classes():
    # the murmur burst puts substantial 150-350 Hz energy into abnormal
    # recordings; normal recordings keep almost none beyond the noise floor
    normal = [_band_energy_fraction(
        synth_recording(f"n{i}", "normal", Rng(100 + i)).samples, SYNTH_RATE)
        for i in range(10)]
    abnormal = [_band_energy_fraction(
        synth_recording(f"a{i}", "abnormal", Rng(200 + i)).samples, SYNTH_RATE)
        for i in range(10)]
    assert max(normal) < 0.15
    assert min(abnormal) > 0.25


def test_murmur_survives_preprocessing():
    # regression guard: the murmur must still dominate the band after the
    # band-pass/resample chain, otherwise the classes are indistinguishable
    def seg_fraction(label, seed):
        rec = synth_recording("x", label, Rng(seed))
        segs, _ = preprocess_recording(rec)
        return _band_energy_fraction(segs[0].values, SEGMENT_LENGTH / 4.0)

    normal = [seg_fraction("normal", 300 + i) for i in range(5)]
    abnormal = [seg_fraction("abnormal", 400 + i) for i in range(5)]
    assert max(normal) < min(abnormal)


def test_make_dataset_balanced_and_sized():
    segs = make_dataset(10, Rng(0))
    assert len(segs) == 10
    labels = [s.label for s in segs]
    assert labels.count("normal") == 5
    assert labels.count("abnormal") == 5
    for seg in segs:
        assert len(seg.values) == SEGMENT_LENGTH
        assert np.max(np.abs(seg.values)) == pytest.approx(1.0)
    # one recording per segment at the default duration
    assert len({s.recording_id for s in segs}) == 10


def test_make_dataset_multi_window_recordings():
    segs = make_dataset(4, Rng(0), seconds=8.0)
    assert len(segs) == 4
    assert len({s.recording_id for s in segs}) == 2


def test_make_dataset_rejects_tiny():
    with pytest.raises(DataError):
        make_dataset(1, Rng(0))


def test_write_wav_dataset_round_trip(tmp_path):
    manifest = write_wav_dataset(tmp_path, 4, Rng(9), seconds=6.0)
    assert manifest == tmp_path / "manifest.csv"
    recs = list(iter_recordings(manifest))
    assert len(recs) == 4
    assert [r.label for r in recs] == ["normal", "abnormal", "normal", "abnormal"]
    for rec in recs:
        assert rec.sample_rate == 4000.0
        assert len(rec.samples) == int(6.0 * 4000.0)
        # rendered near but not at full scale
        assert 0.85 <= np.max(np.abs(rec.samples)) <= 0.91


def test_wav_dataset_classes_separable_after_ingest(tmp_path):
    manifest = write_wav_dataset(tmp_path, 6, Rng(2), seconds=4.0)
    fractions = {}
    for rec in iter_recordings(manifest):
        fractions.setdefault(rec.label, []).append(
            _band_energy_fraction(rec.samples, rec.sample_rate))
    assert max(fractions["normal"]) < min(fractions["abnormal"])
