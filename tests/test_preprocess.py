"""Preprocessing chain: filter response vs the analytic prototype and vs
scipy's ``sosfiltfilt`` (a test oracle only), windowing, normalization, and
noise injection."""

import numpy as np
import pytest
from scipy import signal

from qivcnet import preprocess
from qivcnet.errors import ConfigError, DataError
from qivcnet.preprocess import (
    BAND_HIGH_HZ,
    BAND_LOW_HZ,
    FILTER_ORDER,
    PAD_LEN,
    SEGMENT_LENGTH,
    Recording,
    RejectedWindow,
    Segment,
    bandpass,
    butter_bandpass_sos,
    finalize_segment,
    inject_noise_snr,
    preprocess_recording,
    segment_windows,
)
from qivcnet.rng import Rng

FS = 4000.0


def _analytic_single_pass_mag(f, fs=FS):
    """Band-pass Butterworth magnitude from the analog prototype.

    The digital filter comes from the bilinear transform with pre-warped
    corners, so its response at f equals the analog prototype evaluated at
    W = 2 fs tan(pi f / fs).
    """
    w = 2.0 * fs * np.tan(np.pi * f / fs)
    w1 = 2.0 * fs * np.tan(np.pi * BAND_LOW_HZ / fs)
    w2 = 2.0 * fs * np.tan(np.pi * BAND_HIGH_HZ / fs)
    ratio = (w * w - w1 * w2) / (w * (w2 - w1))
    return 1.0 / np.sqrt(1.0 + ratio ** (2 * FILTER_ORDER))


def _two_pass_db(f, fs=FS):
    return 20.0 * np.log10(_analytic_single_pass_mag(f, fs) ** 2)


def _rec(samples, fs=FS, label="normal", rid="r0"):
    return Recording(samples=np.asarray(samples, dtype=np.float64),
                     sample_rate=fs, id=rid, label=label)


# ------------------------------------------------------------------ filter

def test_sos_matches_analytic_prototype():
    sos = butter_bandpass_sos(FS)
    freqs = np.array([5.0, 10.0, 25.0, 60.0, 100.0, 250.0, 400.0, 1000.0, 1500.0])
    _, h = signal.sosfreqz(sos, worN=2.0 * np.pi * freqs / FS)
    got = np.abs(h)
    want = _analytic_single_pass_mag(freqs)
    assert np.max(np.abs(got - want)) < 1e-10


def test_sos_is_a_fresh_writable_copy_per_call():
    first = butter_bandpass_sos(FS)
    assert first.flags.writeable
    first[:] = 0.0
    second = butter_bandpass_sos(FS)
    assert second is not first
    assert second.flags.writeable
    assert np.array_equal(second, butter_bandpass_sos(FS))
    # the factorization into sections may differ from scipy's in rounding;
    # the zeros, poles and gain of the transfer function may not
    for fs in (FS, 2000.0):
        z, p, k = signal.sos2zpk(butter_bandpass_sos(fs))
        want_z, want_p, want_k = signal.butter(FILTER_ORDER, [BAND_LOW_HZ, BAND_HIGH_HZ],
                                               btype="bandpass", fs=fs, output="zpk")
        assert np.array_equal(np.sort_complex(z), np.sort_complex(want_z))
        assert np.max(np.abs(np.sort_complex(p) - np.sort_complex(want_p))) < 1e-13
        assert k == pytest.approx(want_k, rel=1e-14)


def _scipy_bandpass(rec):
    sos = signal.butter(FILTER_ORDER, [BAND_LOW_HZ, BAND_HIGH_HZ],
                        btype="bandpass", fs=rec.sample_rate, output="sos")
    return signal.sosfiltfilt(sos, rec.samples, padtype="odd", padlen=PAD_LEN)


# max |bandpass - sosfiltfilt| / max |sosfiltfilt| over random and sine inputs,
# about 2-3x the measured worst case; the rounding grows as the low band edge
# crowds the poles toward z = 1 at high rates, and as the high edge nears
# Nyquist just above 800 Hz
ORACLE_BOUNDS = {800.5: 2e-10, 1000.0: 2e-14, 2000.0: 2e-13, 4000.0: 1e-12,
                 8000.0: 2e-11, 16000.0: 5e-11, 44100.0: 1e-9}


@pytest.mark.parametrize("fs", sorted(ORACLE_BOUNDS))
def test_bandpass_matches_scipy_sosfiltfilt(fs):
    rng = Rng(int(fs))
    whole = 40 * preprocess._BLOCK - 2 * PAD_LEN    # padded to whole filter blocks
    worst = 0.0
    for n in (PAD_LEN + 1, whole - 1, whole + 1, 12_345, int(60 * fs)):
        for x in (rng.normal((n,)), np.sin(2.0 * np.pi * 60.0 * np.arange(n) / fs)):
            rec = _rec(x, fs=fs)
            got, want = bandpass(rec).samples, _scipy_bandpass(rec)
            assert got.shape == want.shape
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert worst <= ORACLE_BOUNDS[fs], worst


@pytest.mark.parametrize("fs", [2000.0, 4000.0, 44100.0])
def test_bandpass_of_silence_is_exactly_zero(fs):
    assert not bandpass(_rec(np.zeros(int(9 * fs) + 7), fs=fs)).samples.any()


def test_two_pass_gain_on_sines():
    t = np.arange(int(16 * FS)) / FS
    for f, lo_db, hi_db in [(100.0, -1.0, 0.01), (10.0, -200.0, -40.0),
                            (1000.0, -200.0, -40.0)]:
        x = np.sin(2.0 * np.pi * f * t)
        y = bandpass(_rec(x)).samples
        mid = slice(len(t) // 4, 3 * len(t) // 4)
        gain_db = 20.0 * np.log10(np.sqrt(np.mean(y[mid] ** 2))
                                  / np.sqrt(np.mean(x[mid] ** 2)))
        assert lo_db <= gain_db <= hi_db
        # and the measured gain agrees with the analytic two-pass value
        assert gain_db == pytest.approx(_two_pass_db(f), abs=0.05)


def test_corner_frequencies_at_minus_six_db_two_pass():
    for f in (BAND_LOW_HZ, BAND_HIGH_HZ):
        assert _two_pass_db(f) == pytest.approx(-20.0 * np.log10(2.0), abs=1e-9)


def test_zero_phase_preserves_symmetry():
    n = 4001
    c = n // 2
    idx = np.arange(n) - c
    x = np.exp(-(idx / 400.0) ** 2) * np.cos(2.0 * np.pi * 80.0 * idx / FS)
    y = bandpass(_rec(x)).samples
    assert np.max(np.abs(y - y[::-1])) < 1e-6 * np.max(np.abs(y))


def test_bandpass_rejects_low_sample_rate():
    with pytest.raises(DataError):
        bandpass(_rec(np.ones(4000), fs=800.0))


def test_bandpass_rejects_short_signal():
    with pytest.raises(DataError):
        bandpass(_rec(np.ones(27)))


def test_recording_validation():
    with pytest.raises(DataError):
        _rec([], fs=FS)
    with pytest.raises(DataError):
        _rec(np.ones(10), fs=0.0)
    with pytest.raises(DataError):
        _rec(np.ones(10), label="murmurish")


# --------------------------------------------------------------- windowing

def test_window_count_and_tiling():
    rec = _rec(np.arange(int(21 * FS), dtype=np.float64))
    wins = segment_windows(rec)
    width = int(4 * FS)
    assert wins.shape == (5, width)
    assert np.shares_memory(wins, rec.samples)
    for i, w in enumerate(wins):
        assert np.array_equal(w, rec.samples[i * width: (i + 1) * width])


def test_window_too_short_recording_gives_none():
    rec = _rec(np.ones(int(3.9 * FS)))
    assert segment_windows(rec).shape == (0, int(4 * FS))


# ------------------------------------------------------------ finalization

def test_finalize_resamples_ramp_exactly():
    # linear interpolation reproduces a linear ramp exactly at any grid
    window = np.linspace(0.0, 3.0, 1600)
    seg = finalize_segment(window, FS, "normal", "r1", 0)
    assert isinstance(seg, Segment)
    assert len(seg.values) == SEGMENT_LENGTH
    want = np.linspace(-1.0, 1.0, SEGMENT_LENGTH)
    assert np.max(np.abs(seg.values - want)) < 1e-12
    assert seg.values.mean() == pytest.approx(0.0, abs=1e-15)
    assert np.max(np.abs(seg.values)) == pytest.approx(1.0)


def test_finalize_rejects_constant_window():
    out = finalize_segment(np.full(1600, 2.5), FS, "normal", "r1", 3)
    assert isinstance(out, RejectedWindow)
    assert out.window_index == 3
    assert "zero" in out.reason


def test_finalize_rejects_all_zero_window():
    out = finalize_segment(np.zeros(1600), FS, "normal", "r1", 0)
    assert isinstance(out, RejectedWindow)


def test_finalize_rejects_non_finite():
    bad = np.ones(1600)
    bad[7] = np.nan
    assert isinstance(finalize_segment(bad, FS, "normal", "r1", 0), RejectedWindow)
    bad[7] = np.inf
    assert isinstance(finalize_segment(bad, FS, "normal", "r1", 0), RejectedWindow)


def test_finalize_idempotent_on_final_segments():
    rng = Rng(3)
    window = rng.normal((1600,))
    seg = finalize_segment(window, FS, "normal", "r1", 0)
    again = finalize_segment(seg.values, FS, "normal", "r1", 0)
    # re-centering shaves at most one rounding step off an already-final segment
    assert np.max(np.abs(seg.values - again.values)) < 1e-14


def test_finalize_keeps_metadata():
    seg = finalize_segment(np.sin(np.arange(1600) / 20.0), FS, "abnormal", "rec9", 2)
    assert (seg.label, seg.recording_id, seg.window_index) == ("abnormal", "rec9", 2)


# ---------------------------------------------------------------- pipeline

def test_preprocess_recording_end_to_end():
    t = np.arange(int(12 * FS)) / FS
    x = np.sin(2.0 * np.pi * 60.0 * t) + 0.3 * np.sin(2.0 * np.pi * 200.0 * t)
    segs, rejected = preprocess_recording(_rec(x, label="abnormal", rid="rec3"))
    assert len(segs) == 3
    assert rejected == []
    for i, seg in enumerate(segs):
        assert seg.window_index == i
        assert seg.recording_id == "rec3"
        assert seg.label == "abnormal"
        assert len(seg.values) == SEGMENT_LENGTH
        assert abs(seg.values.mean()) < 1e-12
        assert np.max(np.abs(seg.values)) == pytest.approx(1.0)


def test_preprocess_counts_rejections():
    # one window of pure DC survives filtering as ~0 and is rejected
    x = np.zeros(int(8 * FS))
    x[: int(4 * FS)] = np.sin(2.0 * np.pi * 100.0 * np.arange(int(4 * FS)) / FS)
    segs, rejected = preprocess_recording(_rec(x))
    assert len(segs) + len(rejected) == 2


# ------------------------------------------- batched path vs per-window np.interp

def _reference_window(window, label, rid, index):
    """The per-window finalization the batched path replaced, via np.interp."""
    window = np.asarray(window, dtype=np.float64)
    if not np.all(np.isfinite(window)):
        return RejectedWindow(rid, index, "non-finite values")
    if not np.any(window):
        return RejectedWindow(rid, index, "identically zero")
    grid = np.linspace(0.0, len(window) - 1.0, SEGMENT_LENGTH)
    values = np.interp(grid, np.arange(len(window)), window)
    values = values - values.mean()
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return RejectedWindow(rid, index, "zero after centering")
    return Segment(values=values / peak, label=label, recording_id=rid, window_index=index)


def _reference_recording(rec, filtered=True):
    samples = rec.samples
    if filtered:
        # windowing is checked bit for bit here; the filter against scipy's
        # in test_bandpass_matches_scipy_sosfiltfilt
        samples = preprocess.bandpass(rec).samples
    width = int(round(4.0 * rec.sample_rate))
    results = [_reference_window(samples[i * width: (i + 1) * width], rec.label, rec.id, i)
               for i in range(len(samples) // width)]
    return ([r for r in results if isinstance(r, Segment)],
            [r for r in results if isinstance(r, RejectedWindow)])


def _assert_same_outcome(got, want):
    segs, rejected = got
    want_segs, want_rejected = want
    assert rejected == want_rejected
    assert len(segs) == len(want_segs)
    for a, b in zip(segs, want_segs):
        assert (a.label, a.recording_id, a.window_index) == \
            (b.label, b.recording_id, b.window_index)
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("fs", [2000.0, 4000.0])
def test_batched_recording_matches_per_window_reference(fs):
    rng = Rng(int(fs))
    n = int(14.5 * fs)
    t = np.arange(n) / fs
    x = (np.sin(2.0 * np.pi * 90.0 * t) + 0.5 * rng.normal((n,))) * 0.3
    rec = _rec(x, fs=fs, label="abnormal", rid=f"r{int(fs)}")
    got = preprocess_recording(rec)
    assert len(got[0]) == 3
    _assert_same_outcome(got, _reference_recording(rec))


def test_batched_silent_recording_matches_reference():
    rec = _rec(np.zeros(int(9 * FS)), rid="quiet")
    got = preprocess_recording(rec)
    assert got[0] == []
    assert [r.reason for r in got[1]] == ["identically zero"] * 2
    _assert_same_outcome(got, _reference_recording(rec))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_one_non_finite_sample_rejects_every_window_as_scipy_does(bad):
    x = Rng(9).normal((int(13 * FS),))
    x[int(6.5 * FS)] = bad
    rec = _rec(x, rid="spike")
    got = preprocess_recording(rec)
    assert got == ([], [RejectedWindow("spike", i, "non-finite values") for i in range(3)])
    scipy_filtered = Recording(samples=_scipy_bandpass(rec), sample_rate=FS,
                               id=rec.id, label=rec.label)
    _assert_same_outcome(got, _reference_recording(scipy_filtered, filtered=False))


def test_batched_degenerate_windows_match_reference(monkeypatch):
    # skip the filter so each window's content is chosen exactly
    monkeypatch.setattr(preprocess, "bandpass", lambda rec: rec)
    width = int(4 * FS)
    rng = Rng(8)
    windows = rng.normal((6, width))
    windows[1, 100] = np.nan
    windows[2] = 0.0
    windows[3] = 0.75           # zero after centering
    windows[4, -1] = np.inf
    rec = _rec(np.concatenate([windows.ravel(), rng.normal((width // 2,))]), rid="mix")
    got = preprocess_recording(rec)
    assert [r.reason for r in got[1]] == [
        "non-finite values", "identically zero", "zero after centering",
        "non-finite values"]
    assert [s.window_index for s in got[0]] == [0, 5]
    _assert_same_outcome(got, _reference_recording(rec, filtered=False))


def test_batched_recording_shorter_than_a_window():
    rec = _rec(Rng(2).normal((int(3.5 * FS),)))
    assert preprocess_recording(rec) == ([], [])
    assert _reference_recording(rec) == ([], [])


def test_finalize_segment_matches_reference_on_odd_widths():
    rng = Rng(6)
    # 2000 samples land every grid point on a sample; a zero-mean window
    # keeps the sign of its -0.0 samples through centering
    signed_zero = np.concatenate([[-0.0, -0.0], np.tile([1.0, -1.0], 999)])
    windows = [rng.normal((w,)) for w in (1, 2, 3, 1999, 2000, 2001, 8000, 16000)]
    for window in windows + [signed_zero]:
        got = finalize_segment(window, FS, "normal", "w", 4)
        want = _reference_window(window, "normal", "w", 4)
        assert type(got) is type(want)
        if isinstance(want, Segment):
            assert got.values.tobytes() == want.values.tobytes()
        else:
            assert got == want


# ----------------------------------------------------------- noise injection

def test_inject_infinite_snr_is_identity():
    seg = finalize_segment(Rng(1).normal((1600,)), FS, "normal", "r", 0)
    assert inject_noise_snr(seg, float("inf"), Rng(2)) is seg


@pytest.mark.parametrize("snr_db", [float("-inf"), float("nan")])
def test_inject_rejects_nan_and_minus_infinity(snr_db):
    # only +inf is the no-noise sentinel; the rest of the non-finite values
    # would write the clean model's metrics or fail far downstream
    seg = finalize_segment(Rng(1).normal((1600,)), FS, "normal", "r", 0)
    with pytest.raises(ConfigError, match="SNR"):
        inject_noise_snr(seg, snr_db, Rng(2))


@pytest.mark.parametrize("snr_db", [-4000.0, -3100.0, 4000.0])
def test_inject_rejects_snrs_past_float_range(snr_db):
    # 10^(snr/10) underflows to 0 (division by zero), overflows, or leaves a
    # reciprocal past the float range (NaN values) at these SNRs
    seg = finalize_segment(Rng(1).normal((1600,)), FS, "normal", "r", 0)
    with pytest.raises(ConfigError, match="SNR"):
        inject_noise_snr(seg, snr_db, Rng(2))


def test_inject_matches_formula_replay():
    seg = finalize_segment(Rng(1).normal((1600,)), FS, "normal", "r", 0)
    got = inject_noise_snr(seg, 15.0, Rng(7))
    p_signal = np.mean(seg.values ** 2)
    p_noise = p_signal / 10.0 ** 1.5
    noisy = seg.values + Rng(7).normal(len(seg.values)) * np.sqrt(p_noise)
    noisy = noisy - noisy.mean()
    want = noisy / np.max(np.abs(noisy))
    assert np.array_equal(got.values, want)


def test_inject_reads_a_float32_row_as_its_float64_widening():
    seg = finalize_segment(Rng(1).normal((1600,)), FS, "normal", "r", 0)
    row = seg.values.astype(np.float32)
    wide = Segment(values=row.astype(np.float64), label="normal", recording_id="r",
                   window_index=0)
    got = inject_noise_snr(Segment(values=row, label="normal", recording_id="r",
                                   window_index=0), 15.0, Rng(7))
    assert got.values.dtype == np.float64
    assert got.values.tobytes() == inject_noise_snr(wide, 15.0, Rng(7)).values.tobytes()


def test_inject_hits_target_snr_statistically():
    seg = finalize_segment(np.sin(np.arange(1600) / 5.0), FS, "normal", "r", 0)
    target_db = 20.0
    p_signal = np.mean(seg.values ** 2)
    noisy = inject_noise_snr(seg, target_db, Rng(11))
    # undo the output renormalization to compare against the pre-scale mix
    p_noise_want = p_signal / 10.0 ** (target_db / 10.0)
    # estimate achieved noise power over many draws
    ratios = []
    for s in range(20):
        out = inject_noise_snr(seg, target_db, Rng(100 + s))
        # the injected noise is out * peak - values (up to the mean shift)
        raw = seg.values + Rng(100 + s).normal(len(seg.values)) * np.sqrt(p_noise_want)
        added = raw - seg.values
        ratios.append(np.mean(added ** 2) / p_noise_want)
    assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)
    assert np.max(np.abs(noisy.values)) == pytest.approx(1.0)
    assert noisy.label == seg.label


def test_inject_keeps_normalization_contract():
    seg = finalize_segment(Rng(4).normal((1600,)), FS, "abnormal", "r", 1)
    out = inject_noise_snr(seg, 5.0, Rng(5))
    assert abs(out.values.mean()) < 1e-12
    assert np.max(np.abs(out.values)) == pytest.approx(1.0)
    assert not np.array_equal(out.values, seg.values)
