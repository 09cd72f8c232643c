"""Heart-sound preprocessing: band-pass filter, windowing, normalization.

The chain per recording is: zero-phase 4th-order Butterworth band-pass
(25-400 Hz), non-overlapping 4-second windows (trailing remainder
dropped), then per-window finalization: linear-interpolation resampling to
2000 samples, mean centering, and peak normalization to max |v| = 1.
Windows containing non-finite values, or that are identically zero (so the
normalization is undefined), are rejected as a typed outcome rather than
an error.  All windows of a recording are finalized together as one
(count, width) array; the result is bit-identical to finalizing each
window on its own with ``np.interp``.

The band-pass is realized as cascaded second-order sections obtained from
the analytic Butterworth prototype through the bilinear transform with
pre-warped corner frequencies; applying it forward and backward squares
the magnitude response and cancels the phase.  scipy is loaded on the first
filter design or filtering call, so nothing else in the package imports it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rng import Rng

SEGMENT_LENGTH = 2000
WINDOW_SECONDS = 4.0
BAND_LOW_HZ = 25.0
BAND_HIGH_HZ = 400.0
FILTER_ORDER = 4

# odd-reflection pad length: 3 x (digital order + 1); the band-pass doubles
# the analytic order, so 3 * (2*4 + 1) = 27 samples at each end
PAD_LEN = 3 * (2 * FILTER_ORDER + 1)

LABELS = ("normal", "abnormal")
LABEL_TO_INT = {"normal": 0, "abnormal": 1}


@dataclass(frozen=True)
class Recording:
    """One raw or filtered mono recording."""

    samples: np.ndarray
    sample_rate: float
    id: str
    label: str

    def __post_init__(self) -> None:
        if self.sample_rate <= 0.0:
            raise DataError(f"recording {self.id}: sample rate must be > 0")
        if len(self.samples) == 0:
            raise DataError(f"recording {self.id}: empty signal")
        if self.label not in LABELS:
            raise DataError(f"recording {self.id}: unknown label {self.label!r}")


@dataclass(frozen=True)
class Segment:
    """One preprocessed window: 2000 samples, centered, peak-normalized;
    float64 from ``preprocess``, a float32 row of one array from the cache."""

    values: np.ndarray
    label: str
    recording_id: str
    window_index: int


@dataclass(frozen=True)
class RejectedWindow:
    """A window the pipeline refused, with the reason."""

    recording_id: str
    window_index: int
    reason: str


@functools.lru_cache(maxsize=16)
def _sos_design(sample_rate: float) -> np.ndarray:
    from scipy import signal

    sos = signal.butter(FILTER_ORDER, [BAND_LOW_HZ, BAND_HIGH_HZ],
                        btype="bandpass", fs=sample_rate, output="sos")
    sos.flags.writeable = False
    return sos


def butter_bandpass_sos(sample_rate: float) -> np.ndarray:
    """Second-order sections of the 4th-order Butterworth band-pass.

    The design is computed once per sample rate; every call returns a fresh
    writable copy, because scipy's ``sosfilt`` rejects a read-only array.
    """
    return _sos_design(sample_rate).copy()


def bandpass(rec: Recording) -> Recording:
    """Zero-phase band-pass; requires the 400 Hz edge to sit below Nyquist."""
    if rec.sample_rate <= 2.0 * BAND_HIGH_HZ:
        raise DataError(
            f"recording {rec.id}: sample rate {rec.sample_rate} Hz too low for the "
            f"{BAND_HIGH_HZ} Hz band edge (need > {2.0 * BAND_HIGH_HZ} Hz)")
    if len(rec.samples) <= PAD_LEN:
        raise DataError(
            f"recording {rec.id}: too short to filter ({len(rec.samples)} samples, "
            f"need > {PAD_LEN})")
    from scipy import signal

    sos = butter_bandpass_sos(rec.sample_rate)
    filtered = signal.sosfiltfilt(sos, rec.samples, padtype="odd", padlen=PAD_LEN)
    return Recording(samples=filtered, sample_rate=rec.sample_rate,
                     id=rec.id, label=rec.label)


def segment_windows(rec: Recording, seconds: float = WINDOW_SECONDS) -> np.ndarray:
    """Consecutive non-overlapping fixed-duration windows as a (count, width)
    view of the samples; the remainder is dropped."""
    width = int(round(seconds * rec.sample_rate))
    count = len(rec.samples) // width
    return rec.samples[: count * width].reshape(count, width)


def _finalize_windows(windows: np.ndarray, label: str, recording_id: str,
                      first_index: int = 0) -> "list[Segment | RejectedWindow]":
    """Resample, center and normalize each row; one result per row, in order.

    Resampling is linear interpolation onto 2000 points spanning the row.
    The sample spacing is exactly 1.0, so ``(w[j+1] - w[j]) * frac + w[j]``
    rounds exactly as ``np.interp`` does, and grid points that land on a
    sample take it unchanged, as ``np.interp`` does.
    """
    windows = np.asarray(windows, dtype=np.float64)
    count, width = windows.shape
    finite = np.isfinite(windows).all(axis=1)
    nonzero = windows.any(axis=1)
    rows = np.flatnonzero(finite & nonzero)
    normalized = iter(())
    if len(rows):
        grid = np.linspace(0.0, width - 1.0, SEGMENT_LENGTH)
        j = grid.astype(np.intp)
        frac = grid - j
        lo = windows[rows[:, None], j]
        values = (windows[rows[:, None], np.minimum(j + 1, width - 1)] - lo) * frac + lo
        on_sample = np.flatnonzero(frac == 0.0)
        values[:, on_sample] = lo[:, on_sample]
        for row in values:
            # the per-window code's 1-D mean by construction; mean(axis=1)
            # agrees only while numpy sums each contiguous row pairwise
            row -= row.mean()
        peaks = np.abs(values).max(axis=1)
        np.divide(values, peaks[:, None], out=values, where=peaks[:, None] != 0.0)
        normalized = zip(values, peaks)
    results: "list[Segment | RejectedWindow]" = []
    for i in range(count):
        index = first_index + i
        if not finite[i]:
            results.append(RejectedWindow(recording_id, index, "non-finite values"))
        elif not nonzero[i]:
            results.append(RejectedWindow(recording_id, index, "identically zero"))
        else:
            row, peak = next(normalized)
            if peak == 0.0:
                results.append(RejectedWindow(recording_id, index, "zero after centering"))
            else:
                results.append(Segment(values=row, label=label,
                                       recording_id=recording_id, window_index=index))
    return results


def finalize_segment(window: np.ndarray, source_rate: float, label: str,
                     recording_id: str, window_index: int) -> "Segment | RejectedWindow":
    """Resample to 2000 points, center, normalize; reject degenerate windows."""
    return _finalize_windows(np.reshape(window, (1, -1)), label, recording_id,
                             window_index)[0]


def preprocess_recording(rec: Recording) -> "tuple[list[Segment], list[RejectedWindow]]":
    """Full per-recording chain: filter, window, finalize."""
    filtered = bandpass(rec)
    results = _finalize_windows(segment_windows(filtered), rec.label, rec.id)
    segments = [r for r in results if isinstance(r, Segment)]
    rejected = [r for r in results if isinstance(r, RejectedWindow)]
    return segments, rejected


def inject_noise_snr(seg: Segment, snr_db: float, rng: Rng) -> Segment:
    """Add white Gaussian noise at the given SNR, then re-normalize.

    The noise power is P_signal / 10^(snr_db/10), measured against the
    segment before renormalization.  An SNR of +inf is the no-noise
    sentinel and returns the segment unchanged; NaN and -inf are errors.
    """
    if snr_db == np.inf:
        return seg
    if not np.isfinite(snr_db):
        raise ConfigError(f"SNR must be finite or +inf, got {snr_db}")
    values = np.asarray(seg.values, dtype=np.float64)  # float32 cache rows widen exactly
    p_signal = float(np.mean(values ** 2))
    p_noise = p_signal / (10.0 ** (snr_db / 10.0))
    noisy = values + rng.normal(len(values)) * np.sqrt(p_noise)
    noisy = noisy - noisy.mean()
    peak = np.max(np.abs(noisy))
    if peak == 0.0:
        raise DataError("noise injection produced an identically zero segment")
    return Segment(values=noisy / peak, label=seg.label,
                   recording_id=seg.recording_id, window_index=seg.window_index)
