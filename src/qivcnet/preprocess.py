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

The band-pass is the 4th-order Butterworth design of scipy's ``butter``
(analog prototype, band-pass transform, bilinear transform with pre-warped
corners, one conjugate pole pair per second-order section, paired with its
nearest zeros as scipy pairs them), applied forward and backward as scipy's
``sosfiltfilt`` applies it; the two passes square the magnitude response and
cancel the phase.  Each pass runs the four sections as one 8-state linear
system over blocks of ``_BLOCK`` samples, so the recursion becomes a few
small matrix products (Burrus, 1972) and a log-depth scan carries the state
from block to block (Hillis-Steele; Blelloch, 1990).  The result agrees with
``scipy.signal.sosfiltfilt`` to within rounding: under 1e-12 of the peak
at 2 and 4 kHz, growing with the sample rate to about 3e-10 at 44.1 kHz.
Only numpy is imported.
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


_BLOCK = 64   # samples per filter block; its (blocks, 64) GEMMs were fastest of 16-256


@functools.lru_cache(maxsize=16)
def _sos_design(sample_rate: float) -> np.ndarray:
    n = FILTER_ORDER
    prototype = -np.exp(1j * np.pi * np.arange(1 - n, n, 2) / (2 * n))
    # corners pre-warped in units of 2 * sample_rate, where the bilinear
    # transform is z = (1 + s) / (1 - s)
    lo, hi = np.tan(np.pi * np.array([BAND_LOW_HZ, BAND_HIGH_HZ]) / sample_rate)
    half = prototype * (hi - lo) / 2.0
    root = np.sqrt(half ** 2 - lo * hi)
    analog = np.concatenate([half + root, half - root])
    poles = (1.0 + analog) / (1.0 - analog)
    gain = ((hi - lo) ** n / np.prod(1.0 - analog)).real
    # the analog zeros at s = 0 map to z = 1 and those at infinity to z = -1.
    # As scipy's nearest pairing does, the sections run from the pole pair
    # farthest from the unit circle to the nearest, and the two pairs with
    # the largest real parts take the double zeros at z = 1
    upper = poles[poles.imag > 0.0]
    upper = upper[np.argsort(np.abs(upper))]
    zeros = np.where(upper.real >= np.sort(upper.real)[n // 2], 1.0, -1.0)
    sos = np.ones((n, 6))
    sos[:, 1] = -2.0 * zeros
    sos[:, 4] = -2.0 * upper.real
    sos[:, 5] = np.abs(upper) ** 2
    sos[0, :3] *= gain
    sos.flags.writeable = False
    return sos


def butter_bandpass_sos(sample_rate: float) -> np.ndarray:
    """Second-order sections ``[b0, b1, b2, 1, a1, a2]`` of the 4th-order
    Butterworth band-pass, as ``scipy.signal.butter(..., output="sos")``
    gives them to within rounding.

    The design is computed once per sample rate; every call returns a fresh
    writable copy, so a caller cannot change the cached design.
    """
    return _sos_design(sample_rate).copy()


@functools.lru_cache(maxsize=16)
def _block_filter(sample_rate: float):
    """The cascade as one state-space system x' = A x + B u, y = C x + D u
    (each section in transposed direct form II, as scipy's ``sosfilt``),
    laid out for ``_BLOCK``-sample blocks: the zero-state response matrix
    (transposed), the state each input sample leaves at the block's end, the
    output each start state produces, A^_BLOCK, and the steady state of a
    unit step, which is scipy's ``sosfilt_zi``."""
    sos = _sos_design(sample_rate)
    m = 2 * len(sos)
    A, B, C, D = np.zeros((m, m)), np.zeros(m), np.zeros(m), 1.0
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        # section k's input is C x + D u, its output b0 (C x + D u) + x[2k]
        i = 2 * k
        for j, (g, a) in enumerate(((b1 - a1 * b0, a1), (b2 - a2 * b0, a2))):
            A[i + j] += g * C
            A[i + j, i] -= a
            B[i + j] = g * D
        A[i, i + 1] = 1.0
        C, D = b0 * C, b0 * D
        C[i] += 1.0
    starts = np.empty((_BLOCK, m))   # row n: C A^n
    ends = np.empty((_BLOCK, m))     # row _BLOCK-1-n: A^n B
    row, col = C, B
    for n in range(_BLOCK):
        starts[n], ends[_BLOCK - 1 - n] = row, col
        row, col = row @ A, A @ col
    h = np.concatenate([[D], starts[:-1] @ B])    # impulse response
    lags = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    toeplitz_t = np.tril(h[lags]).T
    step = np.linalg.solve(np.eye(m) - A, B)
    return toeplitz_t, ends, starts.T, np.linalg.matrix_power(A, _BLOCK), step


def _filter_pass(x: np.ndarray, state: np.ndarray, sample_rate: float) -> np.ndarray:
    """One causal pass of the cascade over ``x`` from the given start state."""
    toeplitz_t, ends, starts_t, power, _ = _block_filter(sample_rate)
    blocks = np.zeros((-(-len(x) // _BLOCK), _BLOCK))
    blocks.ravel()[:len(x)] = x
    y = blocks @ toeplitz_t
    # block k starts from sum_j<=k A^(_BLOCK (k-j)) v_j, with v_0 the start
    # state and v_j the zero-state end of block j-1: an inclusive scan
    states = np.empty((len(blocks), len(state)))
    states[0] = state
    states[1:] = blocks[:-1] @ ends
    shift = 1
    while shift < len(states):
        states[shift:] += states[:-shift] @ power.T
        power = power @ power
        shift *= 2
    y += states @ starts_t
    return y.ravel()[:len(x)]


def bandpass(rec: Recording) -> Recording:
    """Zero-phase band-pass; requires the 400 Hz edge to sit below Nyquist.

    The semantics are ``scipy.signal.sosfiltfilt(sos, x, padtype="odd",
    padlen=PAD_LEN)``: odd extension by ``PAD_LEN`` samples at each end, a
    forward pass from the steady state of the first sample, a backward pass
    from the steady state of the forward pass's last output, and the padding
    stripped.  The outputs agree with scipy's to within rounding (see the
    module docstring); a non-finite sample makes every output non-finite.
    """
    if rec.sample_rate <= 2.0 * BAND_HIGH_HZ:
        raise DataError(
            f"recording {rec.id}: sample rate {rec.sample_rate} Hz too low for the "
            f"{BAND_HIGH_HZ} Hz band edge (need > {2.0 * BAND_HIGH_HZ} Hz)")
    if len(rec.samples) <= PAD_LEN:
        raise DataError(
            f"recording {rec.id}: too short to filter ({len(rec.samples)} samples, "
            f"need > {PAD_LEN})")
    x = np.asarray(rec.samples, dtype=np.float64)
    step = _block_filter(rec.sample_rate)[-1]
    x = np.concatenate([2.0 * x[0] - x[PAD_LEN:0:-1], x,
                        2.0 * x[-1] - x[-2:-PAD_LEN - 2:-1]])
    with np.errstate(invalid="ignore"):   # NaN from a non-finite sample is rejected later
        y = _filter_pass(x, step * x[0], rec.sample_rate)
        y = _filter_pass(y[::-1], step * y[-1], rec.sample_rate)[::-1]
    return Recording(samples=y[PAD_LEN:-PAD_LEN], sample_rate=rec.sample_rate,
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


def snr_power_ratio(snr_db: float, what: str = "SNR") -> float:
    """10^(snr_db/10); a ConfigError naming ``what`` unless it and its
    reciprocal are finite, nonzero floats (|snr_db| up to about 3082 dB)."""
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = np.inf
    if not (0.0 < ratio < np.inf and 1.0 / ratio < np.inf):    # NaN fails too
        raise ConfigError(f"{what} must be +inf or within about +-3082 dB, got {snr_db}")
    return ratio


def inject_noise_snr(seg: Segment, snr_db: float, rng: Rng) -> Segment:
    """Add white Gaussian noise at the given SNR, then re-normalize.

    The noise power is P_signal / 10^(snr_db/10), measured against the
    segment before renormalization.  An SNR of +inf is the no-noise
    sentinel and returns the segment unchanged; see ``snr_power_ratio``
    for the errors.
    """
    if snr_db == np.inf:
        return seg
    values = np.asarray(seg.values, dtype=np.float64)  # float32 cache rows widen exactly
    p_signal = float(np.mean(values ** 2))
    p_noise = p_signal / snr_power_ratio(snr_db)
    noisy = values + rng.normal(len(values)) * np.sqrt(p_noise)
    noisy = noisy - noisy.mean()
    peak = np.max(np.abs(noisy))
    if peak == 0.0:
        raise DataError("noise injection produced an identically zero segment")
    return Segment(values=noisy / peak, label=seg.label,
                   recording_id=seg.recording_id, window_index=seg.window_index)
