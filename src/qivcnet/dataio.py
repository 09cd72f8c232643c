"""File formats: WAV ingest, label manifests, segment cache, CSV output.

Ingest accepts RIFF/WAVE files containing 16-bit signed little-endian PCM;
stereo files are reduced to channel 0 with a warning.  Labels come from a
manifest CSV with header ``recording_id,relative_path,label`` where paths
are relative to the manifest's directory, labels are ``normal`` or
``abnormal``, and no recording_id is listed twice.

The segment cache is a little-endian binary file:

    header (16 bytes): magic "QIVC", version u16, segment count u32,
                       segment length u32 (always 2000), 2 zero pad bytes
    per segment:       label u8, recording-id length u16, id bytes (utf-8),
                       window index u32, then `length` float32 values

Floats in CSV output are rendered with ``repr``, the shortest round-trip
form, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import os
import struct
import sys
import wave
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DataError
from .preprocess import LABEL_TO_INT, LABELS, Recording, Segment, SEGMENT_LENGTH

CACHE_MAGIC = b"QIVC"
CACHE_VERSION = 1


def read_wav(path: "str | Path") -> "tuple[np.ndarray, float]":
    """Load PCM16 mono samples scaled to [-1, 1); returns (samples, rate)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing WAV file: {path}")
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            width = wav.getsampwidth()
            rate = wav.getframerate()
            declared = wav.getnframes()
            frames = wav.readframes(declared)
    except (wave.Error, EOFError) as exc:
        raise DataError(f"unreadable WAV file {path}: {exc}") from exc
    if width != 2:
        raise DataError(f"{path}: expected 16-bit PCM, got sample width {width}")
    if len(frames) % (width * channels):
        raise DataError(f"{path}: WAV data ends inside a frame")
    present = len(frames) // (width * channels)
    if present < declared:  # streaming writers can leave a placeholder size
        print(f"warning: {path} holds {present} of the {declared} frames its header declares",
              file=sys.stderr)
    data = np.frombuffer(frames, dtype="<i2")
    if channels > 1:
        print(f"warning: {path} has {channels} channels; using channel 0",
              file=sys.stderr)
        data = data[::channels]
    if data.size == 0:
        raise DataError(f"{path}: empty WAV file")
    # 2**-15 is exact, so this equals dividing by 32768 in one pass
    return np.multiply(data, 2.0 ** -15, dtype=np.float64), float(rate)


def load_manifest(path: "str | Path") -> "list[tuple[str, Path, str]]":
    """Parse a manifest CSV into (recording_id, absolute path, label) rows;
    each recording_id may be listed once."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing manifest: {path}")
    rows: "list[tuple[str, Path, str]]" = []
    seen: "dict[str, int]" = {}  # recording_id -> the line that listed it
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            required = {"recording_id", "relative_path", "label"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise DataError(
                    f"manifest {path} must have columns recording_id,relative_path,label")
            for row in reader:
                # DictReader keys extra fields by None and fills missing ones with None
                if None in row or None in row.values():
                    raise DataError(f"{path}:{reader.line_num}: row fields do not match the header")
                label = row["label"].strip()
                if label not in LABELS:
                    raise DataError(f"{path}:{reader.line_num}: unknown label {label!r}")
                rec_id = row["recording_id"].strip()
                if rec_id in seen:
                    raise DataError(f"{path}:{reader.line_num}: recording_id {rec_id!r} "
                                    f"already listed on line {seen[rec_id]}")
                seen[rec_id] = reader.line_num
                rows.append((rec_id, path.parent / row["relative_path"].strip(), label))
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {path} is not UTF-8 text") from exc
    if not rows:
        raise DataError(f"manifest {path} lists no recordings")
    return rows


def iter_recordings(manifest_path: "str | Path") -> "Iterator[Recording]":
    """Decode the manifest's recordings one at a time, in manifest order.

    Only the recording being yielded is held, so a caller that drops each
    one before asking for the next needs memory for one recording, not the
    corpus.  The manifest itself is parsed on the first ``next``.
    """
    for rec_id, wav_path, label in load_manifest(manifest_path):
        samples, rate = read_wav(wav_path)
        yield Recording(samples=samples, sample_rate=rate, id=rec_id, label=label)


def publish(path: "str | Path", write: "Callable[[Path], object]"):
    """Call ``write`` on a temporary file beside ``path``, then move it over
    ``path``, so a failure or kill during the write leaves any earlier file
    intact.  Returns what ``write`` returned."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        result = write(tmp)
        os.replace(tmp, path)
        return result
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_segment_cache(path: "str | Path", segments: "Iterable[Segment]") -> int:
    """Write each segment as it arrives to a new cache file that then replaces
    ``path``; the header's count is patched in at the end.  Returns the count."""
    def write(tmp: Path) -> int:
        count = 0
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<HII2x", CACHE_VERSION, 0, SEGMENT_LENGTH))
            for count, seg in enumerate(segments, 1):
                rec_id = seg.recording_id.encode("utf-8")
                fh.write(struct.pack("<BH", LABEL_TO_INT[seg.label], len(rec_id)))
                fh.write(rec_id)
                fh.write(struct.pack("<I", seg.window_index))
                fh.write(seg.values.astype("<f4").tobytes())
            fh.seek(6)
            fh.write(struct.pack("<I", count))
        return count

    return publish(path, write)


def load_segment_cache(path: "str | Path") -> "list[Segment]":
    """Read the cache into one (count, 2000) float32 array; each segment's
    ``values`` is a row of it.  A record holding NaN or inf is a DataError."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing segment cache: {path}")
    int_to_label = {v: k for k, v in LABEL_TO_INT.items()}
    segments: "list[Segment]" = []
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != CACHE_MAGIC:
            raise DataError(f"{path}: not a segment cache (bad magic)")
        version, count, length = struct.unpack_from("<HII", header, 4)
        if version != CACHE_VERSION:
            raise DataError(f"{path}: unsupported cache version {version}")
        if length != SEGMENT_LENGTH:
            raise DataError(f"{path}: unexpected segment length {length}")
        # the smallest record has an empty id: 3 + 4 header bytes, then the values
        if os.fstat(fh.fileno()).st_size < 16 + count * (7 + 4 * length):
            raise DataError(f"{path}: truncated segment cache")
        values = np.empty((count, length), dtype="<f4")
        try:
            for row in values:
                label_int, id_len = struct.unpack("<BH", fh.read(3))
                rec_id = fh.read(id_len).decode("utf-8")
                (window_index,) = struct.unpack("<I", fh.read(4))
                if fh.readinto(row) != row.nbytes:
                    raise DataError(f"{path}: truncated segment cache")
                if label_int not in int_to_label:
                    raise DataError(f"{path}: bad label byte {label_int}")
                segments.append(Segment(values=row, label=int_to_label[label_int],
                                        recording_id=rec_id, window_index=window_index))
        except (struct.error, ValueError) as exc:
            # struct.error: a short read; ValueError: an id that is not utf-8
            raise DataError(f"{path}: truncated segment cache") from exc
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes in segment cache")
    # min and max propagate NaN and allocate nothing; rows are searched only on failure
    if not (np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0))):
        i = next(i for i, row in enumerate(values) if not np.isfinite(row).all())
        raise DataError(f"{path}: record {i} ({segments[i].recording_id} window "
                        f"{segments[i].window_index}) holds a non-finite value")
    return segments


def write_csv(path: "str | Path", header: "tuple[str, ...]",
              rows: "Iterable[Iterable]") -> None:
    """Write a headered CSV through ``publish``; Python and numpy floats are
    written as ``repr(float(v))``, every other value as ``str(v)``."""
    def write(tmp: Path) -> None:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                                 else str(v) for v in row])

    publish(path, write)
