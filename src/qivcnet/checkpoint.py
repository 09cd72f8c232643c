"""Binary checkpoint container for network state.

Layout (all little-endian):

    magic "QIVCCKPT" (8 bytes), version u16, entry count u32
    per entry: name length u16, name bytes (utf-8), kind u8,
               kind 0 (array):  ndim u8, each extent u32, float64 data
               kind 1 (json):   payload length u32, utf-8 JSON text
    trailer: crc32 u32 over everything after the magic

No byte may follow the last entry.

Arrays hold parameters and batch-norm running statistics; the JSON entry
carries run metadata (fold index, split indices, best validation score,
architecture echo).  The checksum guards against truncation and bit rot.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .dataio import publish
from .errors import DataError

MAGIC = b"QIVCCKPT"
VERSION = 1
_KIND_ARRAY = 0
_KIND_JSON = 1


def save_checkpoint(path: "str | Path", arrays: "dict[str, np.ndarray]",
                    metadata: dict) -> None:
    """Write arrays plus one JSON metadata entry named ``meta``.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a failure or kill during the write leaves any earlier checkpoint
    intact.
    """
    if "meta" in arrays:
        raise DataError("array name 'meta' is reserved for metadata")
    body = bytearray()
    entries = list(arrays.items()) + [("meta", metadata)]
    body += struct.pack("<HI", VERSION, len(entries))
    for name, value in entries:
        name_b = name.encode("utf-8")
        body += struct.pack("<H", len(name_b))
        body += name_b
        if isinstance(value, np.ndarray):
            # asarray, not ascontiguousarray: the latter promotes 0-d to (1,)
            arr = np.asarray(value, dtype="<f8")
            body += struct.pack("<BB", _KIND_ARRAY, arr.ndim)
            body += struct.pack(f"<{arr.ndim}I", *arr.shape)
            body += arr.tobytes()
        else:
            payload = json.dumps(value, sort_keys=True).encode("utf-8")
            body += struct.pack("<BI", _KIND_JSON, len(payload))
            body += payload
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    publish(path, lambda tmp: tmp.write_bytes(MAGIC + bytes(body)))


def load_checkpoint(path: "str | Path") -> "tuple[dict[str, np.ndarray], dict]":
    """Read back (arrays, metadata); verifies magic, version and checksum,
    and refuses an entry that does not parse or bytes after the last one."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing checkpoint: {path}")
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 10 or blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    body, (stored_crc,) = blob[len(MAGIC): -4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != stored_crc:
        raise DataError(f"{path}: checkpoint checksum mismatch")
    version, count = struct.unpack_from("<HI", body, 0)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    offset = 6
    arrays: "dict[str, np.ndarray]" = {}
    metadata: dict = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset: offset + name_len].decode("utf-8")
            offset += name_len
            (kind,) = struct.unpack_from("<B", body, offset)
            offset += 1
            if kind == _KIND_ARRAY:
                (ndim,) = struct.unpack_from("<B", body, offset)
                offset += 1
                shape = struct.unpack_from(f"<{ndim}I", body, offset)
                offset += 4 * ndim
                size = math.prod(shape)
                if 8 * size > len(body) - offset:
                    raise DataError(f"{path}: array {name!r} runs past the checkpoint body")
                arr = np.frombuffer(body, dtype="<f8", count=size, offset=offset)
                offset += 8 * size
                arrays[name] = arr.reshape(shape).astype(np.float64)
            elif kind == _KIND_JSON:
                (length,) = struct.unpack_from("<I", body, offset)
                offset += 4
                metadata = json.loads(body[offset: offset + length].decode("utf-8"))
                offset += length
            else:
                raise DataError(f"{path}: unknown entry kind {kind}")
    except struct.error as exc:
        raise DataError(f"{path}: truncated checkpoint") from exc
    except (ValueError, RecursionError) as exc:   # an entry that does not parse or nests too deep
        raise DataError(f"{path}: malformed checkpoint entry: {exc}") from exc
    if offset != len(body):
        raise DataError(f"{path}: checkpoint entries end at byte {offset} of a "
                        f"{len(body)}-byte body")
    return arrays, metadata
