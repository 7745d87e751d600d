"""Binary container framing shared by corpus, index, and model files.

Every persisted file starts with an 8-byte magic string and a one-byte
format version, followed by a type-specific payload. Each kind of file
has its own version (`FORMAT_VERSIONS`), and a reader accepts only that
one. Index and model payloads are one JSON header line followed by raw
little-endian arrays, which `read_arrays` slices out as read-only views.
`read_container` reads a payload once, into one buffer of its size, so a
loaded index holds no second copy of its file. Writers are
deterministic: the same logical content always produces the same bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError

MAGIC_CORPUS = b"LRUSHCRP"
MAGIC_INDEX = b"LRUSHIDX"
MAGIC_MODEL = b"LRUSHMDL"
FORMAT_VERSIONS = {MAGIC_CORPUS: 1, MAGIC_INDEX: 2, MAGIC_MODEL: 2}

# What to do with a file written in another version of its format.
_REMEDIES = {
    MAGIC_CORPUS: "ingest the dump again with `linkrush ingest`",
    MAGIC_INDEX: "rebuild it from the corpus file with `linkrush index`",
    MAGIC_MODEL: "retrain it with `linkrush train`",
}

_MAGIC_LEN = 8


def write_container(path: str | Path, magic: bytes, payload: bytes) -> None:
    assert len(magic) == _MAGIC_LEN
    Path(path).write_bytes(magic + bytes([FORMAT_VERSIONS[magic]]) + payload)


def read_container(path: str | Path, magic: bytes) -> bytearray:
    """The payload after the magic and version byte.

    The magic and version are checked first; then the rest of the file is
    read once, into one buffer sized from `fstat`, and that buffer is the
    payload (slicing a whole-file read would copy the payload again).
    """
    with open(path, "rb") as file:
        head = file.read(_MAGIC_LEN + 1)
        if len(head) < _MAGIC_LEN + 1 or head[:_MAGIC_LEN] != magic:
            raise DataFormatError(
                f"{path}: not a {magic.decode('ascii')} file (bad magic header)"
            )
        version, expected = head[_MAGIC_LEN], FORMAT_VERSIONS[magic]
        if version != expected:
            raise DataFormatError(
                f"{path}: unsupported format version {version} (expected {expected}); "
                f"{_REMEDIES[magic]}"
            )
        payload = bytearray(max(os.fstat(file.fileno()).st_size - len(head), 0))
        if file.readinto(payload) != len(payload) or file.read(1):
            raise DataFormatError(f"{path}: the file changed size while it was read")
    return payload


def dump_json(obj: object) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, UTF-8."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def load_json(payload: bytes | bytearray, path: str | Path) -> object:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt container payload: {exc}") from exc


def read_arrays(
    payload: bytes | bytearray, offset: int, layout: Sequence[tuple[str, str, int]], path: str | Path
) -> dict[str, np.ndarray]:
    """The arrays `layout` lists as (name, dtype, count), in file order,
    as read-only views of `payload` from `offset` on; they must fill the
    rest of the payload exactly."""
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, count in layout:
        if type(count) is not int or count < 0:
            raise DataFormatError(f"{path}: array {name!r} has a bad length {count!r}")
        size = np.dtype(dtype).itemsize * count
        if offset + size > len(payload):
            raise DataFormatError(
                f"{path}: truncated: array {name!r} needs {size} bytes, "
                f"{len(payload) - offset} are left"
            )
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        arrays[name].flags.writeable = False
        offset += size
    if offset != len(payload):
        raise DataFormatError(f"{path}: {len(payload) - offset} trailing bytes after the arrays")
    return arrays
