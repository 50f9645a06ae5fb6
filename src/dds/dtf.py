"""Artifact formats: DTF binary tensor files and CSV tables.

DTF layout: magic ``DDS1``, one dtype byte (0 = real64, 1 = complex128), one
ndim byte, ndim little-endian u64 extents, then the row-major payload in
little-endian (complex stored as interleaved re, im doubles). Readers
reject wrong magic, bad dtype bytes, and truncated payloads. A CSV artifact
writes floats (numpy float64 included) as their shortest round-trip
``repr``, everything else with ``str``, and ends every line with ``"\n"``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ConfigError
from .tensor import COMPLEX, REAL, check_finite

MAGIC = b"DDS1"
_DTYPE_CODES = {np.dtype(REAL): 0, np.dtype(COMPLEX): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}


def write_dtf(path, x: np.ndarray) -> None:
    x = np.asarray(x)  # np.ascontiguousarray would make a 0-d array 1-d
    if x.dtype not in _DTYPE_CODES:
        if np.iscomplexobj(x):
            x = x.astype(COMPLEX)
        else:
            x = x.astype(REAL)
    check_finite(x, f"write_dtf({path})")
    code = _DTYPE_CODES[x.dtype]
    header = MAGIC + struct.pack("<BB", code, x.ndim)
    header += struct.pack(f"<{x.ndim}Q", *x.shape)
    payload = np.ascontiguousarray(x, dtype=_CODE_DTYPES[code]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_dtf(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ConfigError(f"{path}: not a DTF file (bad magic)")
    if len(blob) < 6:
        raise ConfigError(f"{path}: truncated DTF header")
    code, ndim = struct.unpack("<BB", blob[4:6])
    if code not in _CODE_DTYPES:
        raise ConfigError(f"{path}: unknown DTF dtype code {code}")
    offset = 6 + 8 * ndim
    if len(blob) < offset:
        raise ConfigError(f"{path}: truncated DTF extents")
    shape = struct.unpack(f"<{ndim}Q", blob[6:offset])
    if any(s <= 0 for s in shape):
        raise ConfigError(f"{path}: non-positive extent in {shape}")
    dtype = _CODE_DTYPES[code]
    count = math.prod(shape)  # a Python int: extents past int64 cannot wrap it
    expected = offset + count * dtype.itemsize
    if len(blob) != expected:
        raise ConfigError(
            f"{path}: payload size mismatch (got {len(blob)} bytes, want {expected})"
        )
    try:
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(shape)
    except ValueError as exc:  # more dimensions than numpy supports
        raise ConfigError(f"{path}: {exc}") from exc
    arr = arr.astype(REAL if code == 0 else COMPLEX)
    check_finite(arr, f"read_dtf({path})")
    return arr


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
