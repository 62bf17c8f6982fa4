"""CHFT binary tensor files and multi-entry containers.

Single tensor layout: magic "CHFT", version u16 = 1, dtype u8 (0 = f32,
1 = f64), ndim u8, ndim x u32 extents, then the payload little-endian
row-major.  A container is a sequence of named entries, each written as
u16 name length, the utf-8 name, then a full single-tensor blob.  A file
that breaks these layouts is a FormatError that starts with its path.
Either kind of file is written beside its path and then replaces it whole,
so a write that fails leaves the file that was there.
"""
from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

MAGIC = b"CHFT"
VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_MAX_NDIM = 64  # numpy's limit on an array's dimensions


class FormatError(ValueError):
    pass


def require_finite(arr, what):
    """``arr``, or a FormatError naming ``what`` if it holds NaN or inf: the rule for loaded
    arrays and for infer's outputs."""
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise FormatError(f"{what} holds {bad} non-finite values")
    return arr


def _encode(arr: np.ndarray) -> bytes:
    if arr.dtype not in _CODES:
        raise FormatError(f"unsupported dtype {arr.dtype}")
    head = MAGIC + struct.pack("<HBB", VERSION, _CODES[arr.dtype], arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype(arr.dtype.newbyteorder("<")).tobytes()


def _decode(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    if buf[offset:offset + 4] != MAGIC:
        raise FormatError("bad magic bytes")
    if offset + 8 > len(buf):
        raise FormatError("truncated header")
    version, code, ndim = struct.unpack_from("<HBB", buf, offset + 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if code not in _DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    if ndim > _MAX_NDIM:
        raise FormatError(f"{ndim} dimensions exceed numpy's {_MAX_NDIM}")
    if offset + 8 + 4 * ndim > len(buf):
        raise FormatError("truncated header")
    shape = struct.unpack_from(f"<{ndim}I", buf, offset + 8)
    dtype = _DTYPES[code]
    start = offset + 8 + 4 * ndim
    # exact: np.prod wraps around at 2^63 and can give 0 for huge extents
    count = math.prod(shape)
    end = start + count * dtype.itemsize
    if end > len(buf):
        raise FormatError("truncated payload")
    # an empty array passes that check whatever its other extents, but numpy
    # sizes it by its non-zero extents and refuses what it cannot index
    if math.prod(filter(None, shape)) * dtype.itemsize > np.iinfo(np.intp).max:
        raise FormatError(f"extents {shape} exceed what numpy can index")
    # a view of buf; astype makes the one copy the caller owns
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=start).reshape(shape)
    return arr.astype(dtype.newbyteorder("=")), end


@contextlib.contextmanager
def _naming(path):
    """Prefix each FormatError raised while reading ``path``'s bytes with the path."""
    try:
        yield
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _replacing(path):
    """A binary file, open for writing, that replaces ``path`` once it is complete.

    On any failure the partial file is removed and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_tensor(path, arr):
    with _replacing(path) as f:
        f.write(_encode(np.asarray(arr)))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    with _naming(path):
        arr, end = _decode(buf)
        if end != len(buf):
            raise FormatError("trailing bytes after tensor payload")
    return arr


def save_container(path, entries):
    """entries: iterable of (name, array) written in the given order."""
    with _replacing(path) as f:
        for name, arr in entries:
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(_encode(np.asarray(arr)))


def load_container(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        buf = f.read()
    out: dict[str, np.ndarray] = {}
    offset = 0
    with _naming(path):
        while offset < len(buf):
            start = offset
            if offset + 2 > len(buf):
                raise FormatError("truncated entry name length")
            (nlen,) = struct.unpack_from("<H", buf, offset)
            offset += 2
            if offset + nlen > len(buf):
                raise FormatError("truncated entry name")
            try:
                name = buf[offset:offset + nlen].decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"entry name at byte {offset} is not UTF-8") from None
            if name in out:
                raise FormatError(f"entry {name!r} at byte {start} repeats an earlier entry")
            offset += nlen
            out[name], offset = _decode(buf, offset)
    return out
