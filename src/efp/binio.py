"""Little-endian primitives shared by the binary artifact formats, their
atomic save, and the labeled-row record and lookup of the cache and index."""

from __future__ import annotations

import contextlib
import os
import struct
import sys
from typing import BinaryIO

import numpy as np

from .errors import DataError

# Values per write in write_f32_array (1 MB of float32)
WRITE_BLOCK = 1 << 18


def read_exact(f: BinaryIO, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DataError(f"{f.name}: truncated file: wanted {n} bytes, got {len(data)}")
    return data


@contextlib.contextmanager
def open_artifact(path, magic: bytes, version: int, kind: str):
    """Open an artifact for reading, positioned after its magic and a u32
    version, both checked; every failure is a DataError."""
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open {kind} ({exc})") from exc
    with f:
        got = f.read(len(magic))
        if got != magic:
            raise DataError(f"{path}: bad magic {got!r}, expected {magic!r}")
        got = read_u32(f)
        if got != version:
            raise DataError(f"{path}: unsupported {kind} version {got}")
        yield f


def check_fits(f: BinaryIO, count: int, item_bytes: int, path) -> None:
    """Raise DataError unless ``count`` items of at least ``item_bytes`` bytes
    each fit in the rest of the file, and one item fits in an array. Loaders
    call this with the sizes a header declares, before allocating them."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count * item_bytes > left or item_bytes > sys.maxsize:
        raise DataError(
            f"{path}: header declares {count} x {item_bytes} bytes, "
            f"but only {left} bytes follow"
        )


def write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def read_u32(f: BinaryIO) -> int:
    return struct.unpack("<I", read_exact(f, 4))[0]


def write_u64(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<Q", value))


def read_u64(f: BinaryIO) -> int:
    return struct.unpack("<Q", read_exact(f, 8))[0]


def write_f64(f: BinaryIO, value: float) -> None:
    f.write(struct.pack("<d", value))


def read_f64(f: BinaryIO) -> float:
    return struct.unpack("<d", read_exact(f, 8))[0]


def write_str(f: BinaryIO, s: str) -> None:
    data = s.encode("utf-8")
    write_u32(f, len(data))
    f.write(data)


def read_str(f: BinaryIO) -> str:
    data = read_exact(f, read_u32(f))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{f.name}: string is not valid UTF-8 ({exc})") from None


def write_f32_array(f: BinaryIO, a: np.ndarray) -> None:
    """``a``'s values as float32, converted and written ``WRITE_BLOCK`` at a
    time, so a large float64 array is never copied whole."""
    a = np.ravel(a)
    for start in range(0, a.size, WRITE_BLOCK):
        f.write(a[start : start + WRITE_BLOCK].astype("<f4"))


def read_f32_array(f: BinaryIO, count: int) -> np.ndarray:
    """``count`` float32 values as a read-only array over the bytes read."""
    return np.frombuffer(read_exact(f, 4 * count), dtype="<f4")


@contextlib.contextmanager
def atomic_write(path):
    """Write ``path`` through a temporary file beside it, renamed onto it when
    the block ends and deleted if anything fails, so ``path`` only ever holds
    a whole file. An exception from the block propagates as it is; failing to
    create, close or rename the file is a DataError that names ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    in_block = False
    try:
        with open(tmp, "wb") as f:
            in_block = True
            yield f
            in_block = False
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and not in_block:
            raise DataError(f"{path}: cannot write ({exc.strerror or exc})") from exc
        raise


def write_records(f: BinaryIO, ids, labels, matrix: np.ndarray) -> None:
    """One record per row: u32-length id, u32-length label, the float32 row."""
    for cid, label, row in zip(ids, labels, matrix):
        write_str(f, cid)
        write_str(f, label)
        write_f32_array(f, row)


def read_records(f: BinaryIO, count: int, dim: int, path, wanted=None):
    """(ids, labels, float32 matrix) of ``count`` records, read one at a time.

    With ``wanted``, a set of ids, only those records are kept, in file order:
    every id and label is still read, and the floats of the other rows are
    skipped. Either way every id must be unique and every wanted id present.
    """
    # per row: two string length prefixes and dim float32 values
    check_fits(f, count, 8 + 4 * dim, path)
    n_rows = count if wanted is None else min(count, len(wanted))
    matrix = np.empty((n_rows, dim), dtype=np.float32)
    ids, labels, seen = [], [], set()
    for _ in range(count):
        cid, label = read_str(f), read_str(f)
        if cid in seen:
            raise DataError(f"{path}: duplicate clip_id {cid!r}")
        seen.add(cid)
        if wanted is None or cid in wanted:
            matrix[len(ids)] = read_f32_array(f, dim)
            ids.append(cid)
            labels.append(label)
        else:
            f.seek(4 * dim, os.SEEK_CUR)
    # a seek past the end does not fail, so a skipped last row may not fit
    if f.tell() > os.fstat(f.fileno()).st_size:
        raise DataError(f"{path}: truncated file: the last record runs past the end")
    if wanted is not None and len(ids) < len(wanted):
        raise DataError(f"{path}: clip {min(set(wanted).difference(ids))!r} not in file")
    return ids, labels, matrix[: len(ids)]


class LabeledRows:
    """Parallel ``clip_ids``, ``labels`` and ``matrix`` rows with lookup by
    clip id; the base of the feature cache and the embedding index, whose
    ``kind`` names them in errors."""

    kind = "container"

    def __post_init__(self):
        if not (len(self.clip_ids) == len(self.labels) == len(self.matrix)):
            raise DataError(f"{self.kind} fields disagree on clip count")
        self._row_of = {cid: i for i, cid in enumerate(self.clip_ids)}
        if len(self._row_of) != len(self.clip_ids):
            raise DataError(f"duplicate clip_id in {self.kind}")

    def __len__(self) -> int:
        return len(self.clip_ids)

    def __contains__(self, clip_id: str) -> bool:
        return clip_id in self._row_of

    def row_of(self, clip_id: str) -> int:
        try:
            return self._row_of[clip_id]
        except KeyError:
            raise DataError(f"clip {clip_id!r} not in {self.kind}") from None

    def vector(self, clip_id: str) -> np.ndarray:
        return self.matrix[self.row_of(clip_id)]

    def label_of(self, clip_id: str) -> str:
        return self.labels[self.row_of(clip_id)]

    def rows(self, clip_ids) -> np.ndarray:
        """A new array of the given clips' rows, in the order given."""
        return self.matrix[[self.row_of(cid) for cid in clip_ids]]
